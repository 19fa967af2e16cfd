import hashlib
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uavrf.cli import main
from uavrf.experiments import (
    _MC_CHUNK,
    _pairwise_total,
    _stream,
    run_figure,
    run_learning_study,
    run_policy_comparison,
    write_csv,
)
from uavrf.patterns import dump_pattern, parse_pattern_file, pattern_preset, reconstruct_series
from uavrf.scenario import default_scenario, dump_scenario, reference_scenario

DATA = os.path.join(os.path.dirname(__file__), "data")


def read(path):
    with open(path) as fh:
        return fh.read()


def test_fig6_matches_golden(tmp_path):
    paths = run_figure(default_scenario(), "fig6", str(tmp_path))
    assert read(paths[0]) == read(os.path.join(DATA, "golden_fig6.csv"))


def test_fig5_optimal_radius_ratios(tmp_path):
    (path,) = run_figure(default_scenario(), "fig5", str(tmp_path))
    rows = [line.split(",") for line in read(path).strip().splitlines()[1:]]
    stars = {float(r[0]): float(r[1]) for r in rows if r[3] == "1"}
    assert set(stars) == {0.5, 5.0, 50.0}
    assert stars[5.0] / stars[0.5] == pytest.approx(10**0.25, abs=1e-4)
    assert stars[50.0] / stars[5.0] == pytest.approx(10**0.25, abs=1e-4)


def test_fig4_radius_peaks_at_optimal_ratio(tmp_path):
    (path,) = run_figure(default_scenario(), "fig4", str(tmp_path))
    rows = [line.split(",") for line in read(path).strip().splitlines()[1:]]
    for env in ("urban", "dense-urban", "suburban"):
        for p_tx in {float(r[1]) for r in rows if r[0] == env}:
            sel = [r for r in rows if r[0] == env and float(r[1]) == p_tx]
            radii = np.array([float(r[3]) for r in sel])
            flags = np.array([r[5] == "1" for r in sel])
            assert flags.sum() == 1
            # the flagged row attains the maximum radius
            assert radii[flags][0] == pytest.approx(radii.max(), rel=1e-12)


def test_same_seed_bitwise_identical(tmp_path):
    sc = reference_scenario(seed=4242)
    a = run_figure(sc, "fig10", str(tmp_path / "a"))
    b = run_figure(sc, "fig10", str(tmp_path / "b"))
    for pa, pb in zip(a, b):
        assert read(pa) == read(pb)


def test_different_seed_changes_monte_carlo(tmp_path):
    a = run_figure(reference_scenario(seed=1), "fig10", str(tmp_path / "a"))
    b = run_figure(reference_scenario(seed=2), "fig10", str(tmp_path / "b"))
    assert read(a[0]) != read(b[0])      # Monte-Carlo depends on the seed
    assert read(a[1]) == read(b[1])      # the closed-form sweep does not


def test_learning_study_memory_bounded(tmp_path):
    # the study streams leaves of at most _MC_CHUNK draws through a few
    # quarter-MiB buffers; one array of the 10^6 draws
    # alone is 7.6 MiB, and holding the draws and a full buffer of
    # increments peaked near 17 MiB
    sc = default_scenario()
    run_learning_study(sc, str(tmp_path))  # fill the per-environment caches untraced
    tracemalloc.start()
    try:
        run_learning_study(sc, str(tmp_path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def _leaf_reader(values):
    """A ``leaf_totals`` for :func:`_pairwise_total` that sums the next
    leaf of ``values``, and the list of leaf lengths it was asked for."""
    lengths = []

    def leaf_totals(n):
        start = sum(lengths)
        lengths.append(n)
        return np.add.reduce(values[start : start + n])

    return leaf_totals, lengths


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=3 * _MC_CHUNK),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(n=1, seed=0)
@example(n=127, seed=1)
@example(n=129, seed=2)
@example(n=_MC_CHUNK, seed=3)
@example(n=_MC_CHUNK + 1, seed=4)
@example(n=2 * _MC_CHUNK + 13, seed=5)
@example(n=3 * _MC_CHUNK, seed=6)
@example(n=10**6, seed=7)  # fig10's length: 32 leaves of 31,248 or 31,256
def test_pairwise_total_has_the_bits_of_add_reduce(n, seed):
    # pins numpy's summation tree that fig10's streamed mean relies on: a
    # numpy that splits its pairwise sum elsewhere fails here, not only in
    # the fig10 digests (adding the leaves' totals one after another gives
    # other bits on fig10's own increments)
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(n) * np.exp2(rng.integers(-30, 30, n))
    leaf_totals, lengths = _leaf_reader(values)
    total = _pairwise_total(n, leaf_totals)
    assert total.hex() == np.add.reduce(values).hex()
    assert sum(lengths) == n and max(lengths) <= _MC_CHUNK


def test_learning_study_draws_continue_the_one_shot_stream():
    # fig10 draws each leaf into a reused buffer; the leaves, concatenated,
    # are the generator's one-shot standard_normal(10**6), bit for bit
    sc = default_scenario()
    rng, buffer, leaves = _stream(sc, 10), np.empty(_MC_CHUNK), []

    def draw_leaf(n):
        leaves.append(rng.standard_normal(n, out=buffer[:n]).copy())
        return 0.0

    _pairwise_total(10**6, draw_leaf)
    one_shot = _stream(sc, 10).standard_normal(10**6)
    streamed = np.concatenate(leaves)
    assert {len(leaf) for leaf in leaves} == {31_248, 31_256}
    assert np.array_equal(streamed.view(np.int64), one_shot.view(np.int64))
    # nor does the split need multiples of 8: chunks of a prime length
    rng = _stream(sc, 10)
    odd = np.concatenate(
        [rng.standard_normal(m, out=buffer[:m]).copy()
         for m in np.diff(np.r_[0:10**6:4093, 10**6])]
    )
    assert np.array_equal(odd.view(np.int64), one_shot.view(np.int64))


def test_policy_comparison_columns(tmp_path):
    (path,) = run_policy_comparison(reference_scenario(), str(tmp_path), pm_grid=(1.5,))
    lines = read(path).strip().splitlines()
    assert lines[0].split(",")[0] == "method"
    methods = {line.split(",")[0] for line in lines[1:]}
    assert methods == {"smgd", "lazy", "diligent"}


def test_write_csv_formats_12_digits(tmp_path):
    path = write_csv(str(tmp_path / "x.csv"), ("a", "b"), [(1 / 3, "t"), (2, 0.1)])
    body = read(path).splitlines()
    assert body[1] == "0.333333333333,t"
    assert body[2] == "2,0.1"


def test_unknown_figure_rejected(tmp_path):
    with pytest.raises(ValueError):
        run_figure(default_scenario(), "fig99", str(tmp_path))


# --- command line ---------------------------------------------------------


def test_cli_radius_ok(tmp_path, capsys):
    code = main(["--out", str(tmp_path), "radius", "--lambdas", "0.1", "--p-circuit", "0.5"])
    assert code == 0
    assert (tmp_path / "radius_grid.csv").exists()


def test_cli_static_rf_rejects_zero_circuit_power(tmp_path, capsys):
    code = main(["--out", str(tmp_path), "static-rf", "--lam", "0.1", "--p-circuit", "0"])
    assert code == 2
    assert "p_circuit" in capsys.readouterr().err


def test_cli_schedule_summary(tmp_path, capsys):
    code = main(["--out", str(tmp_path), "schedule", "--method", "lazy", "--pm", "1.5"])
    assert code == 0
    out = capsys.readouterr().out
    assert "avg_dynamic_rf" in out


def test_cli_validation_exit_code(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text(
        "[subregion A]\nrect = 0 0 600 1000\npattern = preset:E\n\n"
        "[subregion B]\nrect = 500 0 500 1000\npattern = preset:R\n"
    )
    code = main(["--config", str(bad), "--out", str(tmp_path), "radius"])
    assert code == 2


def test_cli_missing_config_exit_code(tmp_path):
    code = main(["--config", str(tmp_path / "absent.cfg"), "--out", str(tmp_path), "radius"])
    assert code == 2


def test_cli_numerical_exit_code(tmp_path, capsys):
    # flat excess loss: the altitude search has no interior optimum
    cfg = tmp_path / "flat.cfg"
    cfg.write_text(
        "[scenario]\nname = flat\n\n[environment]\n"
        "a = 1.0\nb = 1.0\neta_los = 1.0\neta_nlos = 1.0\n"
    )
    code = main(["--config", str(cfg), "--out", str(tmp_path), "altitude"])
    assert code == 3
    assert capsys.readouterr().err.startswith("numerical failure:")


def test_cli_radius_out_of_float_range_is_a_numerical_failure(tmp_path, capsys):
    code = main(["--out", str(tmp_path), "radius", "--lambdas", "1e-320"])
    assert code == 3
    assert capsys.readouterr().err.startswith("numerical failure: optimal radius out of float range")


def test_cli_negative_seed_exit_2(tmp_path, capsys):
    cfg = tmp_path / "seed.cfg"
    cfg.write_text("[scenario]\nseed = -3\n")
    for source in (["--seed", "-1"], ["--config", str(cfg)]):
        assert main([*source, "--out", str(tmp_path), "radius"]) == 2
        assert "seed must be a nonnegative integer" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize(
    "text, message",
    [
        ("[scenario]\nseed = -3\n", "seed must be a nonnegative integer, got -3"),
        (
            "[subregion A]\nrect = 0 0 600 1000\n\n[subregion B]\nrect = 500 0 500 1000\n",
            "subregions 'A' and 'B' overlap",
        ),
    ],
    ids=["seed", "overlap"],
)
def test_cli_scenario_invariant_errors_name_the_file(tmp_path, capsys, text, message):
    # Scenario's own checks run after parsing, and named no file
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    assert main(["--config", str(cfg), "--out", str(tmp_path), "radius"]) == 2
    assert capsys.readouterr().err == f"error: {message} (in {cfg})\n"
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_cli_static_rf_non_finite_circuit_power_exit_2(tmp_path, capsys, value):
    assert main(["--out", str(tmp_path), "static-rf", "--p-circuit", value]) == 2
    assert "p_circuit" in capsys.readouterr().err
    assert not (tmp_path / "static_rf_curve.csv").exists()


@pytest.mark.parametrize(
    "command",
    [["static-rf", "--lam", "nan"], ["radius", "--lambdas", "nan"], ["radius", "--lambdas", "inf"]],
    ids=["static-rf-nan", "radius-nan", "radius-inf"],
)
def test_cli_non_finite_density_exit_2(tmp_path, capsys, command):
    assert main(["--out", str(tmp_path), *command]) == 2
    assert "density lam must be finite and positive" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_cli_radius_non_finite_battery_exit_2(tmp_path, capsys):
    cfg = tmp_path / "nan.cfg"
    cfg.write_text("[energy]\nbattery_j = nan\n")
    argv = ["--config", str(cfg), "--out", str(tmp_path), "radius", "--lambdas", "0.1"]
    assert main(argv) == 2
    assert "battery_j" in capsys.readouterr().err
    assert not (tmp_path / "radius_grid.csv").exists()


@pytest.mark.parametrize("hours", ["inf", "nan", "0"])
def test_cli_schedule_bad_horizon_exit_code(tmp_path, capsys, hours):
    argv = ["--out", str(tmp_path), "schedule", "--horizon-hours", hours]
    assert main(argv) == 2
    assert "horizon and slot must be finite and positive" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["slot_seconds = inf", "slot_seconds = 1e14", "start_hours = inf"])
def test_cli_schedule_bad_time_axis_config_exit_code(tmp_path, capsys, line):
    cfg = tmp_path / "axis.cfg"
    cfg.write_text(f"[scenario]\n{line}\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path), "schedule"]) == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "schedule_smgd.csv").exists()


@pytest.mark.parametrize(
    "config, named",
    [
        ("[environment]\nb = 0.3\neta_los = 1.0\neta_nlos = 20.0\n", "[environment] needs a"),
        ("[subregion A]\npattern = preset:E\n", "[subregion A] needs rect"),
        ("[radio]\ncarrier_hz = fast\n", "[radio] carrier_hz"),
        ("[radio]\ncarier_hz = 5e9\n", "[radio] has unknown key carier_hz"),
        ("[enrgy]\np_circuit = 2\n", "unknown section [enrgy]"),
    ],
    ids=["no-env-a", "no-rect", "bad-number", "unknown-key", "unknown-section"],
)
def test_cli_config_errors_exit_2_naming_the_key(tmp_path, capsys, config, named):
    cfg = tmp_path / "f.ini"
    cfg.write_text(config)
    assert main(["--config", str(cfg), "--out", str(tmp_path), "altitude"]) == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("slot", ["500", "-1"])
def test_cli_sampling_slot_out_of_range(tmp_path, capsys, slot):
    # the reference day has 144 slots: an index past the end and a
    # negative one are both validation errors, not an IndexError or the
    # last slot
    argv = ["--out", str(tmp_path), "sampling", "--dphi-max", "10", "--d", "1000",
            "--delta", "0.05", "--at-slot", slot]
    assert main(argv) == 2
    assert "0..143" in capsys.readouterr().err
    assert not (tmp_path / "sampling_numbers.csv").exists()


@pytest.mark.parametrize(
    "flag, value, field",
    [
        (flag, value, field)
        for flag, field in [
            ("--d", "hypothesis_volume"),
            ("--delta", "confidence_delta"),
            ("--xi-max", "max_training_error"),
            ("--dphi-max", "max_rf_increment"),
        ]
        for value in ("nan", "inf")
    ],
)
def test_cli_sampling_non_finite_budget_exit_2(tmp_path, capsys, flag, value, field):
    args = {"--dphi-max": "10", "--d": "1000", "--delta": "0.05", flag: value}
    argv = ["--out", str(tmp_path), "sampling", *(x for kv in args.items() for x in kv)]
    assert main(argv) == 2
    assert f"{field} must be finite" in capsys.readouterr().err
    assert not (tmp_path / "sampling_numbers.csv").exists()


@pytest.mark.parametrize("command", ["pattern", "schedule"])
def test_cli_non_finite_pattern_file_exit_2(tmp_path, capsys, command):
    (tmp_path / "nan.pat").write_text("gamma_r nan\n4 0.5 0.3\n")
    cfg = tmp_path / "sc.cfg"
    cfg.write_text(
        "[subregion A]\nrect = 0 0 1000 1000\npattern = file:nan.pat\n"
        "density_band = 1e-7 1e-6\n"
    )
    argv = {
        "pattern": ["--out", str(tmp_path), "pattern", "--pattern-file", str(tmp_path / "nan.pat")],
        "schedule": ["--config", str(cfg), "--out", str(tmp_path), "schedule"],
    }[command]
    assert main(argv) == 2
    assert "line 1: gamma_r must be finite" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_cli_sampling_last_slot_ok(tmp_path):
    argv = ["--out", str(tmp_path), "sampling", "--dphi-max", "10", "--d", "1000",
            "--delta", "0.05", "--at-slot", "143"]
    assert main(argv) == 0
    assert (tmp_path / "sampling_numbers.csv").exists()


def test_cli_env_override(tmp_path, capsys):
    code = main(["--out", str(tmp_path), "--env", "suburban", "altitude"])
    assert code == 0
    assert "suburban" in capsys.readouterr().out


def _summary_rf(out):
    (line,) = [line for line in out.splitlines() if "avg_dynamic_rf=" in line]
    return line.split("avg_dynamic_rf=")[1].split()[0]


def test_cli_env_override_reaches_reference_scenario(tmp_path, capsys):
    # the multi-slot commands start from the reference day; --env must
    # still apply to it
    rf = {}
    for env in ("urban", "suburban"):
        argv = ["--out", str(tmp_path), "--env", env, "schedule", "--horizon-hours", "2"]
        assert main(argv) == 0
        rf[env] = _summary_rf(capsys.readouterr().out)
    assert rf["urban"] != rf["suburban"]
    assert main(["--out", str(tmp_path), "schedule", "--horizon-hours", "2"]) == 0
    assert _summary_rf(capsys.readouterr().out) == rf["urban"]  # the reference day is urban


def test_cli_scenario_roundtrip_via_file(tmp_path):
    sc = reference_scenario(seed=31415)
    cfg = tmp_path / "sc.cfg"
    cfg.write_text(dump_scenario(sc))
    code = main(["--config", str(cfg), "--out", str(tmp_path), "compare", "--pm", "1.5"])
    assert code == 0


def test_fig8_reduction_band(tmp_path):
    # the greedy's saving against the worse baseline stays in a wide
    # qualitative band across the mobility-power grid
    (path,) = run_policy_comparison(reference_scenario(), str(tmp_path))
    rows = [line.split(",") for line in read(path).strip().splitlines()[1:]]
    smgd_reductions = [float(r[5]) for r in rows if r[0] == "smgd"]
    assert len(smgd_reductions) == 3
    for reduction in smgd_reductions:
        assert 0.07 <= reduction <= 0.96


def test_cli_schedule_positions_dump(tmp_path):
    code = main(
        ["--out", str(tmp_path), "schedule", "--method", "lazy", "--positions"]
    )
    assert code == 0
    lines = read(str(tmp_path / "deployment_initial.csv")).strip().splitlines()
    assert lines[0] == "subregion,x,y,z,radius"
    rows = [line.split(",") for line in lines[1:]]
    for label, x, y, z, radius in rows:
        assert label in ("E", "R")
        assert float(radius) > 0 and float(z) > 0
    # one row per UAV of the first epoch, each with its subregion's radius
    schedule = read(str(tmp_path / "schedule_lazy.csv")).splitlines()[1:]
    epochs = [line.split(",") for line in schedule]
    first = [e for e in epochs if e[0] == epochs[0][0]]
    assert {e[1] for e in first} == {"E", "R"}
    for _, label, radius, _, count, _ in first:
        mine = [row for row in rows if row[0] == label]
        assert len(mine) == int(count)
        assert all(row[4] == radius for row in mine)
    assert len(rows) == sum(int(e[4]) for e in first)


# sha256 of the CSVs these commands write; the bytes of each file are
# part of the command line's contract
CLI_CSV_DIGESTS = [
    (
        ["schedule", "--method", "smgd", "--pm", "1.5", "--positions"],
        {
            "schedule_smgd.csv": "7920526795138a2dd95fcfa97a090c35d84450e6b7f7fed19ebbac9589eafccd",
            "deployment_initial.csv":
                "13d168d06e70f916ab63dc36c267ba5a1afd40d30f49b7a3a889c09605e0ba73",
        },
    ),
    (["altitude"], {"altitude_curve.csv": "bbc488d20c7dc1fd87e42c02445e827077bf66bb0773a24ffd2d33fc24da6c83"}),
    (
        ["--env", "suburban", "altitude"],
        {"altitude_curve.csv": "ddcb817794910c7c905b5014e35cad0920a2fe21a023eaf113d48eb0ac7e7991"},
    ),
    (
        ["static-rf", "--lam", "0.1", "--p-circuit", "0.5"],
        {"static_rf_curve.csv": "c97effc8168eef74014d13eea543a664bd7615c58b570127862011c311aaae74"},
    ),
    (
        ["radius", "--lambdas", "0.1", "1", "5", "--p-circuit", "0.5", "5", "50"],
        {"radius_grid.csv": "08352608c7983162e7c7678bd2e586289f3580bc0d0b44d884c8b4b071595d1b"},
    ),
    (
        ["figure", "fig10"],
        {
            "fig10_rf_increment_mc.csv":
                "43d4100a5f193824bbd8698d6e44b2dbecace049d4a912e25cfc63c5f86161b5",
            "fig10_sampling_numbers.csv":
                "39da78dc4971cda69c556cce10ea77e1b7930925863b4369beb1dfb3aade92fe",
        },
    ),
    (
        ["pattern", "--label", "E", "--week"],
        {"pattern_E.csv": "9e8972dfd0f7508611164fcf1a2961e56568455f13175754a003988e8c0d6084"},
    ),
    (
        ["pattern", "--label", "C"],
        {"pattern_C.csv": "a6cb241836a33861c570725772271322e22e5afb1567fbf0e9db9ac2be5fe7af"},
    ),
    (
        ["compare", "--pm", "0", "0.2", "3", "20"],
        {
            "fig8_policy_comparison.csv":
                "5fa194929b44604d26e36fbeb1cc427c09683f60611755321f6bf0e5790c0d05",
        },
    ),
]


@pytest.mark.parametrize(
    "command, digests", CLI_CSV_DIGESTS, ids=[c[0] for c, _ in CLI_CSV_DIGESTS]
)
def test_cli_csv_bytes(tmp_path, command, digests):
    assert main(["--out", str(tmp_path), *command]) == 0
    written = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in tmp_path.glob("*.csv")
    }
    assert written == digests


# SMGD on one shared plan per pm sweep (fig7) and on a fresh plan per start
# (fig9); kept apart from CLI_CSV_DIGESTS, whose ids are the command words,
# so that the fig10 entry keeps its id
SMGD_FIGURE_DIGESTS = {
    "fig7": {"fig7_update_epochs.csv": "f5411abb4797dc7295df10f49e8782b984b7b50f720078a6a3b0c0c7a149f335"},
    "fig9": {"fig9_start_time_sweep.csv": "6b13d39ae0bc8d319d881a97e75793387819d89ffc81bee2d0ab338f606e870d"},
}


@pytest.mark.parametrize("figure", sorted(SMGD_FIGURE_DIGESTS))
def test_cli_smgd_figure_csv_bytes(tmp_path, figure):
    test_cli_csv_bytes(tmp_path, ["figure", figure], SMGD_FIGURE_DIGESTS[figure])


# the paper-density day's lazy schedule holds 120 UAVs over E, then 144
# over R: a label or radius given to the wrong position rows changes the
# bytes of deployment_initial.csv, which one UAV per zone would not show
PAPER_DAY_LAZY_DIGESTS = {
    "schedule_lazy.csv": "50174ded3e835a3fcd325fe0b179a50f0e050af967d5132d7c8480e22aee81b2",
    "deployment_initial.csv": "367f05fa72065ebef20b611b9eb8b1f8d289351a69186106d498f1b58af735bf",
}


def test_cli_paper_day_lazy_positions_bytes(tmp_path):
    command = ["--config", os.path.join(DATA, "paper_day.cfg"), "schedule", "--method", "lazy"]
    test_cli_csv_bytes(tmp_path, [*command, "--positions"], PAPER_DAY_LAZY_DIGESTS)
    rows = (tmp_path / "deployment_initial.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["E"] * 120 + ["R"] * 144


def test_cli_pattern_file_writes_the_file_pattern(tmp_path):
    # a dumped preset read back through --pattern-file: one row per sample
    # of the parsed pattern, the CSV named after the file
    text = dump_pattern(pattern_preset("E"))
    (tmp_path / "e.pat").write_text(text)
    assert main(["--out", str(tmp_path), "pattern", "--pattern-file", str(tmp_path / "e.pat")]) == 0
    pattern = parse_pattern_file(text)
    x = reconstruct_series(pattern, range(pattern.n_samples))
    lines = (tmp_path / "pattern_e.pat.csv").read_text().splitlines()
    assert lines[0] == "n,t_seconds,traffic,density_per_m2"
    assert [line.split(",")[:3] for line in lines[1:]] == [
        [str(i), format(i * pattern.sample_period, ".12g"), format(v, ".12g")]
        for i, v in enumerate(x.tolist())
    ]


def test_cli_pattern_file_error_names_the_line(tmp_path, capsys):
    pattern = tmp_path / "zero.pat"
    pattern.write_text("gamma_r 1.0\nN 0\n4 0.5 0.3\n")
    assert main(["--out", str(tmp_path), "pattern", "--pattern-file", str(pattern)]) == 2
    assert "line 2: N must be finite and positive" in capsys.readouterr().err


_NON_REAL_DC = "gamma_r 8.35e11\n0 3.24e-4 0.5\n28 0.5 2.36\n"


def test_cli_pattern_file_non_real_dc_is_a_validation_error(tmp_path, capsys):
    # a DC phase of 0.5 would make every reconstruction complex: the file
    # is rejected where it is read, naming the line, not later as exit 3
    pattern = tmp_path / "dc.pat"
    pattern.write_text(_NON_REAL_DC)
    assert main(["--out", str(tmp_path), "pattern", "--pattern-file", str(pattern)]) == 2
    assert "line 2: coefficient 0 is its own mirror and must be real" in capsys.readouterr().err


def test_cli_scenario_non_real_dc_names_section_and_file(tmp_path, capsys):
    (tmp_path / "dc.pat").write_text(_NON_REAL_DC)
    cfg = tmp_path / "dc.cfg"
    cfg.write_text("[subregion A]\nrect = 0 0 1000 1000\npattern = file:dc.pat\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path), "schedule"]) == 2
    err = capsys.readouterr().err
    assert "[subregion A] pattern 'file:dc.pat': pattern file line 2: coefficient 0" in err
    assert "dc.cfg" in err


def test_cli_schedule_zero_explicit_density_names_its_source(tmp_path, capsys):
    cfg = tmp_path / "zero.cfg"
    cfg.write_text("[subregion A]\nrect = 0 0 1000 1000\ndensities = 0.0 2e-6\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path), "schedule"]) == 2
    err = capsys.readouterr().err
    assert "subregion 'A' has 0.0 at slot 0, from its explicit densities" in err
    assert "use a density band" not in err  # bands do not apply over explicit densities
