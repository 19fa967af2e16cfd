import filecmp
import os

import numpy as np
import pytest

from uavrf.cli import main
from uavrf.experiments import run_figure, run_policy_comparison, write_csv
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


def test_cli_numerical_exit_code(tmp_path):
    # flat excess loss: the altitude search has no interior optimum
    cfg = tmp_path / "flat.cfg"
    cfg.write_text(
        "[scenario]\nname = flat\n\n[environment]\n"
        "a = 1.0\nb = 1.0\neta_los = 1.0\neta_nlos = 1.0\n"
    )
    code = main(["--config", str(cfg), "--out", str(tmp_path), "altitude"])
    assert code == 3


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
    assert len(lines) >= 3  # header plus one UAV per subregion
    for line in lines[1:]:
        label, x, y, z, radius = line.split(",")
        assert label in ("E", "R")
        assert float(radius) > 0 and float(z) > 0
