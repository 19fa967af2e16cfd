"""The benchmark's workloads: inputs drawn from a seed, the timed
operations, and the checks on their outputs.

Each workload object is built once per repetition (its set-up), runs
its operations once (the timed region), and then checks every output.
Only public ``uavrf`` functions are called, and always through their
module attribute, so that the wrappers of a traced run see them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import traceback
from pathlib import Path

import numpy as np

import uavrf
from uavrf import experiments, placement, scheduling

HERE = Path(__file__).resolve().parent
GOLDEN_FIG6 = HERE.parent / "tests" / "data" / "golden_fig6.csv"
DIGESTS = HERE / "digests.json"

DAYS = 28                  # the pattern record is 4 weeks of 10-minute samples
DAY_S = 86400.0
RAMP_START_S = 9 * 3600.0  # 09:00, when paper-density fleets grow every slot
RAMP_SLOTS = 2
PAPER_BAND = (0.1, 1.0)    # users/m^2, the paper's density range
ENV_DRAWS = 50
CURVE_H1 = np.linspace(0.0, 3.0, 301)  # the curve `uavrf altitude` writes
OPTIMUM_PROBE = 0.01


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _error():
    return traceback.format_exc(limit=3).strip().splitlines()[-1]


def recorded_digests(workload, key):
    """CSV digests recorded for these inputs, or None if never recorded."""
    if not DIGESTS.is_file():
        return None
    with open(DIGESTS) as fh:
        return json.load(fh).get(workload, {}).get(key)


def _digest_error(csv_digests, expected):
    if expected is None:
        return None
    if set(csv_digests) != set(expected):
        return f"wrote {sorted(csv_digests)}, expected {sorted(expected)}"
    for name, digest in csv_digests.items():
        if digest != expected[name]:
            return f"{name} sha256 {digest[:12]} differs from the recorded {expected[name][:12]}"
    return None


class PolicyComparison:
    """``run_policy_comparison`` (SMGD, lazy, diligent over the pm grid).

    The schedules are captured where ``experiments`` calls the
    schedulers, so that each can be checked against the baselines and
    against an independent ``dynamic_rf`` reassembly.
    """

    def __init__(self, name, scenario, key, inputs):
        self.name = name
        self.scenario = scenario
        self.key = key
        self.inputs = inputs
        self.schedules = []  # (pm, scenario the scheduler saw, Schedule)
        self.error = None
        for attr in ("smgd_schedule", "baseline_schedule"):
            self._capture(attr)

    def _capture(self, attr):
        fn = getattr(experiments, attr)

        def captured(*args, **kwargs):
            result = fn(*args, **kwargs)
            sc = args[-1]
            self.schedules.append((sc.energy.p_horizontal, sc, result))
            return result

        setattr(experiments, attr, captured)

    def run(self, out_dir, span):
        try:
            with span("experiments.run_policy_comparison"):
                experiments.run_policy_comparison(self.scenario, str(out_dir))
        except Exception:
            self.error = _error()

    @property
    def rf(self):
        smgd = [s.avg_dynamic_rf for _, _, s in self.schedules if s.method == "smgd"]
        return float(np.mean(smgd)) if smgd else 0.0

    def check(self, csv_digests):
        ops = []
        for pm in experiments.MOBILITY_POWER_GRID:
            ops.append((f"policies pm={pm:g}", self.error or self._check_pm(pm)))
        csv_error = self.error or _digest_error(csv_digests, recorded_digests(self.name, self.key))
        if csv_error is None and list(csv_digests) != ["fig8_policy_comparison.csv"]:
            csv_error = f"expected one fig8 CSV, wrote {sorted(csv_digests)}"
        ops.append(("fig8 csv", csv_error))
        return ops

    def _check_pm(self, pm):
        runs = {s.method: (sc, s) for p, sc, s in self.schedules if p == pm}
        if set(runs) != {"smgd", "lazy", "diligent"}:
            return f"schedulers seen at pm={pm:g}: {sorted(runs)}"
        best_baseline = min(runs["lazy"][1].avg_dynamic_rf, runs["diligent"][1].avg_dynamic_rf)
        if runs["smgd"][1].avg_dynamic_rf > best_baseline * (1.0 + 1e-12):
            return f"smgd {runs['smgd'][1].avg_dynamic_rf!r} exceeds min(lazy, diligent) {best_baseline!r}"
        for method, (sc, sched) in runs.items():
            again = scheduling.dynamic_rf(sched, sc)
            if abs(again - sched.avg_dynamic_rf) > 1e-9 * abs(sched.avg_dynamic_rf):
                return f"{method}: dynamic_rf {again!r} != avg_dynamic_rf {sched.avg_dynamic_rf!r}"
        return None


def ref_2week(seed):
    """Reference scenario over two weeks from 00:00 of day ``7 * (seed % 4)``.

    The four start days share a weekday.  The weekday a window starts on
    moves the scheduling work by a quarter (40,040 to 50,206 pair solves
    over the pm grid); windows that start on the same weekday do the same
    work to within 5 pair solves.
    """
    day = 7 * (seed % (DAYS // 7))
    sc = dataclasses.replace(
        uavrf.reference_scenario(), horizon_s=14 * DAY_S, start_s=day * DAY_S
    )
    return PolicyComparison("ref-2week", sc, f"day={day}", {"start_day": day})


def paper_ramp(seed):
    """Paper density, two slots from 09:00, depot placed by the seed.

    The start day is one of the four that share day 0's weekday.  The
    pattern repeats weekly, and the weekday sets the fleet sizes and with
    them the lattice-search work: the 09:00 hour sums 1,430 to 2,549 UAVs
    of cold lattice search depending on the weekday.  The depot position
    varies the assignment costs and the schedules instead, without
    changing the fleet sizes.
    """
    rng = np.random.default_rng(seed)
    day = 7 * int(rng.integers(DAYS // 7))
    base = uavrf.reference_scenario()
    b = base.bounds
    depot = (
        float(b.x + rng.integers(int(b.width) + 1)),
        float(b.y + rng.integers(int(b.height) + 1)),
        0.0,
    )
    sc = dataclasses.replace(
        base,
        density_bands=(PAPER_BAND,) * len(base.subregions),
        horizon_s=RAMP_SLOTS * base.slot_s,
        start_s=day * DAY_S + RAMP_START_S,
        rsc_position=depot,
    )
    return PolicyComparison(
        "paper-ramp", sc, f"seed={seed}", {"start_day": day, "depot_xy": list(depot[:2])}
    )


class SingleSlot:
    """fig4/5/6/10 on the default scenario, then per drawn environment a
    cold h1* search, the 301-point P1 curve and the minimal static RF.

    The figures use the default scenario and its own seed, so their CSVs
    do not depend on ``--seed``; the seed draws the environments.
    """

    name = "single-slot"
    key = "default"
    FIGURES = {
        "fig4": "run_altitude_curves",
        "fig5": "run_rf_vs_radius",
        "fig6": "run_density_placements",
        "fig10": "run_learning_study",
    }

    def __init__(self, seed):
        # Latin-hypercube draws over the box spanned by the three presets:
        # each constant's range is cut into ENV_DRAWS strata and each
        # stratum is used once, so the set of environments, and with it
        # the quadrature work and the mean RF, changes little with the seed.
        rng = np.random.default_rng(seed)
        presets = [uavrf.URBAN, uavrf.DENSE_URBAN, uavrf.SUBURBAN]
        draws = {}
        for f in ("a", "b", "eta_los", "eta_nlos"):
            lo = min(getattr(e, f) for e in presets)
            hi = max(getattr(e, f) for e in presets)
            strata = (rng.permutation(ENV_DRAWS) + rng.uniform(size=ENV_DRAWS)) / ENV_DRAWS
            draws[f] = lo + (hi - lo) * strata
        self.envs = [
            uavrf.Environment(**{f: float(v[i]) for f, v in draws.items()}, name=f"draw{i}")
            for i in range(ENV_DRAWS)
        ]
        self.scenario = uavrf.default_scenario()
        self.inputs = {"environments": ENV_DRAWS}
        self.errors = {}
        self.results = []  # (env, h1*, curve, phi*)

    def run(self, out_dir, span):
        sc = self.scenario
        for fig, runner in self.FIGURES.items():
            try:
                with span(f"experiments.{runner}"):
                    getattr(experiments, runner)(sc, str(out_dir))
            except Exception:
                self.errors[fig] = _error()
        area = sc.subregions[0].area
        for env in self.envs:
            try:
                h1 = placement.optimal_altitude_ratio(env)
                curve = [placement.normalized_tx_power(h, env, sc.radio) for h in CURVE_H1]
                phi, _ = placement.min_static_rf(1.0, sc.energy, area, env, sc.radio)
                self.results.append((env, h1, curve, phi))
            except Exception:
                self.errors[env.name] = _error()

    @property
    def rf(self):
        return float(np.mean([r[3] for r in self.results])) if self.results else 0.0

    def check(self, csv_digests):
        expected = recorded_digests(self.name, self.key) or {}
        ops = []
        for fig in self.FIGURES:
            prefix = fig + "_"
            mine = {k: v for k, v in csv_digests.items() if k.startswith(prefix)}
            error = self.errors.get(fig)
            if error is None and not mine:
                error = f"{fig} wrote no CSV"
            if error is None:
                error = _digest_error(
                    mine, {k: v for k, v in expected.items() if k.startswith(prefix)} or None
                )
            if error is None and fig == "fig6":
                if mine["fig6_density_placements.csv"] != sha256(GOLDEN_FIG6):
                    error = "fig6 CSV differs from tests/data/golden_fig6.csv"
            ops.append((fig, error))
        done = {r[0].name: r for r in self.results}
        sc = self.scenario
        for env in self.envs:
            error = self.errors.get(env.name)
            if error is None:
                _, h1, curve, phi = done[env.name]
                p_star = placement.normalized_tx_power(h1, env, sc.radio)
                for h in (max(0.0, h1 - OPTIMUM_PROBE), h1 + OPTIMUM_PROBE):
                    if placement.normalized_tx_power(h, env, sc.radio) < p_star:
                        error = f"P1({h:.5f}) < P1(h1*={h1:.5f})"
                if not (np.all(np.isfinite(curve)) and np.isfinite(phi) and phi > 0):
                    error = "non-finite P1 curve or minimal RF"
            ops.append((env.name, error))
        return ops


WORKLOADS = {
    "ref-2week": ref_2week,
    "paper-ramp": paper_ramp,
    "single-slot": SingleSlot,
}
