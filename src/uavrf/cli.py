"""Command-line front end.

Subcommands map one-to-one onto the library's main capabilities:

  altitude   optimal altitude ratio and the normalized-power curve
  radius     optimal radius / altitude / minimal RF over a (lambda, P_cu) grid
  static-rf  static recall frequency versus radius for one configuration
  pattern    reconstructed traffic and density of a subregion pattern
  schedule   multi-slot updating with one of the three policies
  sampling   per-subregion sampling numbers under an inflation cap
  figure     one of the named experiment runners (fig4 .. fig10)
  compare    the three policies side by side across mobility powers

Exit codes: 0 success, 2 configuration/validation error, 3 numerical
failure (any ArithmeticError: a quadrature or search that does not converge).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from .channel import environment_preset
from .experiments import (
    FIGURES,
    MOBILITY_POWER_GRID,
    _epoch_rows,
    _static_rf_curve,
    run_figure,
    run_policy_comparison,
    write_csv,
)
from .layout import num_uavs
from .patterns import pattern_preset, reconstruct_series, parse_pattern_file
from .placement import (
    min_static_rf,
    normalized_tx_power,
    optimal_altitude_ratio,
    optimal_normalized_power,
)
from .sampling import LearningBudget, min_sampling_numbers, subregion_eigenvalue
from .scenario import (
    ScenarioError,
    default_scenario,
    load_scenario,
    reference_scenario,
    slot_densities,
)
from .scheduling import baseline_schedule, smgd_schedule

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


def _load(args) -> "Scenario":
    """The ``--config`` file, else the reference day for the multi-slot
    commands and the default scenario for the others; then ``--env`` and
    ``--seed`` apply to whichever was picked."""
    if args.config:
        scenario = load_scenario(args.config)
    elif args.command in ("schedule", "sampling", "compare") or (
        args.command == "figure" and args.name in ("fig7", "fig8", "fig9")
    ):
        scenario = reference_scenario()
    else:
        scenario = default_scenario()
    if args.env:
        scenario = dataclasses.replace(scenario, env=environment_preset(args.env))
    if args.seed is not None:
        scenario = dataclasses.replace(scenario, seed=args.seed)
    return scenario


def _cmd_altitude(args) -> int:
    scenario = _load(args)
    env, radio = scenario.env, scenario.radio
    h1_star = optimal_altitude_ratio(env)
    rows = []
    for h1 in np.linspace(0.0, 3.0, 301):
        rows.append((env.name, h1, normalized_tx_power(h1, env, radio)))
    path = write_csv(
        os.path.join(args.out, "altitude_curve.csv"),
        ("environment", "h1", "normalized_tx_power_w"),
        rows,
    )
    print(f"environment={env.name} h1_star={h1_star:.6f} "
          f"p1_star={optimal_normalized_power(env, radio):.6e} W")
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_radius(args) -> int:
    scenario = _load(args)
    env, radio = scenario.env, scenario.radio
    area = scenario.subregions[0].area
    rows = []
    for lam in args.lambdas:
        for p_cu in args.p_circuit:
            energy = dataclasses.replace(scenario.energy, p_circuit=p_cu)
            phi, placement = min_static_rf(lam, energy, area, env, radio)
            rows.append(
                (lam, p_cu, placement.radius, placement.altitude,
                 num_uavs(area, placement.radius), phi)
            )
    path = write_csv(
        os.path.join(args.out, "radius_grid.csv"),
        ("lambda_per_m2", "p_circuit_w", "radius_m", "altitude_m", "count", "min_static_rf"),
        rows,
    )
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_static_rf(args) -> int:
    curve = _static_rf_curve(_load(args), args.lam, args.p_circuit, 161)
    rows = [(args.lam, *row) for row in curve]
    r_star = next(radius for _, radius, _, is_optimal in rows if is_optimal)
    path = write_csv(
        os.path.join(args.out, "static_rf_curve.csv"),
        ("lambda_per_m2", "radius_m", "static_rf", "is_optimal"),
        rows,
    )
    print(f"r_star={r_star:.6g} m; wrote {path}")
    return EXIT_OK


def _cmd_pattern(args) -> int:
    scenario = _load(args)
    if args.pattern_file:
        with open(args.pattern_file) as fh:
            pattern = parse_pattern_file(fh.read())
        label = os.path.basename(args.pattern_file)
    else:
        pattern = pattern_preset(args.label)
        label = args.label
    n = pattern.week_samples() if args.week else pattern.n_samples
    x = reconstruct_series(pattern, range(n))
    radio = scenario.radio
    rows = [
        (i, i * pattern.sample_period, x[i], x[i] / (radio.rate_bps * radio.bs_coverage_area))
        for i in range(n)
    ]
    path = write_csv(
        os.path.join(args.out, f"pattern_{label}.csv"),
        ("n", "t_seconds", "traffic", "density_per_m2"),
        rows,
    )
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_schedule(args) -> int:
    scenario = _load(args)
    if args.horizon_hours is not None:
        scenario = dataclasses.replace(scenario, horizon_s=args.horizon_hours * 3600.0)
    if args.pm is not None:
        scenario = scenario.with_mobility_power(args.pm)
    if args.method == "smgd":
        sched = smgd_schedule(scenario)
    else:
        sched = baseline_schedule(args.method, scenario)
    path = write_csv(
        os.path.join(args.out, f"schedule_{args.method}.csv"),
        ("tau_seconds", "subregion", "radius", "altitude", "count", "mobility_joules"),
        _epoch_rows(sched),
    )
    if args.positions:
        dep = sched.deployments[0]
        # zone i's label and radius for each of its counts[i] position rows
        zones = [
            (label, radius)
            for label, radius, count in zip(dep.labels, dep.radii, dep.counts)
            for _ in range(count)
        ]
        dep_path = write_csv(
            os.path.join(args.out, "deployment_initial.csv"),
            ("subregion", "x", "y", "z", "radius"),
            ((label, x, y, z, radius) for (label, radius), (x, y, z) in zip(zones, dep.positions)),
        )
        print(f"wrote {dep_path}")
    print(
        f"method={args.method} updates={sched.update_count} "
        f"avg_dynamic_rf={sched.avg_dynamic_rf:.12g} 1/s "
        f"mobility={sched.mobility_total_j:.12g} J"
    )
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_sampling(args) -> int:
    scenario = _load(args)
    densities = slot_densities(scenario)
    n = densities.shape[1]
    if not 0 <= args.at_slot < n:
        raise ValueError(f"--at-slot must lie in 0..{n - 1}, got {args.at_slot}")
    lams = densities[:, args.at_slot]
    eigs = [
        subregion_eigenvalue(
            lam,
            scenario.energy.p_circuit,
            scenario.env,
            scenario.radio,
            sub.area,
            scenario.energy.battery_j,
        )
        for sub, lam in zip(scenario.subregions, lams)
    ]
    budget = LearningBudget(
        hypothesis_volume=args.d,
        confidence_delta=args.delta,
        max_training_error=args.xi_max,
        max_rf_increment=args.dphi_max,
    )
    alloc = min_sampling_numbers(eigs, budget)
    rows = [
        (sub.label, lam, eig, n, xi)
        for sub, lam, eig, n, xi in zip(
            scenario.subregions, lams, eigs, alloc.counts, alloc.xi_bounds
        )
    ]
    path = write_csv(
        os.path.join(args.out, "sampling_numbers.csv"),
        ("subregion", "lambda", "eigenvalue", "n_samples", "xi_bound"),
        rows,
    )
    print(f"omega={alloc.omega:.12g}; wrote {path}")
    return EXIT_OK


def _cmd_figure(args) -> int:
    scenario = _load(args)
    for path in run_figure(scenario, args.name, args.out):
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_compare(args) -> int:
    scenario = _load(args)
    pm_grid = args.pm if args.pm else list(MOBILITY_POWER_GRID)
    for path in run_policy_comparison(scenario, args.out, pm_grid):
        print(f"wrote {path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uavrf",
        description="energy-optimal aerial base station placement and update scheduling",
    )
    parser.add_argument("--config", help="scenario file (defaults documented in README)")
    parser.add_argument("--seed", type=int, help="override the scenario seed")
    parser.add_argument("--out", default="out", help="output directory for CSV artifacts")
    parser.add_argument(
        "--env",
        choices=["urban", "dense-urban", "suburban"],
        help="override the scenario environment",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("altitude", help="optimal altitude ratio and power curve")
    p.set_defaults(run=_cmd_altitude)

    p = sub.add_parser("radius", help="optimal radius over a (lambda, P_cu) grid")
    p.add_argument("--lambdas", type=float, nargs="+", default=[0.1, 1.0, 5.0])
    p.add_argument("--p-circuit", type=float, nargs="+", default=[0.5, 5.0, 50.0])
    p.set_defaults(run=_cmd_radius)

    p = sub.add_parser("static-rf", help="static recall frequency versus radius")
    p.add_argument("--lam", type=float, default=0.1, help="user density [1/m^2]")
    p.add_argument("--p-circuit", type=float, default=0.5)
    p.set_defaults(run=_cmd_static_rf)

    p = sub.add_parser("pattern", help="reconstruct a density pattern")
    p.add_argument("--label", default="E", help="preset class (E, R, T, O, C)")
    p.add_argument("--pattern-file", help="custom pattern file instead of a preset")
    p.add_argument("--week", action="store_true", help="emit one week instead of the full record")
    p.set_defaults(run=_cmd_pattern)

    p = sub.add_parser("schedule", help="multi-slot placement updating")
    p.add_argument("--method", choices=["smgd", "lazy", "diligent"], default="smgd")
    p.add_argument("--horizon-hours", type=float)
    p.add_argument("--pm", type=float, help="uniform mobility power [W]")
    p.add_argument(
        "--positions",
        action="store_true",
        help="also dump the initial deployment positions",
    )
    p.set_defaults(run=_cmd_schedule)

    p = sub.add_parser("sampling", help="minimal sampling numbers")
    p.add_argument("--dphi-max", type=float, required=True, dest="dphi_max")
    p.add_argument("--d", type=float, required=True, help="hypothesis volume")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--xi-max", type=float, default=0.0, dest="xi_max")
    p.add_argument("--at-slot", type=int, default=0, help="slot index for the densities")
    p.set_defaults(run=_cmd_sampling)

    p = sub.add_parser("figure", help="run a named experiment")
    p.add_argument("name", choices=list(FIGURES))
    p.set_defaults(run=_cmd_figure)

    p = sub.add_parser("compare", help="compare the three update policies")
    p.add_argument("--pm", type=float, nargs="*", help="mobility powers [W]")
    p.set_defaults(run=_cmd_compare)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (ScenarioError, ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ArithmeticError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
