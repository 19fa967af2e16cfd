"""Where a traced run wraps ``uavrf``, and the per-layer metrics it yields.

Span names are ``<module>.<function>``, named after the ``src/uavrf``
module that defines the function; the wrapper sits in the namespace of
the module that calls it.
"""

from __future__ import annotations

import os

from uavrf import channel, experiments, layout, placement, scenario, scheduling

MODULES = {
    "channel": channel,
    "experiments": experiments,
    "layout": layout,
    "placement": placement,
    "scenario": scenario,
    "scheduling": scheduling,
}

# (calling module, function, span name, note kept per call)
SPANS = (
    ("scheduling", "build_deployment", "layout.build_deployment", None),
    ("layout", "layout_positions", "layout.layout_positions",
     lambda a, k, r: (a[0].width, a[0].height, a[1])),
    ("scheduling", "mobility_energy_at", "scheduling.mobility_energy_at", None),
    ("scheduling", "cost_matrix", "scheduling.cost_matrix", None),
    ("scheduling", "solve_assignment", "scheduling.solve_assignment", lambda a, k, r: len(a[0])),
    ("experiments", "smgd_schedule", "scheduling.smgd",
     lambda a, k, r: (r.candidate_evaluations, r.update_count)),
    ("experiments", "baseline_schedule", "scheduling.baseline", None),
    ("scheduling", "slot_densities", "scenario.slot_densities", None),
    ("scenario", "reconstruct_series", "patterns.reconstruct_series", None),
    ("placement", "adaptive_simpson", "quadrature.adaptive_simpson", None),
    ("experiments", "optimal_altitude_ratio", "placement.optimal_altitude_ratio", None),
    ("scheduling", "optimal_altitude_ratio", "placement.optimal_altitude_ratio", None),
    ("placement", "optimal_altitude_ratio", "placement.optimal_altitude_ratio", None),
    ("experiments", "normalized_tx_power", "placement.normalized_tx_power", None),
    ("placement", "normalized_tx_power", "placement.normalized_tx_power", None),
    ("experiments", "rf_increment_exact_samples", "sampling.rf_increment_exact_samples", None),
    ("experiments", "write_csv", "experiments.write_csv", lambda a, k, r: os.path.getsize(r)),
)

# Called too often to time each call: counted only.
COUNTS = (
    ("placement", "los_probability", "channel.los_probability"),
    ("channel", "los_probability", "channel.los_probability"),
    ("experiments", "subregion_eigenvalue", "sampling.subregion_eigenvalue"),
)

LAYERS = ("layout", "scheduling", "quadrature", "placement", "sampling",
          "scenario", "patterns", "experiments")


def instrument(tracer):
    for module, attr, name, note in SPANS:
        tracer.wrap(MODULES[module], attr, name, note)
    for module, attr, name in COUNTS:
        tracer.count(MODULES[module], attr, name)


def metrics(tracer, run_s):
    """Flat per-layer metrics of one traced repetition."""
    out = {}
    summary = tracer.summary()
    for name, row in summary.items():
        for field, value in row.items():
            out[f"{name}.{field}"] = value
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            row["self_s"] for name, row in summary.items() if name.startswith(layer + ".")
        )
    out.update({f"{name}.calls": n for name, n in tracer.counts.items()})

    notes = tracer.notes
    layouts = notes["layout.layout_positions"]
    out["layout.distinct_counts"] = len(set(layouts))
    out["layout.max_count"] = max((c for _, _, c in layouts), default=0)
    sizes = notes["scheduling.solve_assignment"]
    out["scheduling.assign_n.mean"] = sum(sizes) / len(sizes) if sizes else 0.0
    out["scheduling.assign_n.max"] = max(sizes, default=0)
    smgd = notes["scheduling.smgd"]
    evaluations = sum(e for e, _ in smgd)
    out["scheduling.candidate_evaluations"] = evaluations
    out["scheduling.updates"] = sum(u for _, u in smgd)
    pair_solves = summary.get("scheduling.mobility_energy_at", {}).get("calls", 0)
    out["scheduling.pair_solve_ratio"] = pair_solves / evaluations if evaluations else 0.0
    out["experiments.write_csv.bytes"] = sum(notes["experiments.write_csv"])

    roots = sum(end - start for _, start, end, parent in tracer.spans if parent < 0)
    out["trace.unattributed_s"] = run_s - roots
    out["trace.spans"] = len(tracer.spans)
    out["trace.run_s"] = run_s
    return out
