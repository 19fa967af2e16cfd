"""Multi-slot placement updating: greedy epochs versus the baselines.

Runs the reference two-zone day at three mobility powers.  With cheap
mobility the greedy re-optimizes at every density change; with costly
mobility it holds the initial placement; in between it alternates lazy
and diligent stretches.  Its average never exceeds either baseline.
Only the move energies depend on the mobility power, so every call
shares one plan: densities, radii and deployments are computed once for
the whole sweep, and the plan's memory grows linearly with the horizon.
"""

from uavrf import SchedulePlan, baseline_schedule, reference_scenario, smgd_schedule

scenario = reference_scenario()
plan = SchedulePlan(scenario)

for pm in (0.05, 1.5, 50.0):
    sc = scenario.with_mobility_power(pm)
    greedy = smgd_schedule(sc, plan=plan)
    lazy = baseline_schedule("lazy", sc, plan=plan)
    diligent = baseline_schedule("diligent", sc, plan=plan)
    print(f"mobility power {pm:5.2f} W:")
    print(f"  greedy   : {greedy.avg_dynamic_rf:.6e} /s, {greedy.update_count:3d} updates, "
          f"{greedy.mobility_total_j:9.1f} J moved")
    print(f"  lazy     : {lazy.avg_dynamic_rf:.6e} /s")
    print(f"  diligent : {diligent.avg_dynamic_rf:.6e} /s, "
          f"{diligent.mobility_total_j:9.1f} J moved")
    saving = 1 - greedy.avg_dynamic_rf / max(lazy.avg_dynamic_rf, diligent.avg_dynamic_rf)
    print(f"  -> greedy saves {saving:.1%} against the worse baseline")

print("update instants at 1.5 W (hours):")
sched = smgd_schedule(scenario.with_mobility_power(1.5), plan=plan)
hours = [round(k * sched.slot_s / 3600.0, 2)
         for k, changed in zip(sched.update_slots, sched.changed) if changed]
print(f"  {hours}")
