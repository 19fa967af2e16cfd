"""Air-to-ground channel behavior and the optimal hovering altitude.

Walks through the building blocks: LOS probability versus elevation,
the two path-loss branches, and the normalized transmit power whose
minimizer fixes the altitude-to-radius ratio per environment.
"""

from uavrf import (
    RadioConfig,
    avg_path_loss,
    environment_preset,
    los_probability,
    normalized_tx_power,
    optimal_altitude_ratio,
    path_loss,
)

radio = RadioConfig()

print("LOS probability, urban, horizontal distance 100 m:")
urban = environment_preset("urban")
for h in (10, 50, 100, 200, 500):
    print(f"  altitude {h:4d} m -> P_los = {los_probability(100.0, h, urban):.4f}")

print("\nPath loss at r=100 m, h=100 m (urban):")
print(f"  LOS  : {path_loss('los', 100, 100, urban, radio):.4e}")
print(f"  NLOS : {path_loss('nlos', 100, 100, urban, radio):.4e}")
print(f"  avg  : {avg_path_loss(100, 100, urban, radio):.4e}")

print("\nNormalized transmit power is U-shaped in the altitude ratio:")
for h1 in (0.0, 0.3, 0.9, 1.5, 3.0):
    print(f"  h/R = {h1:3.1f} -> P1 = {normalized_tx_power(h1, urban, radio):.4e} W")

print("\nOptimal altitude-to-radius ratio per environment:")
for name in ("suburban", "urban", "dense-urban"):
    env = environment_preset(name)
    print(f"  {name:12s}: h1* = {optimal_altitude_ratio(env):.4f}")
print("taller skylines push the optimum higher (more LOS to win back)")
