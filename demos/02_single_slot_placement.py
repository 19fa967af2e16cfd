"""Single-slot optimum: coverage radius, fleet size, recall frequency.

Demonstrates the closed-form optimal radius (quarter-power laws in
circuit power and density), the transmit-equals-circuit-power property
at the optimum, and the resulting minimal static recall frequency.
"""

import math

from uavrf import (
    EnergyParams,
    RadioConfig,
    environment_preset,
    min_static_rf,
    num_uavs,
    optimal_altitude_ratio,
    optimal_radius,
    tx_power,
)

radio = RadioConfig()
urban = environment_preset("urban")
area = 1e6  # m^2
energy = EnergyParams(p_circuit=0.5, battery_j=area / math.pi)  # S/(pi Eb) = 1

print("Optimal radius versus circuit power (lambda = 0.1 /m^2):")
for p_cu in (0.5, 5.0, 50.0):
    r = optimal_radius(0.1, p_cu, urban, radio)
    print(f"  P_cu = {p_cu:5.1f} W -> R* = {r:7.2f} m")
print("consecutive ratios are exactly 10^(1/4) = 1.7783")

print("\nOptimal radius versus density (P_cu = 0.5 W):")
for lam in (0.1, 1.0, 5.0):
    r = optimal_radius(lam, 0.5, urban, radio)
    print(f"  lambda = {lam:4.1f} /m^2 -> R* = {r:6.2f} m, fleet = {num_uavs(area, r)}")

print("\nAt the optimum the transmit power equals the circuit power:")
h1 = optimal_altitude_ratio(urban)
for lam, p_cu in ((0.1, 0.5), (2.0, 5.0)):
    r = optimal_radius(lam, p_cu, urban, radio)
    p_tx = tx_power(r, lam, r * h1, urban, radio)
    print(f"  lambda={lam}, P_cu={p_cu} W: P_tx(R*, h*) = {p_tx:.6f} W")

print("\nMinimal static recall frequency scales as sqrt(lambda * P_cu):")
for lam in (0.1, 0.4):
    for p_cu in (0.5, 2.0):
        e = EnergyParams(p_circuit=p_cu, battery_j=energy.battery_j)
        phi, placement = min_static_rf(lam, e, area, urban, radio)
        print(
            f"  lambda={lam:3.1f}, P_cu={p_cu:3.1f}: phi* = {phi:.4e} /s "
            f"(R*={placement.radius:.1f} m, h*={placement.altitude:.1f} m)"
        )
