"""Weekly ground-user density patterns from sparse spectra.

Each functional-zone preset stores four spectral coefficients; the
reconstruction is real by conjugate symmetry, clamps at zero, and shows
the characteristic daily breathing (seven dominant peaks per week).
"""

from scipy.signal import find_peaks

from uavrf import RadioConfig, Rect, Subregion, pattern_preset, user_density
from uavrf.patterns import normalized_shape

radio = RadioConfig()

print("Preset patterns (entertainment, residential, transport, office, mixed):")
for label in "ERTOC":
    pat = pattern_preset(label)
    week = normalized_shape(pat, pat.week_samples())
    peaks, _ = find_peaks(week, prominence=0.2)
    print(
        f"  {label}: {len(pat.coefficients)} stored coefficients, "
        f"{len(peaks)} dominant peaks/week at sample indices {[int(p) for p in peaks[:7]]}"
    )

print("\nHourly density profile of an entertainment zone (first day):")
sub = Subregion(label="E", rect=Rect(0, 0, 1000, 1000), pattern=pattern_preset("E"))
profile = {h: user_density(sub, h * 3600.0, radio) for h in range(0, 24, 3)}
top = max(profile.values())
for hour, lam in profile.items():
    bar = "#" * int(50 * lam / top) if top > 0 else ""
    print(f"  {hour:02d}:00  lambda = {lam:.3e} /m^2  {bar}")
print("(raw preset levels clamp to zero off-peak; scheduling scenarios")
print(" rescale the normalized shape into an explicit density band)")
