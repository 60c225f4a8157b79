"""Fields, transforms, and the percent-wide scale decomposition.

Builds a localized oscillating field, round-trips it through the spectral
representation, checks the energy identity, and then splits it across the
base-1.01 scale lattice and reassembles it. Prints the handful of numbers
that make the core trustworthy.
"""

import numpy as np

from gkdvlab import littlewood_paley as lp
from gkdvlab.grid import Field, GridSpec, l2_norm

grid = GridSpec(domain_length=100.0, num_points=1024, dt=0.01, num_steps=4)
x = grid.x
f = Field.from_values(grid, np.exp(-(((x - 40.0) / 6.0) ** 2)) * np.cos(1.3 * x))

back = Field.from_coefficients(grid, f.coefficients)
roundtrip = float(np.max(np.abs(back.values - f.values)))
# only the bins m >= 0 are stored; bin m > 0 also stands for -m
spectral = grid.domain_length * float(np.abs(f.coefficients) ** 2 @ grid.bin_weights)
pointwise = grid.weight * float(np.sum(f.values ** 2))

print(f"grid: L={grid.domain_length}, N={grid.num_points}, "
      f"resolvable |xi| <= {grid.resolvable_max:.2f}")
print(f"roundtrip defect      {roundtrip:.3e}")
print(f"energy identity defect {abs(spectral - pointwise):.3e}")

band = lp.default_band(grid)
defect = np.abs(lp.partition_sum(grid, band) - 1.0)
xi = np.abs(grid.frequencies)
covered = (xi > 0) & (xi <= grid.resolvable_max)
print(f"\nscale band: z in [{band.start}, {band.stop - 1}], "
      f"{len(band)} scales, lambda from {lp.scale_value(band.start):.4f} "
      f"to {lp.scale_value(band.stop - 1):.2f}")
print(f"partition-of-unity defect on covered frequencies: "
      f"{float(np.max(defect[covered])):.3e}")

pieces = lp.decompose(f, band)
rec = lp.reconstruct(pieces, lp.mean_mode(f))
print(f"reconstruction defect: {l2_norm(rec - f) / l2_norm(f):.3e}")

energies = [(z, l2_norm(piece)) for (sc, piece), z in zip(pieces, band)]
energies.sort(key=lambda e: -e[1])
print("\nten most energetic scales:")
for z, e in energies[:10]:
    print(f"  z={z:+4d}  lambda={lp.scale_value(z):8.4f}  ||P_z f|| = {e:.4f}")
