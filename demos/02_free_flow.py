"""The dispersive group and the flow-adapted path norms.

Evolves a wavepacket under the linear flow, confirms that the evolution is
unitary and composes like a group, and then shows the point of the
flow-adapted variation norm: undoing the flow turns a free solution into a
constant path, so its V2 value collapses to the terminal jump ||phi|| and
the scale-weighted path norm collapses to the data norm.
"""

import numpy as np

from gkdvlab.airy import evolve, free_solution
from gkdvlab.grid import Field, GridSpec, l2_norm
from gkdvlab.norms import besov_norm, critical_index, xs_norm
from gkdvlab.variation import v2_kdv_norm, vp_norm

grid = GridSpec(domain_length=100.0, num_points=512, dt=0.05, num_steps=16)
x = grid.x
phi = Field.from_values(grid, np.exp(-(((x - 50.0) / 5.0) ** 2)) * np.cos(2.0 * x))
nrm = l2_norm(phi)

moved = evolve(phi, 0.7)
print(f"||phi||            = {nrm:.6f}")
print(f"||S(0.7) phi||     = {l2_norm(moved):.6f}   (unitary)")
two = evolve(evolve(phi, 0.3), 0.4)
print(f"group law defect   = {l2_norm(two - moved) / nrm:.3e}")

path = free_solution(phi)
raw = vp_norm(path.spectral_matrix * np.sqrt(grid.bin_weights),
              grid.domain_length, 2.0)
adapted = v2_kdv_norm(path)
print(f"\nV2 of the raw path          = {raw:.6f}   (sees the oscillation)")
print(f"V2 after undoing the flow   = {adapted:.6f}   (= ||phi||, "
      f"defect {abs(adapted - nrm) / nrm:.1e})")

s_p = critical_index(5.0).s_p
print(f"\ncritical index s_p(5) = {s_p:.6f}")
print(f"path norm of the free solution  = {xs_norm(path, s_p):.6f}")
print(f"scale norm of the data          = {besov_norm(phi, s_p):.6f}")
