"""Exact band decompositions of the power nonlinearity.

Two identities are checked as residuals. One level: f(u) rebuilt from band
pieces with a tau-integral of f' along blended cutoffs. Four levels: the
nested expansion whose kernel is the fourth derivative of the power law,
with the combinatorial constant p(p-1)(p-2)(p-3). The one-level residual is
tau-quadrature error: at p=5 the integrand f'(blend) has degree p-1 = 4 in
tau, and n-node Gauss-Legendre is exact to degree 2n-1, so the residual
drops steeply over 1 -> 2 -> 3 nodes and then sits on the rounding floor,
where more nodes cannot push it lower. Swapping in a wrong constant breaks
the identity loudly, which is what makes the check worth running.
"""

import numpy as np

from gkdvlab import nonlinearity as nl
from gkdvlab.grid import Field, GridSpec, l2_norm

grid = GridSpec(domain_length=200.0, num_points=1024, dt=1.0 / 16, num_steps=16)
rng = np.random.default_rng(4)
raw = Field.from_values(grid, rng.standard_normal(grid.num_points))
xi = np.abs(grid.frequencies)
u = Field.from_coefficients(grid, raw.coefficients * ((xi >= 0.5) & (xi < 4.0)))
u = u * (1.0 / l2_norm(u))

print("one-level telescoping residual, p = 5:")
for nodes in (1, 2, 3, 4, 8, 16):
    note = ("quadrature error" if nodes < 3
            else "rounding floor: 3 nodes are exact for degree 4")
    print(f"  {nodes:2d} tau nodes: "
          f"{nl.telescoping_check(u, 5.0, nodes=nodes):.3e}   ({note})")

print(f"\nfour-level nested expansion residual, p = 5: "
      f"{nl.quintic_expansion_check(u, 5.0, nodes=8):.3e}")
print(f"expansion constant at p=5: {nl.expansion_constant(5.0):.0f}, "
      f"at p=6: {nl.expansion_constant(6.0):.0f}")

# the constant is load-bearing: doubling it at p=6 wrecks the identity
true_fn = nl.expansion_constant
residual_right = nl.quintic_expansion_check(u, 6.0, nodes=6)
nl.expansion_constant = lambda p: 720.0
try:
    residual_wrong = nl.quintic_expansion_check(u, 6.0, nodes=6)
finally:
    nl.expansion_constant = true_fn
print(f"\np = 6 residual with constant 360: {residual_right:.3e}")
print(f"p = 6 residual with constant 720: {residual_wrong:.3e}   "
      "(identity rejected)")
