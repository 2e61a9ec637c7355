"""From a measure on the circle to an exact quadrature rule.

The pipeline in one sitting: trigonometric moments of a density, Schur
coefficients, the monic orthogonal polynomial table, an invariant
para-orthogonal combination, its zeros as nodes, Christoffel weights, and
finally the exactness window |k| <= n - 1 checked moment by moment.
"""

import numpy as np

from szego_quad import (
    Density,
    build_opuc,
    make_pop,
    make_rule,
    measure_integral,
    moments,
    rule_from_sof,
    schur_from_moments,
    sof_f1,
    weights_via_integral,
)

N = 6

# 1. a measure: the normalized density (1 - cos theta) dtheta / (2 pi)
spec = Density(name="one_minus_cos")
m = moments(spec, N)
print("moments c_0..c_6 of (1 - cos):")
for k in range(N + 1):
    c = m.get(k)
    print(f"  c_{k} = {c.real:+.6f} {c.imag:+.6f}i")

# 2. Schur coefficients by the moment recursion
schur = schur_from_moments(m, N)
print("\nSchur coefficients a_1..a_6:")
for n in range(1, N + 1):
    print(f"  a_{n} = {schur.a(n):+.6f}")

# 3. the orthogonal polynomial table and the norm ladder e_n
table = build_opuc(schur, N)
print("\nsquared norms e_n = <Phi_n, Phi_n>:")
print(" ", np.array2string(table.e, precision=6))

# 4. an invariant para-orthogonal combination alpha Phi_n + beta Phi_n*
#    with |alpha| = |beta|; its zeros are simple and sit on the circle
pop = make_pop(table, N, 1.0, 1.0)
rule = make_rule(table, m, pop)
print(f"\n{N}-node rule from the POP zeros (kappa = {pop.kappa:+.3f}):")
print("  theta_k:", np.array2string(rule.node_angles, precision=8))
print("  H_k:    ", np.array2string(rule.weights, precision=8))
print(f"  weights sum to {rule.weights.sum():.12f}")
print(f"  exactness residual over |k| <= {N - 1}: {rule.exactness_residual:.3e}")

# 5. the same weights from the nodes and moments alone, one Vandermonde
#    solve on any shift p of the Laurent window
for p in (0, 2, N - 1):
    drift = np.max(np.abs(weights_via_integral(rule, m, p) - rule.weights))
    print(f"  integral-form weights at p = {p}: max drift {drift:.3e}")

# 6. rules of growing order against a function the window never captures
#    exactly; the rule values still converge to the true integral
fn = lambda theta: np.abs(np.sin(0.5 * theta))
ref = measure_integral(spec, fn)
print(f"\nintegral of |sin(theta/2)| d(mu): {ref:.10f}")
big = build_opuc(schur_from_moments(moments(spec, 32), 32), 32)
m_big = moments(spec, 32)
for n in (4, 8, 16, 32):
    r = rule_from_sof(big, m_big, sof_f1(big, n, 1.0))
    print(f"  n = {n:2d}: rule value {r.apply_theta(fn):.10f}  error {abs(r.apply_theta(fn) - ref):.2e}")
