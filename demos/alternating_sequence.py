"""Rules of every order from a single anchor.

A first-kind member of even degree n gives an n-node rule directly.  Odd
orders belong to the measure modified by |z - w|^2: the first-kind member
of the same order divided by (z - w) is the modified member, and the
anchor itself rejoins as the extra node.  The alternating sequence
F_1, F_2, ... packages that bookkeeping; this script unpacks it.
"""

import numpy as np

from szego_quad import (
    Density,
    build_opuc,
    christoffel_moments,
    f_sequence,
    moments,
    rule_from_sof,
    schur_from_moments,
    sof_f1,
)

N = 9
spec = Density(name="bernstein_szego", param=0.4)
m = moments(spec, N)
table = build_opuc(schur_from_moments(m, N), N)

angle = 0.7
w = np.exp(1j * angle)

# 1. the sequence alternates between the base measure (even index) and the
#    |z - w|^2-modified measure (odd index); F_1 is the constant 1
seq = f_sequence(table, w, N)
print(f"alternating sequence at anchor angle {angle}:")
for inst in seq:
    kind = "constant" if inst.index == 1 else ("even/base" if inst.index % 2 == 0 else "odd/modified")
    print(f"  {inst.label:>4}: degree {inst.n}, {len(inst.zeros)} zeros  ({kind})")

# 2. every member drives a rule of order equal to its index; odd members
#    carry one fewer zero than their order and the anchor fills the gap
print("\nrules from the first five members:")
for inst in seq[:5]:
    rule = rule_from_sof(table, m, inst)
    anchored = np.min(np.abs(rule.node_angles - angle)) < 1e-12
    print(
        f"  order {rule.order}: residual {rule.exactness_residual:.2e}, "
        f"anchor among nodes: {anchored}"
    )

# 3. how the odd members are built: the zeros of F_{2k+1} are exactly the
#    zeros of the base first-kind member of the same order, minus the anchor
n_odd = 7
member = seq[n_odd - 1]
base = sof_f1(table, n_odd, w)
aug = np.sort(np.append(member.zeros, angle))
print(f"\nzeros of F_{n_odd} plus the anchor vs first-kind zeros at n = {n_odd}:")
print("  augmented:", np.array2string(aug, precision=8))
print("  first kind:", np.array2string(np.sort(base.zeros), precision=8))
print(f"  max gap: {np.max(np.abs(aug - np.sort(base.zeros))):.2e}")

# 4. why they belong to the modified measure: with psi_j the monic family of
#    |z - w|^2 d(mu), built from its moments, the numerator of F_{2k+1} is a
#    multiple of Phi_2k*(w) z psi_{2k-1}(z) + Phi_2k(w) psi_{2k-1}*(z)
k = n_odd // 2
modified = schur_from_moments(christoffel_moments(m, w), 2 * k - 1)
psi = build_opuc(modified, 2 * k - 1).phi
print("\nmonic family of the |z - w|^2-modified measure:")
for j, p in enumerate(psi):
    print(f"  psi_{j}: degree {p.degree}, coefficients {np.array2string(p.coeffs, precision=4)}")
last = psi[-1]
direct = table.phi_star[2 * k](w) * last.shifted(1) + table.phi[2 * k](w) * last.conj_reverse(2 * k - 1)
num, ref = member.numerator.coeffs, direct.coeffs
scale = np.vdot(ref, num) / np.vdot(ref, ref)
print(
    f"F_{n_odd} numerator vs the modified-measure combination: "
    f"relative misfit {np.linalg.norm(num - scale * ref) / np.linalg.norm(num):.2e}"
)
