"""The family of real-valued functions behind the quadrature nodes.

Every member here has the shape (conj(alpha_n) Phi_n - alpha_n Phi_n*) on
the circle, divided by i z^{n/2}: real-valued, with exactly n simple zeros
per turn.  The anchor w controls the flavor.  First-kind members vanish at
w; second-kind members avoid it; linear combinations and polynomial-driven
families sit in between.  Zeros of consecutive members interlace along the
cut that starts at the anchor.
"""

import numpy as np

from szego_quad import (
    ComplexPolynomial,
    SchurSequence,
    SofFamilySpec,
    build_opuc,
    interlace_check,
    kernel_diag,
    second_kind,
    sof_combo,
    sof_f1,
    sof_f2,
    sturm_sign_probe,
)

N = 8
rng = np.random.default_rng(7)
schur = SchurSequence(0.5 * rng.random(N) * np.exp(2j * np.pi * rng.random(N)))
table = build_opuc(schur, N)
omegas = second_kind(schur, N)

angle = 0.9
w = np.exp(1j * angle)

# 1. first kind: the anchor is always one of the zeros
f1 = sof_f1(table, 5, w, omega0=angle)
print(f"first kind, n = 5, anchor angle {angle}:")
print("  zeros:", np.array2string(f1.zeros, precision=6))
print(f"  anchor is a zero: {np.min(np.abs(f1.zeros - angle)) < 1e-12}")
probe = np.linspace(0, 2 * np.pi, 7)
print("  real values on a coarse grid:", np.array2string(f1.value(probe), precision=4))
print(f"  largest |value| at the zeros: {np.max(np.abs(f1.value(f1.zeros))):.2e}")

# 2. second kind: same degree, same anchor, but the anchor is repelled
f2 = sof_f2(table, omegas, 5, w, omega0=angle)
print("\nsecond kind, n = 5:")
print("  zeros:", np.array2string(f2.zeros, precision=6))
print(f"  distance from anchor to nearest zero: {np.min(np.abs(f2.zeros - angle)):.4f}")

# 3. first and second kind of equal degree interlace, and the sign products
#    i zeta f1'(zeta) f2(zeta) over the zeros of f1 equal 2 e_n^2 K_{n-1}
res = interlace_check(f1.zeros, f2.zeros, angle)
print(f"\nf1/f2 interlacing on [{angle}, {angle} + 2 pi): {res.ok}")
products = sturm_sign_probe(f1, f2)
ref = 2 * table.e[5] ** 2 * kernel_diag(table, 4, np.exp(1j * f1.zeros))
print("  sign products:      ", np.array2string(products, precision=6))
print("  2 e_n^2 K_(n-1):    ", np.array2string(ref, precision=6))

# 4. consecutive members of one family interlace along the anchored cut;
#    for anchored families the shared anchor zero is set aside first
family = SofFamilySpec.f1(w, omega0=angle)
print("\nconsecutive first-kind members:")
for n in range(1, N):
    cur = sof_combo(table, family, n, omegas)
    nxt = sof_combo(table, family, n + 1, omegas)
    res = interlace_check(nxt.zeros, cur.zeros, angle, exclude_anchor=angle)
    print(f"  n = {n} vs {n + 1}: interlace {'ok' if res.ok else res.witness}")

# 5. a polynomial-driven family: A steers the first-kind part, B the second;
#    A must be 1-invariant under conjugate reversal at degree k, B must flip
k = 1
A = ComplexPolynomial([1.0, 1.0])        # z + 1 reverses to itself
B = ComplexPolynomial([0.5j, 0.5j])      # i(z + 1)/2 reverses to its negative
family = SofFamilySpec.polyseq(A, B, k, w, omega0=angle)
print(f"\npolyseq family with A = z + 1, B = i(z + 1)/2, B(w) = {B(w):+.3f}:")
for n in (3, 4, 5):
    inst = sof_combo(table, family, n, omegas)
    gap = np.min(np.abs(inst.zeros - angle))
    print(f"  n = {n}: {len(inst.zeros)} zeros, anchor distance {gap:.4f}")
