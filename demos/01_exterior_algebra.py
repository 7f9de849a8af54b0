"""Pointwise exterior algebra: build forms, wedge them, evaluate them.

Run:  python3 demos/01_exterior_algebra.py
"""

import numpy as np

from chernforms import Form, conjugate, evaluate, nonnegative_sampled

n = 2

# one-forms come from the dz / dzbar constructors; indices are 1-based
dz1, dz2 = Form.dz(n, 1), Form.dz(n, 2)
dzbar1 = Form.dzbar(n, 1)

print("== wedge products on C^2 ==")
print(f"dz1 ^ dz2           = {dz1.wedge(dz2)}")
print(f"dz2 ^ dz1           = {dz2.wedge(dz1)}")
print(f"dz1 ^ dz1           = {dz1.wedge(dz1)}")
print(f"dz1 ^ dzbar1        = {dz1.wedge(dzbar1)}")

# conjugation is an involution that swaps the two families of symbols
psi = dz1.wedge(dz2)
print(f"\nconj(dz1 ^ dz2)     = {conjugate(psi)}")

# evaluation pairs a (p,p)-form with p tangent vectors; the normalization
# makes the Euclidean volume form integrate to 1 against the standard basis
volume = Form.monomial(n, [1], [1], 1j).wedge(Form.monomial(n, [2], [2], 1j))
basis = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
print(f"\nvolume form on basis vectors: {evaluate(volume, basis):.6g}")

# psi ^ conj(psi) evaluates to |det|^2 of the component matrix: manifestly >= 0
phi = psi.wedge(conjugate(psi))
vectors = [np.array([1.0, 2.0j]), np.array([3.0, 4.0])]
print(f"(dz1^dz2)^(conj)    on X1=(1,2i), X2=(3,4): {evaluate(phi, vectors):.6g}")
print("  (this is |det [[1,3],[2i,4]]|^2 = |4-6i|^2 = 52)")

# the sampling verdict: positive forms pass, sign flips fail with a witness
print("\n== sampled nonnegativity ==")
good = nonnegative_sampled(phi, trials=50, seed=0)
print(f"psi ^ conj(psi): min over 50 samples = {good.min_value:.4g}  -> "
      f"{'PASS' if good.passed else 'FAIL'}")

bad = nonnegative_sampled(phi.scale(-1), trials=50, seed=0)
print(f"negated:         min over 50 samples = {bad.min_value:.4g} -> "
      f"{'PASS' if bad.passed else 'FAIL'}")
print(f"witness vectors recorded in the report: {bad.witness is not None}")
# a PASS names its argmin tuple by index; the seed's batch regenerates it
print(f"passing check: argmin = tuple {good.argmin} of the batch, "
      f"witness printed: {good.witness is not None}, margin = {good.margin:.3g}")
