"""From a factor tensor to Chern forms and their top coefficients.

A factored curvature Omega = A ^ conj(A^t) is nonnegative by construction.
Its factor A_ik = sum_p T[p][i][k] dz^p is held as the tensor T, in either
scalar mode, and is its witness: the Chern forms come from T directly, and
Omega, once built, is a plain matrix whose Chern forms do not move under a
frame change.  Run:  python3 demos/02_curvature_to_chern.py
"""

import numpy as np

from chernforms import (
    CurvatureTensor,
    bott_chern_curvature,
    change_frame,
    chern_forms,
    chern_product,
    partitions,
    random_unitary,
    top_coefficient,
)

# a dense tensor T[p][i][k] encodes A_ik = sum_p T[p][i][k] dz^p
tensor = CurvatureTensor(np.array([
    [[1.0, 0.0], [0.0, 0.5]],
    [[0.0, 1j], [1.0, 0.0]],
]))
print(f"instance: n={tensor.n}, r={tensor.r}, m={tensor.m}")

print(f"A_22 = {tensor.entries[1][1]}")
omega = bott_chern_curvature(tensor)
print(f"Omega_11 = {omega.entries[0][0]}")

# the Gram route: Chern forms straight from the factor's m columns
cs = chern_forms(tensor)
print(f"\nChern forms from the factor (m={cs.m}) up to degree {cs.top_degree}:")
for i in range(cs.top_degree + 1):
    print(f"  c_{i} = {cs.form(i)}")

print("\ntop-degree coefficients over Gamma(n, r):")
for lam in partitions(tensor.n, tensor.r):
    value = top_coefficient(chern_product(cs, lam))
    print(f"  top(c_{lam}) = {value:.6g}")

# a frame change conjugates Omega to P^-1 Omega P; the Chern forms of the
# moved matrix (Laplace expansion of its minors) match the factor's
u = random_unitary(tensor.r, seed=1)
cs2 = chern_forms(change_frame(omega, u))
# each c_i is a coefficient block, rows dz^J and columns dzbar^K
drift = max(
    np.abs(cs.form(i).block - cs2.form(i).block).max()
    for i in range(1, cs.top_degree + 1)
)
print(f"\nafter a random unitary frame change: max Chern-form drift = {drift:.2e}")

# an object array is an exact tensor: the same route over Gaussian
# rationals, with the (2 pi)^-i of c_i left symbolic
exact = CurvatureTensor(np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]]], dtype=object))
ce = chern_forms(exact)
print(f"\nexact tensor ({exact.mode} mode): c_2 = {ce.form(2)} times (2 pi)^-2")
