"""Schur forms of a factored curvature are pointwise nonnegative.

The sweep enumerates Gamma(i, r) for every degree i <= n, substitutes the
Chern forms into each Schur polynomial, and tests the result: by its one
coefficient at degree n, by the least eigenvalue of its block at degrees 1
and n-1 (n = 3 here, so every degree), and on sampled tuples elsewhere.
Each check prints the method that decided it and its margin,
min_value / (tol * scale), which fails below -1.  The report embeds the
instance and a hash so any verdict can be replayed.

Run:  python3 demos/03_schur_positivity.py
"""

import json

from chernforms import partitions, random_tensor, schur_polynomial, verify_schur_nonnegativity

r = 3
print("== the polynomials ==")
for i in (1, 2, 3):
    for lam in partitions(i, r):
        print(f"  S_{lam} = {schur_polynomial(lam, r)}")

print("\n== the sweep ==")
tensor = random_tensor(n=3, r=3, m=2, seed=7)
report = verify_schur_nonnegativity(tensor, trials=50, seed=0)

for chk in report.checks:
    rep = chk.report
    print(f"  degree {chk.degree}  lambda={chk.partition}: {rep.method:<15} "
          f"margin={rep.margin: .4e}  scale={rep.scale:.3g}  "
          f"{'PASS' if rep.passed else 'FAIL'}")
print(f"verdict: {'PASS' if report.passed else 'FAIL'}")

# replaying the embedded instance reproduces the verdict bit for bit
blob = report.to_dict()
print(f"\nreport keys: {sorted(blob)}")
print(f"instance hash: {blob['instance_hash'][:16]}...")
print(f"rerun matches: {verify_schur_nonnegativity(tensor, trials=50, seed=0).to_dict() == blob}")
print(f"\nfull report is JSON: {len(json.dumps(blob))} bytes")
