"""The inequality chain 0 <= c_n <= c_lambda <= c_1^n, two ways.

Pointwise: every step difference factors through Schur forms, so each one is
itself a nonnegativity check; at top degree, as here, it is decided by the
step's one coefficient.  Globally: on closed-form models the
same chain holds between exact integer Chern numbers.

Run:  python3 demos/04_bound_chains.py
"""

from chernforms import (
    Partition,
    bounds_chain_check,
    chern_forms,
    parse_model,
    random_tensor,
    verify_number_bounds,
)
from chernforms.schur import chain_step_polynomials

lam = Partition((2, 1))
print(f"== step decomposition for lambda = {lam}, r = 3 ==")
for label, poly in chain_step_polynomials(lam, 3):
    print(f"  0 <= {label}   [= {poly}]")

print("\n== pointwise chain on a random instance (n = r = 3) ==")
tensor = random_tensor(3, 3, 2, seed=11)
cs = chern_forms(tensor)
report = bounds_chain_check(cs, lam, trials=50, seed=0)
for step in report.steps:
    print(f"  {step.label}: {step.report.method} margin={step.report.margin: .4e} "
          f"{'PASS' if step.report.passed else 'FAIL'}")
top = report.top
print(f"  top scalars: c_3={top['c_n']:.5g} <= c_(2,1)={top['c_lambda']:.5g} "
      f"<= c_1^3={top['c_1^n']:.5g}  -> {'PASS' if top['passed'] else 'FAIL'}")
print(f"chain verdict: {'PASS' if report.passed else 'FAIL'}")

print("\n== exact integer chain on models ==")
for name in ("CP3", "CP1xCP2", "T1xCP1"):
    rep = verify_number_bounds(parse_model(name))
    values = ", ".join(f"c_{Partition(p)}={v}" for p, v in rep.numbers)
    tag = "all zero" if rep.all_zero else "ordered"
    print(f"  {name}: {values}  [{tag}, {'PASS' if rep.passed else 'FAIL'}]")
