"""Verification of the closed moment formulas.

Applies the ODE/PDE operators to the closed forms with derivatives from
Cauchy integrals, reports the residuals relative to the operators' scale,
near the circle too, and shows that an exponent off by 1e-6 is rejected by
orders of magnitude.
"""

import json

from slelab import (
    abc_check,
    duality_check,
    moduli_residual,
    ode_residual,
    pde_residual,
    run_all_checks,
    seed_systems,
)
from slelab.residuals import _operator_report


def relative(rep):
    return rep["residual"] / rep["inputs"]["scale"]


print("== residuals of the closed forms, relative to their scale ==")
for kappa, gamma in ((2.0, 1.0), (6.0, 0.5)):
    print(f"  kappa={kappa:g}, gamma={gamma:g}:")
    for z in (0.3 + 0.2j, 0.999, 0.999j):
        o = ode_residual(kappa, gamma, z)
        t = pde_residual(kappa, gamma, z, 0.25 - 0.15j)
        m = moduli_residual(kappa, gamma, z)
        print(f"    z = {z:.3g}: one-point ODE {relative(o):.1e}, "
              f"two-point PDE {relative(t):.1e}, moduli PDE {relative(m):.1e}")

print()
print("== a wrong exponent fails loudly ==")
for eps in (0.0, 1e-6):
    rep = _operator_report("one_point_ode", {}, 6.0, 0.5,
                           lambda w: (1 - w) ** (0.5 + eps), (0.3 + 0.2j,))
    print(f"  gamma = 0.5 + {eps:g}: relative residual {relative(rep):.1e}, "
          f"pass={rep['pass']}")

print()
print("== coefficient algebra ==")
out = abc_check(2.0, 2.0, 2.0, 1.0)
print(f"  A, B, C at the kappa=2 integrable point: "
      f"{out['A']:.1e}, {out['B']:.1e}, {out['C']:.1e}")
print(f"  duality residual at (kappa, p, gamma) = (6, 1, 0.3): "
      f"{duality_check(6.0, 1.0, 0.3)['residual']:.1e}")

print()
print("== coefficient-system reconstruction of the separatrices ==")
for rep in seed_systems(6.0):
    print(f"  {rep['check']}: residual {rep['residual']:.2e}, "
          f"pass={rep['pass']}")

print()
print("== full machine-readable report ==")
reports = run_all_checks(6.0)
print(json.dumps(reports[0], indent=2))
print(f"... {len(reports)} checks, all pass: {all(r['pass'] for r in reports)}")
