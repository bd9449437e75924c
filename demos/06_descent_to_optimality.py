"""Gradient descent on the control and the optimality certificate.

The descent direction is the Hamiltonian gradient d_u H = d_u L + <p, d_u F>
computed from the pathwise adjoint p~, which is exact for it because the
control is deterministic.  At the optimum, swapping the control
value for any admissible v can only raise the averaged Hamiltonian; the gap
report quantifies how close a control comes to that certificate.

Run:  python3 demos/06_descent_to_optimality.py
"""

import warnings

import numpy as np

from spdecontrol import (PathwiseAdjoint, catalog_problem, check_maximum_principle,
                         lq_optimal_control, optimize_control)
from spdecontrol.control import constant_control_for, lq_exact_cost
from spdecontrol.forward import ControlProcess

problem = catalog_problem("lq-1d", seed=42)
oracle = lq_optimal_control(problem)
print(f"dynamic-programming optimum: J* = {oracle['J_star']:.5f}, "
      f"u* range [{oracle['u_star'].min():+.3f}, {oracle['u_star'].max():+.3f}]")

start = constant_control_for(problem, 0.0)
with warnings.catch_warnings():
    warnings.simplefilter("ignore", RuntimeWarning)
    final, trace = optimize_control(problem, start, iterations=30, step_rule=0.5,
                                    n_paths=200, seed=42)
print(f"\ndescent from u = 0: Monte Carlo J {trace['J'][0]:.5f} -> {trace['J'][-1]:.5f} "
      f"in {len(trace['J']) - 1} iterations")
print(f"exact cost of the delivered control: {lq_exact_cost(problem, final.values):.5f} "
      f"(oracle {oracle['J_star']:.5f})")
print(f"largest deviation from u*: {np.max(np.abs(final.values - oracle['u_star'])):.4f}")

for label, ctrl in (("descent result", final),
                    ("oracle u*", ControlProcess(values=oracle["u_star"],
                                                 space=problem.control_space)),
                    ("bad constant u=0.9", constant_control_for(problem, 0.9))):
    ens = problem.ensemble(ctrl, 600, 43)
    rep = check_maximum_principle(problem, PathwiseAdjoint(problem, ens))
    print(f"\n{label}:")
    print(f"  min averaged Hamiltonian gap = {rep['min_gap']:+.2e} "
          f"at t={rep['argmin_t']:.2f}, v={rep['argmin_v']:+.2f}")
    print(f"  fraction of (t, v) pairs below -1e-3: {rep['fraction_violating']:.4f}")
