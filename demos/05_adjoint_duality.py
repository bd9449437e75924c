"""The adjoint pair (p, q): regression solve, duality pairing, weighted norms.

p solves a backward equation with the cost gradients as data; it is
defined through the pairing
    E int <p, gamma> dt + E int <q, eta> dt = E int <f, y> dt + E <zeta, y(T)>
against solutions y of the linearized forward equation.  Both sides are
estimated on shared noise and should agree up to discretization.

Run:  python3 demos/05_adjoint_duality.py
"""

import numpy as np

from spdecontrol import catalog_problem, duality_residual, solve_adjoint_regression, weighted_norm_report
from spdecontrol.forward import constant_control

problem = catalog_problem("lq-1d", seed=77)
dom = problem.domain

# both sides of both pairings on one zero-control ensemble and one sweep (with q)
paired = solve_adjoint_regression(
    problem, problem.ensemble(constant_control(problem.control_space, 0.0, problem.n_steps),
                              800, 77))
gamma = np.zeros(dom.n_modes)
gamma[0], gamma[2] = 1.0, 0.3
res = duality_residual(problem, paired, forcing_gamma=gamma)
print("drift-forcing side (gamma = low-mode profile, eta = 0):")
print(f"  LHS = {res['lhs']:+.5f}   RHS = {res['rhs']:+.5f}   "
      f"relative residual = {res['residual']:.4f}")

res = duality_residual(problem, paired, forcing_eta=problem.noise.b_coeffs)
print("noise-forcing side (eta = covariance diagonal, gamma = 0):")
print(f"  LHS = {res['lhs']:+.5f}   RHS = {res['rhs']:+.5f}   "
      f"relative residual = {res['residual']:.4f}")

control = constant_control(problem.control_space, 0.3, problem.n_steps)
ens = problem.ensemble(control, 400, 77)
sol = solve_adjoint_regression(problem, ens)
norms = weighted_norm_report(sol, r_prime=1.5)
print("\nweighted norms under the quadratic cost:")
print(f"  (T-t)^lambda-weighted  int |p|^2: {norms['p_weighted']:.5f}")
print(f"  dual-Sobolev weighted  int ||q||^2: {norms['q_norm']:.5f}")
worst = max(d["condition"] for d in sol.diagnostics)
print(f"  worst regression condition number: {worst:.1f}")
