"""Sample paths of a controlled stochastic reaction-diffusion equation.

The cubic catalog instance: dX = [Laplacian X - X^3 + X + u] dt + colored noise
on (0, pi) with Dirichlet walls.  The dissipative reaction keeps path
amplitudes tame even though it is not globally Lipschitz.

Run:  python3 demos/03_reaction_diffusion_paths.py
"""

import numpy as np

from spdecontrol import (catalog_problem, read_binary_trajectory, trajectory_to_binary,
                         trajectory_to_csv)
from spdecontrol.control import constant_control_for, cost_of_ensemble

problem = catalog_problem("cubic-1d", modes=32, n_steps=128, seed=2024)
print(f"instance: {problem.name}, {problem.domain.n_modes} modes, "
      f"{problem.n_steps} steps to T={problem.horizon}")

control = constant_control_for(problem, 0.3)
ens = problem.ensemble(control, n_paths=64, seed=2024)

sup_t = problem.domain.sup_norm(ens.modes.reshape(-1, problem.domain.n_modes))
sup_t = sup_t.reshape(ens.n_paths, -1)
print(f"\npathwise sup-norm: start {sup_t[:, 0].mean():.3f}, "
      f"peak {sup_t.max():.3f}, final {sup_t[:, -1].mean():.3f} "
      f"+- {sup_t[:, -1].std():.3f}")

costs = cost_of_ensemble(problem, ens)
print(f"realized quadratic cost: {costs.mean():.4f} +- "
      f"{costs.std() / np.sqrt(ens.n_paths):.4f}")

mid = ens.modes[:, ens.modes.shape[1] // 2]
profile = problem.domain.to_field(mid).mean(axis=0)
print("\nmean mid-time profile on the collocation grid (every 4th point):")
print("  " + " ".join(f"{v:+.2f}" for v in profile[::4]))

traj = ens.trajectory(0)
trajectory_to_csv(traj, "/tmp/cubic_path0.csv")
trajectory_to_binary(traj, "/tmp/cubic_path0.bin")
horizon, coeffs = read_binary_trajectory("/tmp/cubic_path0.bin")   # lossless round trip
assert horizon == problem.horizon and np.array_equal(coeffs, traj.mode_coeffs)
print("\nexported path 0 to /tmp/cubic_path0.{csv,bin}")
