"""Iteration cost at realistic sizes: an 80-band, 96-frames-per-bar song
tensor with a 32^3 core, and how the cost scales with the number of bars.
Each update works on a C-order view of the tensor, so an iteration is a
few matrix products plus one elementwise pass over the tensor per update.
The times are the ones `solve` records around each iteration of its own
loop, the loss evaluation that follows it included, as `beta-ntd bench`
reports them; rel_tol 0 keeps every iteration. This script times with the
process's own BLAS thread count, where `bench` pins numpy's OpenBLAS to
one thread."""

import numpy as np

from beta_ntd import SolverConfig, solve

for n_bars in (50, 100, 200):
    rng = np.random.default_rng(0)
    x = rng.uniform(0.1, 1.0, (80, 96, n_bars))
    cfg = SolverConfig(beta=1.0, core_dims=(32, 32, 32), max_iters=4, rel_tol=0.0, seed=0)
    times = solve(x, cfg)[1].iter_times
    print(f"dims 80x96x{n_bars:<4} core 32^3: "
          f"{np.mean(times) * 1e3:7.1f} ms/iteration (min {np.min(times) * 1e3:.1f})")

print("\ncost grows roughly linearly with the bar count: no update copies the")
print("tensor into an unfolding, and the explicit Kronecker formulation would")
print("square the middle factor instead")
