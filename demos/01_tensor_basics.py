"""The Tucker model that the solver fits, X ~ G x_1 W x_2 H x_3 Q, and the
Kronecker matrix it stands in for.

Flattened in C order, the model is kron(W, kron(H, Q)) @ G.reshape(-1): a
(J*K*L) x (J'*K'*L') matrix times the core. The solver never builds that
matrix; it contracts the core with one factor at a time."""

import numpy as np

from beta_ntd import SolverConfig, init_factors

cfg = SolverConfig(core_dims=(2, 3, 2), seed=0)
f = init_factors((4, 5, 6), cfg)
print("W", f.w.shape, "H", f.h.shape, "Q", f.q.shape, "core", f.core.shape)

model = f.approximation()
print("model (J x K x L):", model.shape)

big = np.kron(f.w, np.kron(f.h, f.q))  # what the solver never builds
via_kron = (big @ f.core.reshape(-1)).reshape(model.shape)
deviation = np.max(np.abs(model - via_kron))
print(f"Kronecker matrix {big.shape[0]} x {big.shape[1]}, "
      f"max deviation from the model: {deviation:.1e}")
assert deviation <= 1e-12 * np.max(model)

# At the benchmark's song size the same matrix would not fit in memory.
rows, cols = 80 * 96 * 100, 32 * 12 * 4
print(f"at 80x96x100 data with a 32x12x4 core it would be {rows} x {cols}, "
      f"{rows * cols * 8 / 1e9:.1f} GB")
