"""The benchmark's tracer (perfbench/spans.py) rebinds names in the
package by attribute; a rename or deletion here must fail a test, not
only a traced benchmark run."""

import sys
from pathlib import Path

import numpy as np
import pytest

import beta_ntd.solver

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    yield spans
    sys.modules.pop("spans", None)


def test_every_patched_name_resolves(spans):
    missing = [(owner.__name__, attr) for owner, attr, *_ in spans.PATCHES
               if not hasattr(owner, attr)]
    assert missing == []


def test_uninstall_restores_every_attribute(spans):
    before = [getattr(owner, attr) for owner, attr, *_ in spans.PATCHES]
    tracer = spans.Tracer()
    tracer.install()
    try:
        wrapped = [getattr(owner, attr) for owner, attr, *_ in spans.PATCHES]
    finally:
        tracer.uninstall()
    assert all(w is not b for w, b in zip(wrapped, before))
    after = [getattr(owner, attr) for owner, attr, *_ in spans.PATCHES]
    assert all(a is b for a, b in zip(after, before))


def test_a_solve_records_every_solver_layer(spans):
    # the per-layer metrics read the spans of these names; a solver that calls
    # around the module-level functions would zero them silently
    tracer = spans.Tracer()
    tracer.install()
    try:
        x = np.random.default_rng(0).uniform(0.1, 1.0, (6, 5, 4))
        beta_ntd.solver.solve(x, beta_ntd.solver.SolverConfig(core_dims=(2, 2, 2), max_iters=2))
    finally:
        tracer.uninstall()
    names = [tracer.names[c] for c in tracer.code]
    for name in ("solver.solve", "solver.iterate", "solver.update_core", "divergence.objective"):
        assert name in names
    modes = [e for n, e in zip(names, tracer.extra) if n == "solver.update_mode_factor"]
    assert sorted(modes) == [1, 1, 2, 2, 3, 3]
