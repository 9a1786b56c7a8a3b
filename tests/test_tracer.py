"""The benchmark's tracer (perfbench/spans.py) rebinds names in the
package by attribute; a rename or deletion here must fail a test, not
only a traced benchmark run."""

import sys
from pathlib import Path

import pytest

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
