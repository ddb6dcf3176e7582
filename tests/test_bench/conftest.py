"""Shared fixtures: a tiny benchmark registry for fast harness tests.

The real registry wraps whole paper experiments (seconds each); these
tests swap in specs built on ``table1`` (the GPU-config table — no
simulation, effectively instant) with hand-written extractors, so the
harness machinery (fan-out, histogram namespacing, artifact assembly,
CLI round trips) is exercised in milliseconds.
"""

from __future__ import annotations

import pytest

from repro.bench import harness, registry
from repro.bench.registry import BenchOutcome, BenchSpec, Claim


def _extract_one(result) -> BenchOutcome:
    return BenchOutcome(
        metrics={"x": [1.0, 2.0, 3.0], "y": [0.5]},
        accuracy={"err": 0.25},
        info={"rows": len(result.data)},
        timing_info={"speedup": 10.0},
    )


def _extract_two(result) -> BenchOutcome:
    return BenchOutcome(
        metrics={"x": [4.0, 8.0]},
        info={"rows": len(result.data)},
    )


TINY_BENCHES = {
    "tiny1": BenchSpec(
        name="tiny1", experiment="table1", suites=("smoke", "full"),
        description="tiny benchmark one", scaled=False,
        extract=_extract_one,
    ),
    "tiny2": BenchSpec(
        name="tiny2", experiment="table1", suites=("smoke", "full"),
        description="tiny benchmark two", scaled=False,
        extract=_extract_two,
    ),
}


@pytest.fixture
def tiny_registry(monkeypatch):
    """Swap the benchmark registry for the two instant specs above.

    Both the registry module and the harness module (which imported the
    dict by name) are patched, so lookups agree everywhere; pool workers
    inherit the patch through fork.
    """
    monkeypatch.setattr(registry, "BENCHES", TINY_BENCHES)
    monkeypatch.setattr(harness, "BENCHES", TINY_BENCHES)
    return TINY_BENCHES


def _failing_spec(name: str, **fields) -> BenchSpec:
    return BenchSpec(
        name=name, experiment=fields.pop("experiment", "table1"),
        suites=("smoke",), description=name, scaled=False, **fields,
    )


FAILING_BENCHES = {
    "ok": _failing_spec("ok"),
    "broken": _failing_spec("broken", claims=(
        Claim("rows", lambda data, scale: len(data), "<", 0),
    )),
    "raises": _failing_spec("raises", experiment="no_such_experiment"),
}


@pytest.fixture
def failing_registry(monkeypatch):
    """A passing spec, one whose claim breaks, one whose experiment raises
    (``run_experiment`` rejects the unknown name with AnalysisError)."""
    monkeypatch.setattr(registry, "BENCHES", FAILING_BENCHES)
    monkeypatch.setattr(harness, "BENCHES", FAILING_BENCHES)
    return FAILING_BENCHES
