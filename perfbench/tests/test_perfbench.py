"""Tests of the benchmark's own code (no simulation runs here).

    python3 -m pytest perfbench/tests -q
"""

import json
import re
from pathlib import Path

import pytest

from repro.obs import Collector, Span

from perfbench.check import (
    ENVELOPE_HEADROOM,
    Checker,
    load_reference,
    output_digest,
    platform_key,
)
from perfbench.layers import LAYER_METRICS, PREFIX, layer_metrics
from perfbench.run import END_TO_END
from perfbench.workloads import (
    WORKLOADS,
    Output,
    requests_for,
    unique_requests,
)

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_names_are_well_formed(spec):
    names = (
        [w["name"] for w in spec["workloads"]]
        + [m["name"] for m in spec["end_to_end"]]
        + [m["name"] for m in spec["per_layer"]]
    )
    assert names and len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name


def test_spec_matches_the_code(spec):
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_METRICS
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_changes_requests_deterministically(workload):
    first = requests_for(workload, 7)
    assert first == requests_for(workload, 7)
    other = requests_for(workload, 8)
    assert first != other
    # The seed moves knobs and repeats, never which workload keys are evaluated.
    keys = [r.key for r in unique_requests(first)]
    assert keys == [r.key for r in unique_requests(other)]


def test_knob_sweep_repeats_a_quarter_of_submissions():
    batch = requests_for("knob-sweep", 3)
    unique = unique_requests(batch)
    assert (len(batch) - len(unique)) / len(batch) == 0.25
    # One repeat per key: every seed's batch holds the same frames.
    keys = sorted(r.key for r in unique)
    assert sorted(r.key for r in batch) == sorted(keys + sorted(set(keys)))
    assert {r.threshold for r in unique} == {0.80, 0.85, 0.90}
    for index, request in enumerate(batch):
        if batch.index(request) != index:
            assert batch.index(request) < index


def _output(digest="a" * 16, truth=None, estimate=None):
    truth_row = {"cycles": 100.0, "dram_accesses": 50.0,
                 "l2_accesses": 80.0, "tile_cache_accesses": 40.0}
    return Output(
        label="hcr/T0.85/s1", key="hcr", frames=10, representatives=2,
        estimate=estimate or dict(truth_row),
        truth=truth if truth is not None else dict(truth_row),
        digest=digest,
    )


def _checker(digests=("a" * 16,)):
    truth_row = {"cycles": 100.0, "dram_accesses": 50.0,
                 "l2_accesses": 80.0, "tile_cache_accesses": 40.0}
    reference = {
        "platform": platform_key(),
        "workloads": {"truth-sweep": {
            "scale": 0.02,
            "max_error_pct": 10.0,
            "truth": {"hcr": truth_row},
            "digests": {"5": list(digests)},
        }},
    }
    return Checker("truth-sweep", 5, reference)


def test_checker_accepts_the_reference_digest():
    assert _checker().check_round([_output()]) == [[]]


def test_checker_rejects_a_perturbed_digest():
    problems = _checker().check_round([_output(digest="b" + "a" * 15)])
    assert any("digest differs from reference" in p for p in problems[0])


def test_checker_rejects_changed_ground_truth_and_broken_envelope():
    truth = {"cycles": 101.0, "dram_accesses": 50.0,
             "l2_accesses": 80.0, "tile_cache_accesses": 40.0}
    estimate = {"cycles": 150.0, "dram_accesses": 50.0,
                "l2_accesses": 80.0, "tile_cache_accesses": 40.0}
    problems = _checker().check_round([_output(truth=truth, estimate=estimate)])[0]
    assert any("ground truth differs" in p for p in problems)
    assert any("envelope" in p for p in problems)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_envelope_is_above_the_recorded_worst_error(workload):
    reference = load_reference()
    worst = reference["workloads"][workload]["max_error_pct"]
    envelope = Checker(workload, 0, reference).envelope
    assert ENVELOPE_HEADROOM > 1.0
    assert worst < envelope < 2.0 * worst


def test_checker_rejects_rounds_that_disagree():
    checker = _checker()
    checker.expected = None  # an unrecorded seed: only rounds are compared
    assert checker.check_round([_output()]) == [[]]
    second = checker.check_round([_output(digest="c" * 16)])
    assert any("between rounds" in p for p in second[0])


class _Stats:
    def __init__(self, value):
        self.value = value

    def to_dict(self):
        return {"cycles": self.value}


class _Cluster:
    representative, members = 1, (0, 1)


class _Plan:
    clusters = (_Cluster(),)


class _Reps:
    frame_ids = (1,)

    def __init__(self, value):
        self.frame_stats = (_Stats(value),)


def test_digest_ignores_last_bits_but_not_statistics():
    base = output_digest(_Plan(), _Reps(1.0), _Stats(3.0), None)
    assert output_digest(_Plan(), _Reps(1.0 + 1e-15), _Stats(3.0), None) == base
    assert output_digest(_Plan(), _Reps(1.001), _Stats(3.0), None) != base


def _span(name, start, end, children=()):
    record = Span(name)
    record.started, record.ended = start, end
    record.children = list(children)
    return record


def test_layer_self_time_subtracts_nested_bench_spans():
    get = _span(PREFIX + "store.get", 1.0, 1.5)
    program = _span("pipeline.plan", 0.5, 2.0, [get])
    materialize = _span(PREFIX + "pipeline.materialize", 0.0, 3.0, [program])
    collector = Collector()
    collector.roots = [materialize]
    values = layer_metrics(collector, {"jobs_done": 0, "job_attempts": 0}, 2)
    assert values["store.get_s"] == pytest.approx(0.5)
    assert values["pipeline.self_s"] == pytest.approx(2.5)
    assert set(values) == set(LAYER_METRICS)


def test_results_from_another_host_are_flagged():
    from perfbench.compare import platform_mismatch

    here = {"platform": {"machine": "x86_64", "cpu": "A", "python": "3.11.7",
                         "numpy": "2.4.6", "nproc": 2, "calibration_s": 0.008}}
    slower = {"platform": dict(here["platform"], calibration_s=0.011)}
    other = {"platform": dict(here["platform"], cpu="B")}
    assert platform_mismatch(here, slower) == []
    assert platform_mismatch(here, other) == ["cpu"]
