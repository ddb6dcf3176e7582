"""Round trips of a sampling plan through the plan stage's store codec.

The plan stage's ``encode``/``decode`` hooks (``to_dict(include_features
=True)`` -> JSON -> ``from_dict``) are the only way a plan is persisted,
so these tests pin exactly what a store hit hands back.
"""

import json

import pytest

from repro.core.sampler import MEGsim
from repro.gpu.cycle_sim import CycleAccurateSimulator
from repro.pipeline import STAGES

PLAN_STAGE = next(stage for stage in STAGES if stage.name == "plan")


def _round_trip(plan):
    """Encode, serialize and decode ``plan`` the way the disk tier does."""
    return PLAN_STAGE.decode(json.loads(json.dumps(PLAN_STAGE.encode(plan))))


@pytest.fixture
def plan(tiny_trace):
    return MEGsim().plan(tiny_trace)


class TestPersistence:
    def test_round_trip_clusters(self, plan):
        restored = _round_trip(plan)
        assert restored.trace_name == plan.trace_name
        assert restored.total_frames == plan.total_frames
        assert restored.representative_frames == plan.representative_frames
        assert [c.members for c in restored.clusters] == [
            c.members for c in plan.clusters
        ]

    def test_round_trip_cluster_sizes(self, plan):
        """The restored clustering reports the real cluster populations.

        Regression: the placeholder KMeansResult used to carry all-zero
        labels, so ``search.clustering.cluster_sizes()`` lumped every
        frame into cluster 0 after a reload.
        """
        restored = _round_trip(plan)
        original_sizes = [len(c.members) for c in plan.clusters]
        assert list(restored.search.clustering.cluster_sizes()) == (
            original_sizes
        )
        assert list(plan.search.clustering.cluster_sizes()) == original_sizes

    def test_round_trip_labels(self, plan):
        restored = _round_trip(plan)
        labels = restored.search.clustering.labels
        for row, cluster in enumerate(restored.clusters):
            assert all(labels[frame] == row for frame in cluster.members)

    def test_round_trip_search_record(self, plan):
        restored = _round_trip(plan)
        assert restored.search.chosen_k == plan.search.chosen_k
        assert restored.search.bic_scores == plan.search.bic_scores

    def test_round_trip_features(self, plan):
        restored = _round_trip(plan)
        assert restored.features.shape == plan.features.shape
        assert restored.features.tolist() == plan.features.tolist()

    def test_restored_plan_estimates(self, plan, tiny_trace):
        """A reloaded plan drives sampling + extrapolation end to end."""
        restored = _round_trip(plan)
        sim = CycleAccurateSimulator()
        reps = sim.simulate(
            tiny_trace, frame_ids=list(restored.representative_frames)
        )
        estimate = restored.estimate(
            dict(zip(reps.frame_ids, reps.frame_stats))
        )
        direct = plan.estimate(dict(zip(reps.frame_ids, reps.frame_stats)))
        assert estimate.cycles == pytest.approx(direct.cycles)

    def test_reduction_factor_preserved(self, plan):
        restored = _round_trip(plan)
        assert restored.reduction_factor == pytest.approx(plan.reduction_factor)
