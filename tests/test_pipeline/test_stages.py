"""Stage graph structure and fingerprint algebra."""

from __future__ import annotations

import pytest

from repro.core.sampler import MEGsimOptions
from repro.errors import ConfigError
from repro.gpu.config import GPUConfig
from repro.pipeline import (
    STAGES,
    PipelineRequest,
    evaluation_fingerprint,
    stage_fingerprints,
    validate_stages,
)

REQUEST = PipelineRequest.create("hcr", scale=0.02)


class TestGraph:
    def test_declared_order_is_a_valid_topological_order(self):
        validate_stages(STAGES)

    def test_expected_stage_names(self):
        assert [s.name for s in STAGES] == [
            "trace",
            "profile",
            "plan",
            "ground_truth",
            "representatives",
            "estimate",
        ]

    def test_only_the_trace_lives_in_memory_alone(self):
        """Disk residency is the codec: the trace has none, every other
        stage has both hooks."""
        for stage in STAGES:
            derived = stage.name == "trace"
            assert stage.stored is not derived
            assert (stage.encode is None) is derived
            assert (stage.decode is None) is derived

    def test_duplicate_names_rejected(self):
        twice = STAGES + (STAGES[0],)
        with pytest.raises(ConfigError):
            validate_stages(twice)

    def test_forward_reference_rejected(self):
        backwards = tuple(reversed(STAGES))
        with pytest.raises(ConfigError):
            validate_stages(backwards)


#: Stage addresses of hcr at scale 0.05 with the paper defaults.  A
#: change here re-keys every stored artifact: a store written before it
#: would stop serving hits.
PINNED_HCR_005 = {
    "trace": "8f6333c2c419a73d320aa4606aa0aead93b3bde9bd10d7685e824194a22a1c1f",
    "profile": "37dbf977894262707d73ac0bc0bbeee2164912308fb7a2d8bf35c656716bfd5c",
    "plan": "e3ddf3f345c89eddf2ccffe44c28669f1a9ff9378a5bd456307185d7478f3b7b",
    "ground_truth":
        "184bd004c409e477405f2aed465a9f8121360b3a29f95c1ad0e275cd04579c66",
    "representatives":
        "0cc8796be6b8e393451662386fe7194e3b13ee11c315997004c0cd0b330b0597",
    "estimate":
        "74ef2bed03c9b28bece04f25755daaef7f7ee7b3e71f495c9256a77d1df97a03",
}


class TestFingerprints:
    def test_pinned_addresses(self):
        request = PipelineRequest.create("hcr", scale=0.05)
        assert stage_fingerprints(request) == PINNED_HCR_005

    def test_every_stage_gets_a_distinct_digest(self):
        fps = stage_fingerprints(REQUEST)
        assert set(fps) == {s.name for s in STAGES}
        assert len(set(fps.values())) == len(fps)

    def test_deterministic_across_calls(self):
        again = PipelineRequest.create("hcr", scale=0.02)
        assert stage_fingerprints(REQUEST) == stage_fingerprints(again)

    def test_alias_change_invalidates_everything(self):
        base = stage_fingerprints(REQUEST)
        other = stage_fingerprints(PipelineRequest.create("asp", scale=0.02))
        assert all(other[name] != base[name] for name in base)

    def test_option_change_leaves_trace_and_profile_valid(self):
        # Sampler options feed the plan stage; upstream artifacts are
        # reusable, everything downstream of the plan is not.
        base = stage_fingerprints(REQUEST)
        tuned = stage_fingerprints(
            PipelineRequest.create(
                "hcr", scale=0.02, options=MEGsimOptions(threshold=0.9)
            )
        )
        assert tuned["trace"] == base["trace"]
        assert tuned["profile"] == base["profile"]
        assert tuned["plan"] != base["plan"]
        assert tuned["representatives"] != base["representatives"]
        assert tuned["estimate"] != base["estimate"]
        # Ground truth ignores the sampling plan entirely.
        assert tuned["ground_truth"] == base["ground_truth"]

    def test_config_change_leaves_trace_valid_only(self):
        base = stage_fingerprints(REQUEST)
        tweaked = stage_fingerprints(
            PipelineRequest.create(
                "hcr", scale=0.02, config=GPUConfig(rendering_mode="imr")
            )
        )
        assert tweaked["trace"] == base["trace"]
        assert tweaked["profile"] != base["profile"]
        assert tweaked["ground_truth"] != base["ground_truth"]

    def test_evaluation_fingerprint_tracks_estimate(self):
        fps = stage_fingerprints(REQUEST)
        assert evaluation_fingerprint(REQUEST, fps) == evaluation_fingerprint(
            REQUEST
        )
        other = PipelineRequest.create("asp", scale=0.02)
        assert evaluation_fingerprint(other) != evaluation_fingerprint(REQUEST)


class TestRequest:
    def test_none_defaults_resolve_to_canonical_values(self):
        explicit = PipelineRequest.create(
            "hcr", scale=0.02, options=MEGsimOptions(), config=GPUConfig()
        )
        assert stage_fingerprints(explicit) == stage_fingerprints(REQUEST)

    def test_scale_is_normalised_to_float(self):
        assert PipelineRequest.create("hcr", scale=1).scale == 1.0
