"""Golden effect summaries of the repo at HEAD, plus the MEG010
acceptance check: injecting an ambient read into a stage's cone is
caught and reported with its call-site chain.
"""

from __future__ import annotations

import json
import shutil

from repro.lint import LintConfig, get_flow, run_lint
from tests.test_lint.conftest import REPO_ROOT

FLOW_RULES = ("MEG010", "MEG011", "MEG012")

#: The obs instrumentation every simulating stage runs under; declared
#: wholesale by `AMBIENT_PATHS`, hence *absorbed*, never ambient.
OBS_ABSORBED = [
    "global-read:repro.obs.trace._active",
    "wall-clock:time.perf_counter",
    "wall-clock:time.time",
]

#: Pinned `FlowAnalysis.digest()` of every stage compute at HEAD.  The
#: digests are line-number-free, so only a real change to a cone's
#: effects (or to the declarations that absorb them) may edit these.
GOLDEN_DIGESTS = {
    "repro.pipeline.stages._compute_trace": {
        "function": "repro.pipeline.stages:_compute_trace",
        "declared": [],
        "direct": [],
        "ambient": [],
        # The capture read in `load_workload_file` is declared ambient:
        # sound because a replay ref's fingerprint IS the capture's
        # content hash, so the file's bytes are in the stage address.
        "absorbed": ["filesystem:.read_text"] + OBS_ABSORBED,
    },
    "repro.pipeline.stages._compute_profile": {
        "function": "repro.pipeline.stages:_compute_profile",
        "declared": [],
        "direct": [],
        "ambient": [],
        "absorbed": OBS_ABSORBED,
    },
    "repro.pipeline.stages._compute_plan": {
        "function": "repro.pipeline.stages:_compute_plan",
        "declared": [],
        "direct": [],
        "ambient": [],
        "absorbed": OBS_ABSORBED,
    },
    "repro.pipeline.stages._compute_ground_truth": {
        "function": "repro.pipeline.stages:_compute_ground_truth",
        "declared": [],
        "direct": [],
        "ambient": [],
        "absorbed": OBS_ABSORBED,
    },
    "repro.pipeline.stages._compute_representatives": {
        "function": "repro.pipeline.stages:_compute_representatives",
        "declared": [],
        "direct": [],
        "ambient": [],
        "absorbed": OBS_ABSORBED,
    },
    "repro.pipeline.stages._compute_estimate": {
        "function": "repro.pipeline.stages:_compute_estimate",
        "declared": [],
        "direct": [],
        "ambient": [],
        "absorbed": [],
    },
}


class TestHeadGoldens:
    def test_every_stage_compute_digest_is_pinned(self, head_flow):
        for qualname, expected in GOLDEN_DIGESTS.items():
            assert head_flow.digest(qualname) == expected, qualname

    def test_stage_cones_are_ambient_clean(self, head_flow):
        # The cache-purity guarantee, stated directly: nothing a stage
        # fingerprint misses flows into any compute cone.
        for qualname in GOLDEN_DIGESTS:
            assert head_flow.ambient[qualname] == frozenset(), qualname

    def test_digest_is_deterministic_across_builds(
        self, head_flow, fresh_head_project
    ):
        rebuilt = get_flow(fresh_head_project)
        assert rebuilt is not head_flow
        for qualname in GOLDEN_DIGESTS:
            assert json.dumps(rebuilt.summary(qualname), sort_keys=True) == (
                json.dumps(head_flow.summary(qualname), sort_keys=True)
            )

    def test_repo_flow_rules_are_clean_at_head(self, head_result):
        flow_findings = [
            f for f in head_result.findings if f.rule_id in FLOW_RULES
        ]
        assert flow_findings == [], "\n".join(
            finding.render() for finding in flow_findings
        )

    def test_worker_ship_sites_are_all_known(self, head_flow):
        # Every callable crossing the pool boundary at HEAD resolves to
        # a top-level function — no lambdas, no unresolved targets.
        for site in head_flow.graph.ship_sites:
            assert site.problem is None, (site.relpath, site.line)
            assert site.target is not None, (site.relpath, site.line)
            assert head_flow.graph.functions[site.target].is_toplevel


class TestInjectedAmbientIsCaught:
    """ISSUE acceptance: an `os.environ` read smuggled into the cone of
    `_compute_profile` (three calls deep, inside the functional
    simulator) must produce a MEG010 finding naming the chain."""

    def test_env_read_in_functional_sim_trips_meg010(self, tmp_path):
        shutil.copytree(REPO_ROOT / "src", tmp_path / "src")
        target = tmp_path / "src/repro/gpu/functional_sim.py"
        source = target.read_text()
        assert "import numpy as np" in source
        source = source.replace(
            "import numpy as np", "import os\nimport numpy as np", 1
        )
        marker = '"""Profile every frame of ``trace``."""'
        assert marker in source
        source = source.replace(
            marker,
            marker + '\n        os.environ.get("MEGSIM_INJECTED")',
            1,
        )
        target.write_text(source)

        result = run_lint(LintConfig(root=tmp_path), select=("MEG010",))
        findings = [f for f in result.findings if f.rule_id == "MEG010"]
        assert findings, "injected ambient env read was not detected"
        text = "\n".join(f.message for f in findings)
        assert "stage 'profile'" in text
        assert "ambient env (os.environ)" in text
        assert (
            "repro.pipeline.stages:_compute_profile -> "
            "repro.gpu.functional_sim:FunctionalSimulator.profile"
        ) in text
