"""MEG010 (cache purity), MEG011 (declared ambient), MEG012 (worker
boundary) fixtures: a passing and at least one failing tree for each.
"""

from __future__ import annotations

from tests.test_lint.conftest import messages, rule_ids

#: The default worker entrypoint module, reused by the MEG012 fixtures.
POOL = {
    "src/repro/parallel/pool.py": """\
        def parallel_map(fn, items):
            return [fn(item) for item in items]
    """,
}


class TestCachePurity:
    STAGES = "src/repro/pipeline/stages.py"

    def test_pure_stage_passes(self, lint_fixture):
        result = lint_fixture(
            {self.STAGES: """\
                def _compute_trace(request, artifacts):
                    return request.scale * 2

                STAGES = (
                    Stage(name="trace", compute=_compute_trace),
                )
            """},
            select=("MEG010",),
        )
        assert result.findings == []

    def test_ambient_env_in_cone_fails_with_chain(self, lint_fixture):
        result = lint_fixture(
            {
                self.STAGES: """\
                    from repro.pipeline.helpers import scale_of

                    def _compute_trace(request, artifacts):
                        return scale_of(request)

                    STAGES = (
                        Stage(name="trace", compute=_compute_trace),
                    )
                """,
                "src/repro/pipeline/helpers.py": """\
                    import os

                    def scale_of(request):
                        return float(os.getenv("MEGSIM_SCALE"))
                """,
            },
            select=("MEG010",),
        )
        assert rule_ids(result) == ["MEG010"]
        text = messages(result)
        assert "stage 'trace'" in text
        assert "ambient env (os.getenv)" in text
        # The witness chain names the route, not just the origin.
        assert (
            "repro.pipeline.stages:_compute_trace -> "
            "repro.pipeline.helpers:scale_of"
        ) in text

    def test_declared_ambient_is_absorbed(self, lint_fixture):
        result = lint_fixture(
            {self.STAGES: """\
                import os

                def _env():  # megsim: ambient(env)
                    return os.getenv("MEGSIM_SCALE")

                def _compute_trace(request, artifacts):
                    return _env()

                STAGES = (
                    Stage(name="trace", compute=_compute_trace),
                )
            """},
            select=("MEG010",),
        )
        assert result.findings == []

    def test_non_module_level_compute_fails(self, lint_fixture):
        result = lint_fixture(
            {self.STAGES: """\
                class Holder:
                    def _compute_trace(self, request, artifacts):
                        return 1

                STAGES = (
                    Stage(name="trace", compute=_missing),
                )
            """},
            select=("MEG010",),
        )
        assert rule_ids(result) == ["MEG010"]
        assert "not a module-level function" in messages(result)


class TestDeclaredAmbient:
    def test_matching_pragma_passes(self, lint_fixture):
        result = lint_fixture(
            {"src/repro/core/m.py": """\
                import os

                def read_env():  # megsim: ambient(env)
                    return os.getenv("X")
            """},
            select=("MEG011",),
        )
        assert result.findings == []

    def test_unknown_kind_is_a_finding(self, lint_fixture):
        result = lint_fixture(
            {"src/repro/core/m.py": """\
                import os

                def read_env():  # megsim: ambient(enviroment)
                    return os.getenv("X")
            """},
            select=("MEG011",),
        )
        assert "unknown effect kind 'enviroment'" in messages(result)

    def test_orphan_pragma_is_a_finding(self, lint_fixture):
        result = lint_fixture(
            {"src/repro/core/m.py": """\
                # megsim: ambient(env)

                VALUE = 1
            """},
            select=("MEG011",),
        )
        assert rule_ids(result) == ["MEG011"]
        assert "attaches to no function" in messages(result)

    def test_stale_pragma_is_a_finding(self, lint_fixture):
        result = lint_fixture(
            {"src/repro/core/m.py": """\
                def pure():  # megsim: ambient(env)
                    return 1
            """},
            select=("MEG011",),
        )
        assert rule_ids(result) == ["MEG011"]
        assert "stale ambient pragma" in messages(result)
        assert "no env effect is reachable" in messages(result)


class TestWorkerBoundary:
    def test_clean_toplevel_worker_passes(self, lint_fixture):
        result = lint_fixture(
            {
                **POOL,
                "src/repro/analysis/run.py": """\
                    from repro.parallel.pool import parallel_map

                    def worker(item):
                        return item * 2

                    def run(items):
                        return parallel_map(worker, items)
                """,
            },
            select=("MEG012",),
        )
        assert result.findings == []

    def test_lambda_is_a_finding(self, lint_fixture):
        result = lint_fixture(
            {
                **POOL,
                "src/repro/analysis/run.py": """\
                    from repro.parallel.pool import parallel_map

                    def run(items):
                        return parallel_map(lambda item: item * 2, items)
                """,
            },
            select=("MEG012",),
        )
        assert rule_ids(result) == ["MEG012"]
        assert "lambda shipped to" in messages(result)

    def test_nested_function_is_a_finding(self, lint_fixture):
        result = lint_fixture(
            {
                **POOL,
                "src/repro/analysis/run.py": """\
                    from repro.parallel.pool import parallel_map

                    def run(items):
                        def worker(item):
                            return item * 2
                        return parallel_map(worker, items)
                """,
            },
            select=("MEG012",),
        )
        assert rule_ids(result) == ["MEG012"]
        assert "is a nested, not a top-level function" in messages(result)

    def test_unresolvable_callable_is_a_finding(self, lint_fixture):
        result = lint_fixture(
            {
                **POOL,
                "src/repro/analysis/run.py": """\
                    from repro.parallel.pool import parallel_map

                    def run(fns, items):
                        return parallel_map(fns[0], items)
                """,
            },
            select=("MEG012",),
        )
        assert rule_ids(result) == ["MEG012"]
        assert "cannot be statically resolved" in messages(result)

    def test_ambient_worker_cone_is_a_finding(self, lint_fixture):
        result = lint_fixture(
            {
                **POOL,
                "src/repro/analysis/run.py": """\
                    from repro.parallel.pool import parallel_map

                    _SEEN = {}

                    def worker(item):
                        _SEEN[item] = True
                        return item

                    def run(items):
                        return parallel_map(worker, items)
                """,
            },
            select=("MEG012",),
        )
        assert "MEG012" in rule_ids(result)
        text = messages(result)
        assert "worker 'repro.analysis.run:worker'" in text
        assert "repro.analysis.run._SEEN" in text
        assert "per-process state" in text

    def test_partial_is_unwrapped_to_its_target(self, lint_fixture):
        result = lint_fixture(
            {
                **POOL,
                "src/repro/analysis/run.py": """\
                    import functools

                    from repro.parallel.pool import parallel_map

                    def worker(offset, item):
                        return item + offset

                    def run(items):
                        return parallel_map(
                            functools.partial(worker, 3), items
                        )
                """,
            },
            select=("MEG012",),
        )
        assert result.findings == []
