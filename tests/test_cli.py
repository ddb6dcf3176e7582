"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.obs import collecting
from repro.store import STORE_ENV_VAR, get_store, set_store


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_parses(self):
        args = build_parser().parse_args(["run", "table3", "--scale", "0.1"])
        assert args.experiment == "table3"
        assert args.scale == 0.1

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig99"])

    def test_plan_parses(self):
        args = build_parser().parse_args(["plan", "bbr1"])
        assert args.benchmark == "bbr1"


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table3" in out
        assert "bbr1" in out

    def test_run_table1(self, capsys):
        assert main(["run", "table1"]) == 0
        assert "600 MHz" in capsys.readouterr().out

    def test_plan(self, capsys):
        assert main(["plan", "hcr", "--scale", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "representatives" in out
        assert "cluster" in out

    def test_inspect(self, capsys):
        assert main(["inspect", "hcr", "--scale", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "DRAM" in out
        assert "MEGsim" in out

    def test_figures(self, capsys, tmp_path):
        from repro.analysis.experiments import fig6_clusters

        assert main([
            "figures", "hcr", "--frames", "40", "--scale", "0.02",
            "--outdir", str(tmp_path),
        ]) == 0
        assert (tmp_path / "fig5_hcr.pgm").exists()
        assert (tmp_path / "fig6_hcr.ppm").exists()
        out = capsys.readouterr().out
        fig6 = fig6_clusters("hcr", frames=40, scale=0.02)
        assert "(40x40, dark = similar)" in out
        assert f"(k={fig6.data['k']} clusters along the diagonal)" in out


class TestFramesValidation:
    """``--frames`` below 1 is rejected before any work, by the function
    both ``megsim figures`` and the fig5/fig6 experiments pass through."""

    @pytest.mark.parametrize("frames", ["0", "-5"])
    def test_figures_rejects_non_positive_frames(self, frames, tmp_path):
        from repro.errors import ConfigError

        with collecting() as collector:
            with pytest.raises(ConfigError, match="--frames"):
                main([
                    "figures", "hcr", "--frames", frames, "--scale", "0.05",
                    "--outdir", str(tmp_path),
                ])
        assert not list(tmp_path.iterdir())
        assert not any(
            name.startswith("pipeline.") for name in collector.counters
        )

    @pytest.mark.parametrize("experiment", ["fig5_similarity", "fig6_clusters"])
    def test_experiments_reject_non_positive_frames(self, experiment):
        from repro.analysis import experiments
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="--frames"):
            getattr(experiments, experiment)("hcr", frames=0, scale=0.05)


class TestCommandsUseTheStore:
    """``plan`` and ``figures`` read their stages through the active store."""

    @pytest.fixture
    def store_root(self, tmp_path, monkeypatch):
        root = tmp_path / "store"
        monkeypatch.setenv(STORE_ENV_VAR, str(root))
        set_store(None)
        yield root
        set_store(None)

    def test_plan_hits_the_store_on_a_second_run(self, capsys, store_root):
        assert main(["plan", "hcr", "--scale", "0.05"]) == 0
        first = capsys.readouterr().out
        set_store(None)  # a fresh process: only the disk tier remains
        with collecting() as collector:
            assert main(["plan", "hcr", "--scale", "0.05"]) == 0
        assert capsys.readouterr().out == first
        assert collector.counters["pipeline.hits.plan"] == 1
        assert not any(
            name.startswith("pipeline.computed.")
            for name in collector.counters
        )

    def test_plan_no_store_leaves_the_store_empty(self, capsys, store_root):
        assert main(["plan", "hcr", "--scale", "0.05", "--no-store"]) == 0
        assert "representatives" in capsys.readouterr().out
        assert not store_root.exists() or not any(store_root.rglob("*.json"))
        # Without the flag the same command does write to the store.
        assert main(["plan", "hcr", "--scale", "0.05"]) == 0
        assert "plan" in get_store().stats()["disk"]["kinds"]

    def test_figures_reads_only_the_profile(self, capsys, store_root, tmp_path):
        with collecting() as collector:
            assert main([
                "figures", "hcr", "--frames", "40", "--scale", "0.05",
                "--outdir", str(tmp_path / "out"),
            ]) == 0
        assert get_store().stats()["disk"]["kinds"].keys() == {"profile"}
        assert "pipeline.computed.ground_truth" not in collector.counters

    def test_jobs_flag_is_gone_from_serial_commands(self):
        for command in (["plan", "hcr"], ["figures", "hcr"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(command + ["--jobs", "2"])


@pytest.fixture
def _clean_registry():
    from repro.workloads.registry import _DYNAMIC

    saved = dict(_DYNAMIC)
    yield
    _DYNAMIC.clear()
    _DYNAMIC.update(saved)


class TestWorkloadCommands:
    def test_workloads_list(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        for key in ("hcr", "hcr-osc", "hcr-flip", "hcr-drift"):
            assert key in out
        assert "[scripted " in out

    def test_workloads_describe(self, capsys):
        assert main(["workloads", "describe", "hcr-osc"]) == 0
        out = capsys.readouterr().out
        assert "scripted" in out
        assert "fingerprint" in out
        assert "2000" in out

    def test_workloads_describe_unknown(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="available"):
            main(["workloads", "describe", "doom"])

    def test_list_mentions_workloads(self, capsys):
        assert main(["list"]) == 0
        assert "hcr-osc" in capsys.readouterr().out

    def test_export_trace_round_trips(self, capsys, tmp_path, _clean_registry):
        out = tmp_path / "cap.jsonl"
        assert main([
            "export-trace", "hcr", "--scale", "0.05", "--out", str(out),
        ]) == 0
        assert "100-frame capture" in capsys.readouterr().out

        assert main(["plan", "--workload", str(out), "--scale", "1.0"]) == 0
        planned = capsys.readouterr().out
        assert "registered capture" in planned
        assert "replay:cap" in planned
        assert "representatives" in planned

    def test_plan_accepts_scripted_key(self, capsys, _clean_registry):
        assert main(["plan", "hcr-flip", "--scale", "0.05"]) == 0
        assert "representatives" in capsys.readouterr().out

    def test_run_rejects_workload_on_suite_experiments(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="fig5"):
            main(["run", "table3", "--workload", "hcr-osc"])


class TestScaleValidation:
    def test_non_positive_scale_names_the_flag(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="--scale must be > 0"):
            main(["plan", "hcr", "--scale", "0"])

    def test_sub_frame_scale_names_the_flag(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="--scale 0.001"):
            main(["plan", "hcr", "--scale", "0.001"])
