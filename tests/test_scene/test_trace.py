"""Tests for trace validation, slicing and serialization."""

import pytest

from repro.errors import TraceError
from repro.scene.frame import Camera, Frame
from repro.scene.shader import ShaderKind, ShaderProgram
from repro.scene.trace import WorkloadTrace


class TestValidation:
    def test_valid_trace(self, tiny_trace):
        assert tiny_trace.frame_count == 6

    def test_empty_frames_rejected(self, vertex_shader, fragment_shader,
                                   simple_mesh, texture):
        with pytest.raises(TraceError):
            WorkloadTrace(
                name="empty",
                vertex_shaders=(vertex_shader,),
                fragment_shaders=(fragment_shader,),
                meshes=(simple_mesh,),
                textures=(texture,),
                frames=(),
            )

    def test_wrong_kind_in_table(self, tiny_trace, fragment_shader):
        with pytest.raises(TraceError):
            WorkloadTrace(
                name="bad",
                vertex_shaders=(fragment_shader,),  # fragment in vertex table
                fragment_shaders=tiny_trace.fragment_shaders,
                meshes=tiny_trace.meshes,
                textures=tiny_trace.textures,
                frames=tiny_trace.frames,
            )

    def test_non_dense_shader_ids(self, tiny_trace, texture, simple_mesh):
        misnumbered = ShaderProgram(
            shader_id=5, kind=ShaderKind.VERTEX, alu_instructions=4
        )
        with pytest.raises(TraceError):
            WorkloadTrace(
                name="bad",
                vertex_shaders=(misnumbered,),
                fragment_shaders=tiny_trace.fragment_shaders,
                meshes=(simple_mesh,),
                textures=(texture,),
                frames=tiny_trace.frames,
            )

    def test_non_dense_frame_ids(self, tiny_trace):
        shuffled = (tiny_trace.frames[1],) + tiny_trace.frames[2:] + (
            tiny_trace.frames[0],
        )
        with pytest.raises(TraceError):
            WorkloadTrace(
                name="bad",
                vertex_shaders=tiny_trace.vertex_shaders,
                fragment_shaders=tiny_trace.fragment_shaders,
                meshes=tiny_trace.meshes,
                textures=tiny_trace.textures,
                frames=shuffled,
            )

    def test_unknown_texture_rejected(self, tiny_trace):
        with pytest.raises(TraceError):
            WorkloadTrace(
                name="bad",
                vertex_shaders=tiny_trace.vertex_shaders,
                fragment_shaders=tiny_trace.fragment_shaders,
                meshes=tiny_trace.meshes,
                textures=(),  # frames bind texture 0
                frames=tiny_trace.frames,
            )


class TestIteration:
    def test_len_and_iter(self, tiny_trace):
        assert len(tiny_trace) == 6
        assert [f.frame_id for f in tiny_trace] == list(range(6))


class TestSlice:
    def test_slice_rebases_frame_ids(self, tiny_trace):
        part = tiny_trace.slice(2, 5)
        assert part.frame_count == 3
        assert [f.frame_id for f in part] == [0, 1, 2]

    def test_slice_shares_resources(self, tiny_trace):
        part = tiny_trace.slice(0, 2)
        assert part.meshes is tiny_trace.meshes
        assert part.textures is tiny_trace.textures

    @pytest.mark.parametrize("bounds", [(-1, 3), (3, 3), (0, 7), (5, 2)])
    def test_invalid_bounds(self, tiny_trace, bounds):
        with pytest.raises(TraceError):
            tiny_trace.slice(*bounds)


class TestSerialization:
    def test_round_trip_dict(self, tiny_trace):
        rebuilt = WorkloadTrace.from_dict(tiny_trace.to_dict())
        assert rebuilt.name == tiny_trace.name
        assert rebuilt.frame_count == tiny_trace.frame_count
        assert rebuilt.vertex_shaders == tiny_trace.vertex_shaders
        assert rebuilt.fragment_shaders == tiny_trace.fragment_shaders
        assert rebuilt.meshes == tiny_trace.meshes
        assert rebuilt.textures == tiny_trace.textures

    def test_round_trip_preserves_draw_calls(self, tiny_trace):
        rebuilt = WorkloadTrace.from_dict(tiny_trace.to_dict())
        original = tiny_trace.frames[0].draw_calls[0]
        restored = rebuilt.frames[0].draw_calls[0]
        assert restored.position == original.position
        assert restored.scale == original.scale
        assert restored.overdraw == original.overdraw
        assert restored.opaque == original.opaque

    def test_round_trip_file(self, tiny_trace, tmp_path):
        """The one trace file format: a megsim-workload v1 capture."""
        from repro.workloads.replay import (
            export_workload_file,
            load_workload_file,
        )

        path = tmp_path / "trace.jsonl"
        export_workload_file(tiny_trace, path)
        rebuilt = load_workload_file(path).trace
        assert rebuilt.frame_count == tiny_trace.frame_count
        assert rebuilt.to_dict() == tiny_trace.to_dict()

    def test_malformed_payload(self):
        with pytest.raises(TraceError):
            WorkloadTrace.from_dict({"name": "x"})
