"""Whole-sequence workload traces.

A :class:`WorkloadTrace` is the Python analogue of the OpenGL command trace
TEAPOT captures from the Android emulator: every resource (shaders, meshes,
textures) plus the per-frame draw call stream for an entire video sequence.
Both the functional and the cycle-accurate simulator consume this object.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import TraceError
from repro.scene.draw import DrawCall
from repro.scene.frame import Camera, Frame
from repro.scene.mesh import Mesh, Texture
from repro.scene.shader import FilterMode, ShaderKind, ShaderProgram, TextureSample
from repro.scene.vectors import Vec3


@dataclass(frozen=True)
class WorkloadTrace:
    """A complete captured video sequence for one benchmark.

    Attributes:
        name: benchmark alias (e.g. ``"bbr1"``).
        vertex_shaders: vertex shader table, indexed by ``shader_id``.
        fragment_shaders: fragment shader table, indexed by ``shader_id``.
        meshes: mesh table, indexed by ``mesh_id``.
        textures: texture table, indexed by ``texture_id``.
        frames: the rendered frames, in playback order.
    """

    name: str
    vertex_shaders: tuple[ShaderProgram, ...]
    fragment_shaders: tuple[ShaderProgram, ...]
    meshes: tuple[Mesh, ...]
    textures: tuple[Texture, ...]
    frames: tuple[Frame, ...] = field(repr=False)

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Check internal consistency; raise :class:`TraceError` if broken."""
        if not self.frames:
            raise TraceError(f"trace {self.name!r} contains no frames")
        for table, kind in (
            (self.vertex_shaders, ShaderKind.VERTEX),
            (self.fragment_shaders, ShaderKind.FRAGMENT),
        ):
            for index, shader in enumerate(table):
                if shader.kind is not kind:
                    raise TraceError(
                        f"shader at index {index} of the {kind.value} table has "
                        f"kind {shader.kind.value}"
                    )
                if shader.shader_id != index:
                    raise TraceError(
                        f"{kind.value} shader at index {index} has shader_id "
                        f"{shader.shader_id}; tables must be densely indexed"
                    )
        texture_ids = {t.texture_id for t in self.textures}
        for frame_index, frame in enumerate(self.frames):
            if frame.frame_id != frame_index:
                raise TraceError(
                    f"frame at index {frame_index} has frame_id {frame.frame_id}; "
                    "frames must be densely indexed"
                )
            for dc in frame.draw_calls:
                if dc.vertex_shader.shader_id >= len(self.vertex_shaders):
                    raise TraceError(
                        f"frame {frame_index} uses vertex shader "
                        f"{dc.vertex_shader.shader_id} outside the table"
                    )
                if dc.fragment_shader.shader_id >= len(self.fragment_shaders):
                    raise TraceError(
                        f"frame {frame_index} uses fragment shader "
                        f"{dc.fragment_shader.shader_id} outside the table"
                    )
                for tex_id in dc.texture_ids:
                    if tex_id not in texture_ids:
                        raise TraceError(
                            f"frame {frame_index} binds unknown texture {tex_id}"
                        )

    @property
    def frame_count(self) -> int:
        """Number of frames in the sequence."""
        return len(self.frames)

    def __iter__(self) -> Iterator[Frame]:
        return iter(self.frames)

    def __len__(self) -> int:
        return len(self.frames)

    def slice(self, start: int, stop: int) -> "WorkloadTrace":
        """Return a sub-sequence trace covering ``frames[start:stop]``.

        Frame ids are re-based so the slice is itself a valid trace.
        """
        if not 0 <= start < stop <= len(self.frames):
            raise TraceError(
                f"invalid slice [{start}:{stop}] of a {len(self.frames)}-frame trace"
            )
        rebased = tuple(
            Frame(frame_id=i, camera=f.camera, draw_calls=f.draw_calls)
            for i, f in enumerate(self.frames[start:stop])
        )
        return WorkloadTrace(
            name=f"{self.name}[{start}:{stop}]",
            vertex_shaders=self.vertex_shaders,
            fragment_shaders=self.fragment_shaders,
            meshes=self.meshes,
            textures=self.textures,
            frames=rebased,
        )

    # ------------------------------------------------------------------
    # Serialization.  The one trace file format is the replayable
    # megsim-workload v1 capture (repro.workloads.replay), built on
    # these dictionaries; traces are never stored in the artifact store.
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """Return a JSON-serializable representation of the trace."""
        return {
            "name": self.name,
            "vertex_shaders": [_shader_to_dict(s) for s in self.vertex_shaders],
            "fragment_shaders": [_shader_to_dict(s) for s in self.fragment_shaders],
            "meshes": [_mesh_to_dict(m) for m in self.meshes],
            "textures": [_texture_to_dict(t) for t in self.textures],
            "frames": [_frame_to_dict(f) for f in self.frames],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "WorkloadTrace":
        """Rebuild a trace from :meth:`to_dict` output."""
        try:
            vertex_shaders = tuple(
                _shader_from_dict(d, ShaderKind.VERTEX)
                for d in payload["vertex_shaders"]
            )
            fragment_shaders = tuple(
                _shader_from_dict(d, ShaderKind.FRAGMENT)
                for d in payload["fragment_shaders"]
            )
            meshes = tuple(_mesh_from_dict(d) for d in payload["meshes"])
            textures = tuple(_texture_from_dict(d) for d in payload["textures"])
            mesh_table = {m.mesh_id: m for m in meshes}
            frames = tuple(
                _frame_from_dict(d, mesh_table, vertex_shaders, fragment_shaders)
                for d in payload["frames"]
            )
            name = payload["name"]
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceError(f"malformed trace payload: {exc}") from exc
        return cls(
            name=name,
            vertex_shaders=vertex_shaders,
            fragment_shaders=fragment_shaders,
            meshes=meshes,
            textures=textures,
            frames=frames,
        )


def _shader_to_dict(shader: ShaderProgram) -> dict:
    return {
        "shader_id": shader.shader_id,
        "alu_instructions": shader.alu_instructions,
        "texture_samples": [
            {"texture_slot": s.texture_slot, "filter_mode": s.filter_mode.name}
            for s in shader.texture_samples
        ],
        "name": shader.name,
    }


def _shader_from_dict(payload: dict, kind: ShaderKind) -> ShaderProgram:
    samples = tuple(
        TextureSample(
            texture_slot=s["texture_slot"],
            filter_mode=FilterMode[s["filter_mode"]],
        )
        for s in payload["texture_samples"]
    )
    return ShaderProgram(
        shader_id=payload["shader_id"],
        kind=kind,
        alu_instructions=payload["alu_instructions"],
        texture_samples=samples,
        name=payload.get("name", ""),
    )


def _mesh_to_dict(mesh: Mesh) -> dict:
    return {
        "mesh_id": mesh.mesh_id,
        "vertex_count": mesh.vertex_count,
        "primitive_count": mesh.primitive_count,
        "vertex_stride_bytes": mesh.vertex_stride_bytes,
        "bounding_radius": mesh.bounding_radius,
        "base_address": mesh.base_address,
        "closed_surface": mesh.closed_surface,
    }


def _mesh_from_dict(payload: dict) -> Mesh:
    return Mesh(**payload)


def _texture_to_dict(texture: Texture) -> dict:
    return {
        "texture_id": texture.texture_id,
        "width": texture.width,
        "height": texture.height,
        "texel_bytes": texture.texel_bytes,
        "base_address": texture.base_address,
    }


def _texture_from_dict(payload: dict) -> Texture:
    return Texture(**payload)


def _frame_to_dict(frame: Frame) -> dict:
    camera = frame.camera
    return {
        "frame_id": frame.frame_id,
        "camera": {
            "position": camera.position.as_tuple(),
            "fov_y_degrees": camera.fov_y_degrees,
            "orthographic": camera.orthographic,
            "ortho_height": camera.ortho_height,
            "near": camera.near,
        },
        "draw_calls": [
            {
                "mesh_id": dc.mesh.mesh_id,
                "vertex_shader": dc.vertex_shader.shader_id,
                "fragment_shader": dc.fragment_shader.shader_id,
                "texture_ids": list(dc.texture_ids),
                "position": dc.position.as_tuple(),
                "scale": dc.scale,
                "instance_count": dc.instance_count,
                "overdraw": dc.overdraw,
                "opaque": dc.opaque,
                "depth_layer": dc.depth_layer,
            }
            for dc in frame.draw_calls
        ],
    }


def _frame_from_dict(
    payload: dict,
    mesh_table: dict[int, Mesh],
    vertex_shaders: tuple[ShaderProgram, ...],
    fragment_shaders: tuple[ShaderProgram, ...],
) -> Frame:
    cam = payload["camera"]
    camera = Camera(
        position=Vec3(*cam["position"]),
        fov_y_degrees=cam["fov_y_degrees"],
        orthographic=cam["orthographic"],
        ortho_height=cam["ortho_height"],
        near=cam["near"],
    )
    draw_calls = tuple(
        DrawCall(
            mesh=mesh_table[dc["mesh_id"]],
            vertex_shader=vertex_shaders[dc["vertex_shader"]],
            fragment_shader=fragment_shaders[dc["fragment_shader"]],
            texture_ids=tuple(dc["texture_ids"]),
            position=Vec3(*dc["position"]),
            scale=dc["scale"],
            instance_count=dc["instance_count"],
            overdraw=dc["overdraw"],
            opaque=dc["opaque"],
            depth_layer=dc["depth_layer"],
        )
        for dc in payload["draw_calls"]
    )
    return Frame(frame_id=payload["frame_id"], camera=camera, draw_calls=draw_calls)
