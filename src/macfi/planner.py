"""Compile a ModelGraph into per-layer MAC micro-op programs.

Mapping policy (NVDLA direct-convolution style): output channels are
assigned round-robin to MAC units (channel o -> unit o mod units); within a
micro-op the lane slots carry consecutive input channels for one
(o, y, x, i, j) kernel position. Micro-ops are ordered row-major over
(o, y, x, channel-group, i, j), which also defines the global cycle index
used by pulse faults. Trailing lanes are idle when Cin is not a multiple of
the lane count; padded taps stay active with activation 0.

relu/maxpool/gavgpool/add do not use MAC lanes and are marked as
reference-delegated programs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError, UnsupportedLayer
from .model import INPUT_ID, LayerSpec, ModelGraph, propagate_shapes, topo_order

MAC_KINDS = ("conv", "fc")


@dataclass(frozen=True)
class ArrayConfig:
    """Geometry of the emulated multiplier grid."""

    units: int = 8
    lanes: int = 8

    def __post_init__(self):
        if self.units < 1 or self.lanes < 1:
            raise ShapeError(f"units and lanes must be >= 1, got {self.units}, {self.lanes}")

    @property
    def total_lanes(self) -> int:
        return self.units * self.lanes


@dataclass(frozen=True)
class LaneOp:
    """One operand pair: activation coordinate (None when a padded zero) and weight coordinate."""

    act: tuple[int, int, int] | None  # (c, iy, ix)
    weight: tuple[int, int, int, int]  # (o, c, i, j)


@dataclass(frozen=True)
class MacMicroOp:
    """One cycle of one MAC unit; lanes[l] is None for an idle slot."""

    unit: int
    layer_id: str
    dest: tuple[int, int, int]  # (o, y, x)
    group: int  # accumulate-group id == flat destination index
    lanes: tuple[LaneOp | None, ...]


@dataclass
class PackedOps:
    """Flat array form of a layer's micro-ops (same order as MacMicroOp lists).

    act_idx: -2 = idle lane, -1 = padded zero tap, else flat (c*H+iy)*W+ix.
    w_idx: -1 = idle lane, else flat ((o*Cin+c)*K+i)*K+j.
    """

    unit: np.ndarray  # int32 (n,)
    dest: np.ndarray  # int32 (n,)
    act_idx: np.ndarray  # int32 (n, lanes)
    w_idx: np.ndarray  # int32 (n, lanes)
    in_shape: tuple[int, int, int]
    out_shape: tuple[int, int, int]
    k: int

    @property
    def n_ops(self) -> int:
        return int(self.unit.shape[0])


def _pack_mac_layer(
    layer: LayerSpec, in_shape: tuple[int, int, int], cfg: ArrayConfig
) -> PackedOps:
    c_in, h, w = in_shape
    k = layer.k if layer.kind == "conv" else 1
    stride = layer.stride if layer.kind == "conv" else 1
    pad = layer.pad if layer.kind == "conv" else 0
    cout = layer.cout
    hout = (h + 2 * pad - k) // stride + 1
    wout = (w + 2 * pad - k) // stride + 1
    groups = -(-c_in // cfg.lanes)  # ceil(Cin / lanes)

    # Row-major (o, y, x, channel-group, i, j); one row per micro-op.
    o, y, x, g, i, j = (
        a.reshape(-1).astype(np.int64)
        for a in np.indices((cout, hout, wout, groups, k, k))
    )
    n = o.shape[0]
    unit = (o % cfg.units).astype(np.int32)
    dest = ((o * hout + y) * wout + x).astype(np.int32)
    iy = y * stride - pad + i
    ix = x * stride - pad + j
    in_bounds = (iy >= 0) & (iy < h) & (ix >= 0) & (ix < w)

    act_idx = np.full((n, cfg.lanes), -2, dtype=np.int32)
    w_idx = np.full((n, cfg.lanes), -1, dtype=np.int32)
    for lane in range(cfg.lanes):
        c = g * cfg.lanes + lane
        carried = c < c_in
        flat_act = (c * h + iy) * w + ix
        act_idx[:, lane] = np.where(carried, np.where(in_bounds, flat_act, -1), -2)
        w_idx[:, lane] = np.where(carried, ((o * c_in + c) * k + i) * k + j, -1)
    return PackedOps(unit, dest, act_idx, w_idx, in_shape, (cout, hout, wout), k)


def _decode_micro_op(packed: PackedOps, row: int, layer_id: str) -> MacMicroOp:
    c_in, h, w = packed.in_shape
    cout, hout, wout = packed.out_shape
    k = packed.k
    d = int(packed.dest[row])
    o, rem = divmod(d, hout * wout)
    y, x = divmod(rem, wout)
    lanes = []
    for lane in range(packed.act_idx.shape[1]):
        ai = int(packed.act_idx[row, lane])
        wi = int(packed.w_idx[row, lane])
        if ai == -2:
            lanes.append(None)
            continue
        wo, wrem = divmod(wi, c_in * k * k)
        c, wrem = divmod(wrem, k * k)
        i, j = divmod(wrem, k)
        act = None
        if ai >= 0:
            ac, arem = divmod(ai, h * w)
            iy, ix = divmod(arem, w)
            act = (ac, iy, ix)
        lanes.append(LaneOp(act, (wo, c, i, j)))
    return MacMicroOp(int(packed.unit[row]), layer_id, (o, y, x), d, tuple(lanes))


def plan_layer(
    layer: LayerSpec, in_shape: tuple[int, int, int], cfg: ArrayConfig
) -> list[MacMicroOp]:
    """Micro-op list for one conv/fc layer (object view of the packed form)."""
    if layer.kind not in MAC_KINDS:
        raise UnsupportedLayer(f"plan_layer only handles conv/fc, got {layer.kind!r}", layer.id)
    packed = _pack_mac_layer(layer, in_shape, cfg)
    return [_decode_micro_op(packed, r, layer.id) for r in range(packed.n_ops)]


@dataclass
class LayerProgram:
    """One entry of an ExecutionPlan: a MAC program or a reference-delegated op."""

    layer: LayerSpec
    in_shape: tuple[int, int, int]
    out_shape: tuple[int, int, int]
    out_scale: float
    packed: PackedOps | None = None  # None for delegated layers
    weights_flat: np.ndarray | None = None  # int8, (Cout*Cin*K*K,)
    bias: np.ndarray | None = None  # int32, (Cout,)

    @property
    def is_mac(self) -> bool:
        return self.packed is not None

    @property
    def n_ops(self) -> int:
        return self.packed.n_ops if self.packed is not None else 0

    def micro_ops(self) -> list[MacMicroOp]:
        if self.packed is None:
            return []
        return [_decode_micro_op(self.packed, r, self.layer.id) for r in range(self.packed.n_ops)]


@dataclass
class ExecutionPlan:
    cfg: ArrayConfig
    programs: list[LayerProgram]  # topo order
    input_shape: tuple[int, int, int]
    input_scale: float
    output: str
    classes: int
    by_id: dict[str, LayerProgram] = field(init=False, repr=False)

    def __post_init__(self):
        self.by_id = {p.layer.id: p for p in self.programs}

    @property
    def total_micro_ops(self) -> int:
        return sum(p.n_ops for p in self.programs)


def plan_model(g: ModelGraph, cfg: ArrayConfig | None = None) -> ExecutionPlan:
    """Compile the whole graph; programs appear in deterministic topo order."""
    cfg = cfg or ArrayConfig()
    env = propagate_shapes(g)
    programs = []
    for layer in topo_order(g):
        in_shape = env[layer.inputs[0]][0]
        out_shape, out_scale = env[layer.id]
        if layer.kind in MAC_KINDS:
            packed = _pack_mac_layer(layer, in_shape, cfg)
            programs.append(
                LayerProgram(
                    layer,
                    in_shape,
                    out_shape,
                    out_scale,
                    packed=packed,
                    weights_flat=np.ascontiguousarray(layer.weights, dtype=np.int8).reshape(-1),
                    bias=np.ascontiguousarray(layer.bias, dtype=np.int32),
                )
            )
        else:
            programs.append(LayerProgram(layer, in_shape, out_shape, out_scale))
    return ExecutionPlan(cfg, programs, g.input_shape, g.input_scale, g.output, g.classes)


@dataclass
class PlanStats:
    micro_ops_per_unit: np.ndarray  # int64 (units,)
    lane_activity: np.ndarray  # int64 (units, lanes): operand-carrying slots per lane
    idle_slots: int


def plan_stats(plan: ExecutionPlan) -> PlanStats:
    units, lanes = plan.cfg.units, plan.cfg.lanes
    per_unit = np.zeros(units, dtype=np.int64)
    activity = np.zeros((units, lanes), dtype=np.int64)
    idle = 0
    for prog in plan.programs:
        if not prog.is_mac:
            continue
        packed = prog.packed
        per_unit += np.bincount(packed.unit, minlength=units)
        for lane in range(lanes):
            carried = packed.act_idx[:, lane] != -2
            activity[:, lane] += np.bincount(packed.unit[carried], minlength=units)
            idle += int((~carried).sum())
    return PlanStats(per_unit, activity, idle)


def _format_lane(op: LaneOp | None) -> str:
    if op is None:
        return "idle"
    o, c, i, j = op.weight
    if op.act is None:
        return f"pad*w[{o},{c},{i},{j}]"
    ac, iy, ix = op.act
    return f"a[{ac},{iy},{ix}]*w[{o},{c},{i},{j}]"


def dump_plan(plan: ExecutionPlan) -> str:
    """One micro-op per line; byte-stable for golden-file comparisons."""
    lines = []
    for prog in plan.programs:
        lid = prog.layer.id
        for op in prog.micro_ops():
            o, y, x = op.dest
            lanes = ",".join(_format_lane(l) for l in op.lanes)
            lines.append(f"unit={op.unit} dest={lid}:{o},{y},{x} group={op.group} lanes=[{lanes}]")
    return "\n".join(lines) + ("\n" if lines else "")
