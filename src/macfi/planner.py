"""Compile a ModelGraph into per-layer MAC micro-op programs.

Mapping policy (NVDLA direct-convolution style): output channels are
assigned round-robin to MAC units (channel o -> unit o mod units); within a
micro-op the lane slots carry consecutive input channels for one
(o, y, x, i, j) kernel position. Micro-ops are ordered row-major over
(o, y, x, channel-group, i, j), which also defines the global cycle index
used by pulse faults. Trailing lanes are idle when Cin is not a multiple of
the lane count; padded taps stay active with activation 0.

Each MAC layer's conv geometry (K, stride, pad over the input's H x W) is
read in one place, its tap index (LayerProgram.taps): which input position
within a channel tap (i, j) of output (y, x) reads, or the padding. The
packed rows, both closed forms in macarray and dump_plan are built from it.

plan_model builds no packed rows: a program counts its micro-ops from its
shapes, and packs and index-checks its rows the first time they are read
(LayerProgram.packed), at most once. Only a traced Emulator's events and
per-step runs (traced, pulse or over the saturation bound) read them.

relu/maxpool/gavgpool/add do not use MAC lanes and are marked as
reference-delegated programs.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ShapeError
from .model import LayerSpec, ModelGraph, propagate_shapes, topo_order
from .qtensor import LANES

MAC_KINDS = ("conv", "fc")


@dataclass(frozen=True)
class ArrayConfig:
    """Geometry of the emulated multiplier grid."""

    units: int = 8
    lanes: int = LANES

    def __post_init__(self):
        if self.units < 1 or self.lanes < 1:
            raise ShapeError(f"units and lanes must be >= 1, got {self.units}, {self.lanes}")


@dataclass
class PackedOps:
    """A layer's per-step program: one row per micro-op, in cycle order.

    unit: the MAC unit of the row; dest: flat (o*Hout+y)*Wout+x output index.
    act_idx: -2 = idle lane, -1 = padded zero tap, else flat (c*H+iy)*W+ix.
    w_idx: -1 = idle lane, else flat ((o*Cin+c)*K+i)*K+j.
    """

    unit: np.ndarray  # int32 (n,)
    dest: np.ndarray  # int32 (n,)
    act_idx: np.ndarray  # int32 (n, lanes)
    w_idx: np.ndarray  # int32 (n, lanes)


def _tap_index(layer: LayerSpec, in_shape: tuple[int, int, int],
               out_shape: tuple[int, int, int]) -> np.ndarray:
    """intp (K*K, Hout*Wout): 1 + the flat iy*W + ix that tap (i, j) of
    output (y, x) reads within a channel, or 0 where it falls in the padding."""
    _, h, w = in_shape
    _, hout, wout = out_shape
    k, stride, pad = layer.k or 1, layer.stride or 1, layer.pad or 0  # fc: 1, 1, 0
    i, j, y, x = np.indices((k, k, hout, wout)).reshape(4, k * k, hout * wout)
    iy = y * stride - pad + i
    ix = x * stride - pad + j
    return np.where((iy >= 0) & (iy < h) & (ix >= 0) & (ix < w), iy * w + ix + 1, 0)


def _pack_mac_layer(layer: LayerSpec, in_shape: tuple[int, int, int], taps: np.ndarray,
                    cfg: ArrayConfig) -> PackedOps:
    c_in, h, w = in_shape
    kk, hw = taps.shape
    groups = -(-c_in // cfg.lanes)  # ceil(Cin / lanes)

    # Row-major (o, y, x, channel-group, i, j); one row per micro-op.
    o, pos, g, t = (a.reshape(-1) for a in np.indices((layer.cout, hw, groups, kk)))
    n = o.shape[0]
    unit = (o % cfg.units).astype(np.int32)
    dest = (o * hw + pos).astype(np.int32)
    tap = taps[t, pos]

    act_idx = np.full((n, cfg.lanes), -2, dtype=np.int32)
    w_idx = np.full((n, cfg.lanes), -1, dtype=np.int32)
    for lane in range(cfg.lanes):
        c = g * cfg.lanes + lane
        carried = c < c_in
        act_idx[:, lane] = np.where(carried, np.where(tap > 0, c * h * w + tap - 1, -1), -2)
        w_idx[:, lane] = np.where(carried, (o * c_in + c) * kk + t, -1)
    return PackedOps(unit, dest, act_idx, w_idx)


def _too_large(layer: LayerSpec, in_shape: tuple[int, int, int],
               out_shape: tuple[int, int, int], action: str = "plan") -> ShapeError:
    return ShapeError(f"layer {layer.id!r} ({in_shape} in, {out_shape} out) is "
                      f"too large to {action}", layer.id)


def _check_indices(prog: LayerProgram, p: PackedOps):
    """One pass over a program's index values, which the compiled kernel
    dereferences unchecked: unit < units, dest < Cout*Hout*Wout,
    act_idx in [-2, Cin*H*W), w_idx in [-1, n_weights)."""
    for name, arr, lo, hi in (("unit", p.unit, 0, prog.cfg.units),
                              ("dest", p.dest, 0, math.prod(prog.out_shape)),
                              ("act_idx", p.act_idx, -2, math.prod(prog.in_shape)),
                              ("w_idx", p.w_idx, -1, prog.weights_flat.size)):
        if arr.size and (int(arr.min()) < lo or int(arr.max()) >= hi):
            raise ShapeError(f"packed {name} values outside [{lo}, {hi})", prog.layer.id)


@dataclass
class LayerProgram:
    """One entry of an ExecutionPlan: a MAC program or a reference-delegated op."""

    layer: LayerSpec
    in_shape: tuple[int, int, int]
    out_shape: tuple[int, int, int]
    out_scale: float
    cfg: ArrayConfig | None = None  # the plan's; None for delegated layers
    weights_flat: np.ndarray | None = None  # int8, (Cout*Cin*K*K,)
    bias: np.ndarray | None = None  # int32, (Cout,)
    # intp (K*K, Hout*Wout) from _tap_index, the one record of the layer's
    # conv geometry: the packed rows, the Emulator's closed form, the
    # batched im2col and dump_plan all read it. None for delegated layers.
    taps: np.ndarray | None = None

    @property
    def is_mac(self) -> bool:
        return self.taps is not None

    @property
    def n_ops(self) -> int:
        """Cout*Hout*Wout*ceil(Cin/lanes)*K*K micro-ops, counted from shapes."""
        if self.taps is None:
            return 0
        return self.out_shape[0] * self.taps.size * -(-self.in_shape[0] // self.cfg.lanes)

    @cached_property
    def packed(self) -> PackedOps | None:
        """A per-step run's rows (None for delegated layers), packed and
        index-checked on first read, before any kernel reads an index.
        Rows that cannot be allocated are a ShapeError naming the layer."""
        if self.taps is None:
            return None
        try:
            p = _pack_mac_layer(self.layer, self.in_shape, self.taps, self.cfg)
        except (MemoryError, ValueError) as exc:  # numpy: cannot allocate, or too big
            raise _too_large(self.layer, self.in_shape, self.out_shape) from exc
        _check_indices(self, p)
        return p


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
            try:
                taps = _tap_index(layer, in_shape, out_shape)
            except (MemoryError, ValueError) as exc:  # numpy: cannot allocate, or too big
                raise _too_large(layer, in_shape, out_shape) from exc
            programs.append(LayerProgram(
                layer,
                in_shape,
                out_shape,
                out_scale,
                cfg=cfg,
                weights_flat=np.ascontiguousarray(layer.weights, dtype=np.int8).reshape(-1),
                bias=np.ascontiguousarray(layer.bias, dtype=np.int32),
                taps=taps,
            ))
        else:
            programs.append(LayerProgram(layer, in_shape, out_shape, out_scale))
    return ExecutionPlan(cfg, programs, g.input_shape, g.input_scale, g.output, g.classes)


@dataclass
class PlanStats:
    micro_ops_per_unit: np.ndarray  # int64 (units,)
    lane_activity: np.ndarray  # int64 (units, lanes): operand-carrying slots per lane
    idle_slots: int


def plan_stats(plan: ExecutionPlan) -> PlanStats:
    """Counted from layer shapes: output channel o runs on unit o mod units,
    input channel c on lane c mod lanes, ceil(Cin/lanes) micro-ops per tap."""
    units, lanes = plan.cfg.units, plan.cfg.lanes
    per_unit = np.zeros(units, dtype=np.int64)
    activity = np.zeros((units, lanes), dtype=np.int64)
    for prog in plan.programs:
        if prog.is_mac:
            cin, cout = prog.in_shape[0], prog.out_shape[0]
            n_o = np.bincount(np.arange(cout) % units, minlength=units)
            n_c = np.bincount(np.arange(cin) % lanes, minlength=lanes)
            activity += np.outer(n_o, n_c) * prog.taps.size  # taps: K*K x Hout*Wout
            per_unit += n_o * prog.taps.size * -(-cin // lanes)
    return PlanStats(per_unit, activity, int(per_unit.sum()) * lanes - int(activity.sum()))


def _format_rows(prog: LayerProgram):
    """dump_plan lines of one MAC program, each ending in a newline, straight
    from the loop indices (o, y, x, group, i, j) and the layer's tap index."""
    (c_in, h, w), wout = prog.in_shape, prog.out_shape[2]
    units, lanes, k = prog.cfg.units, prog.cfg.lanes, math.isqrt(len(prog.taps))
    # act[c][v]: channel c's operand at tap value v (0 = padding)
    act = [["pad"] + [f"a[{c},{iy},{ix}]" for iy in range(h) for ix in range(w)]
           for c in range(c_in)]
    # per lane group: its input channels, then one ",idle" per lane past Cin
    groups = [(range(c0, min(c0 + lanes, c_in)), ",idle" * max(0, c0 + lanes - c_in) + "]\n")
              for c0 in range(0, c_in, lanes)]
    taps, lid = prog.taps.T.tolist(), prog.layer.id
    for o in range(prog.out_shape[0]):
        wt = [[f"*w[{o},{c},{i},{j}]" for i in range(k) for j in range(k)] for c in range(c_in)]
        for pos, tap in enumerate(taps):
            y, x = divmod(pos, wout)
            head = f"unit={o % units} dest={lid}:{o},{y},{x} group={o * len(taps) + pos} lanes=["
            for cs, tail in groups:
                for t, v in enumerate(tap):
                    yield head + ",".join(act[c][v] + wt[c][t] for c in cs) + tail


def host_memory() -> int:
    """Bytes of physical memory on this host; sys.maxsize where sysconf is missing."""
    return (os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
            if hasattr(os, "sysconf") else sys.maxsize)


def _dump_bytes(prog: LayerProgram) -> int:
    """Most bytes dump_plan holds at once for a MAC program's lines, counted
    from its shapes: each line as a str in a list, then their join. Every
    field is printed at the width of a value no index of it reaches."""
    (c_in, h, w), (c_out, hout, wout) = prog.in_shape, prog.out_shape
    k = math.isqrt(len(prog.taps))
    head = (f"unit={prog.cfg.units} dest={prog.layer.id}:{c_out},{hout},{wout} "
            f"group={c_out * hout * wout} lanes=[]\n")
    lane = f"a[{c_in},{h},{w}]*w[{c_out},{c_in},{k},{k}],"
    return prog.n_ops * (2 * (len(head) + prog.cfg.lanes * len(lane)) + sys.getsizeof("") + 8)


def dump_plan(plan: ExecutionPlan) -> str:
    """One micro-op per line; byte-stable for golden-file comparisons. A dump
    that cannot fit in the host's physical memory (by _dump_bytes, before any
    line is made) or that runs out of memory while built is a ShapeError
    naming the layer with the most micro-ops."""
    progs = [p for p in plan.programs if p.is_mac]
    big = max(progs, key=lambda p: p.n_ops, default=None)
    try:
        if sum(map(_dump_bytes, progs)) > host_memory():
            raise MemoryError
        return "".join([line for p in progs for line in _format_rows(p)])
    except MemoryError as exc:
        raise _too_large(big.layer, big.in_shape, big.out_shape, "dump") from exc
