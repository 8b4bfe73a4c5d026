"""Emulated MAC-array execution with per-lane output overrides.

The grid is units x lanes int8 multipliers; every multiplier output passes a
fault mux that can force the 18-bit lane value (see faultctl). Idle lanes are
gated: a fault on a lane that carries no operands this cycle cannot fire.
Padded-zero taps do carry operands, so their muxes are live.

Two interchangeable kernels execute the packed layer programs one micro-op
at a time: a hand-written C extension (macfi._kernel) and a pure-Python twin
(macfi._kernel_py). The extension is used whenever it is built; an install
without it falls back to the Python kernel, which gives bit-identical results.
A layer's packed rows are built and index-checked on first read
(LayerProgram.packed), before either kernel reads an index.
``_kernel_py.engaged`` defines the mux over a whole program at once (the C
kernel is its twin); it reads no activation, so a traced Emulator reads its
events from that mask once, when built, and tracing adds no execution path.

Under the planner's mapping (output channel o on unit o mod units, input
channel c on lane c mod lanes) a permanent fault has a closed form: a
faulted lane drops the products of its (o, c) weights and adds its forced
value once per carried slot. Each MAC layer is then a matmul, exact
whenever no partial sum can saturate (_fast_runs decides both). An untraced
Emulator whose map has the closed form runs each MAC layer as one float64
matmul over im2col columns, gathered from the layer input joined to a
stored zero column by one concatenate; a traced one, or one whose map has a
pulse or could saturate, runs the per-step kernel. Either way the non-MAC
layers and requantization are qtensor's int8 kernels, shared with the
reference and batch_logits. Both closed forms gather their im2col columns
through the plan's tap index (LayerProgram.taps), the one record of each
layer's conv geometry that the packed rows are built from too;
they never build the rows.

Emulator runs one sample at a time. batch_logits is the one multi-sample
path, for macfi infer, campaigns and API callers alike: it evaluates R fault
maps over S samples at once, and a run without the closed form takes the
per-step kernel sample by sample, through Emulator.run.
The matmul runs in float32 when 128 * max_o sum |W[o]| + max |const| <= 2^24
and in float64 otherwise: every partial sum is an integer subset sum of
int8 x int8 products (|w * x| <= 128 |w|) plus perhaps const, so it never
exceeds that bound, and float32 holds every integer up to 2^24 exactly.
A float32 accumulator is requantized in place when m is a power of two,
for then acc * m is exact in float32 (qtensor.scales_in_place), and through
a float64 copy otherwise; a float64 one is always requantized in place.
Values no fault can reach (the input and the layers fed only by it) carry
no run axis and are computed once per sample block; a MAC layer reading
them keeps its golden accumulators, the sum of its lane partials, and
gets a run's faulted channels from them: a channel drops the partials of
the lane groups its unit faults, so its accumulator is golden minus those
partials plus the run's constants, each running difference a subset sum
of the channel's own products (exact, as above). One GEMM over every
channel's lane partials serves a run block only where its drops outnumber
the channels, so a run's share of a tile is at most Cout rows. That output, and relu, maxpool and gavgpool of it, differ
from golden only on the faulted units' channels, which each run carries
as a slab beside the golden tensor, unless a run of its block faults
every channel (then the block is dense; when every run of the call does,
the value is dense and has no golden tensor). Every value is
channel-major, a dense one laid out as a slab holding all channels, so
one reader serves a MAC layer reading either: it recomputes a slab's
channels over per-channel partials of the golden input, and all channels
of a dense value. Samples and runs are tiled so that one tile's
floating-point temporaries stay in BATCH_BYTES; the large ones (im2col's
padded input and columns, GEMM and slab accumulators, requantize's
float64 copy) live in per-thread buffers that every tile of the thread
reuses, grown on demand up to BATCH_BYTES and never returned, so a tile
allocates none of them after the first.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from . import _kernel_py
from .errors import EmptyLogits, SchemaError, ShapeError
from .faultctl import MODE_CODE, NO_FAULT, FaultMap, FaultMode, FaultTable, LaneFault
from .model import INPUT_ID
from .planner import ExecutionPlan, LayerProgram
from .qtensor import (ACC_MAX, PRODUCT_MAX, QTensor, array_layer, ref_execute_layer,
                      requantize_array, sat32, scales_in_place, to_int8)

try:
    from . import _kernel
except ImportError:  # extension not built; pure-Python fallback only
    _kernel = None

# Trace event mode name for each kernel fault code.
_MODE_NAME = {code: mode.value for mode, code in MODE_CODE.items()}

# Byte budget for the floating-point temporaries of one (sample block, run
# block) in batch_logits, each at its own itemsize: partials of free and
# golden inputs, a free input's golden accumulators, masked weights and keep
# masks, im2col columns (at the d channels a slab holds, all Cin of a dense
# value), golden, slab and dense accumulators, the dropped partials a slab
# gathers from golden (d * m per run, for m dropped lane groups, unless the
# all-channel GEMM's Cout is fewer), with the float64 copy that requantize
# scales a float32 accumulator into unless qtensor.scales_in_place lets it
# scale the accumulator itself (any float64 one; a float32 one under
# m = 2^e). A campaign evaluates one tile at a time; the tile temporaries
# are per-thread buffers (_scratch_array), kept up to BATCH_BYTES each, so
# a layer too large for a one-sample, one-run tile allocates its own.
BATCH_BYTES = 2 << 20


def available_backends() -> list[str]:
    names = ["compiled"] if _kernel is not None else []
    return names + ["python"]


def get_kernel(name: str | None = None):
    """Resolve a kernel module by name; by default the extension when built."""
    if name is None:
        return _kernel if _kernel is not None else _kernel_py
    if name == "python":
        return _kernel_py
    if name == "compiled":
        if _kernel is None:
            raise SchemaError("compiled kernel requested but the extension is not built")
        return _kernel
    raise SchemaError(f"unknown kernel backend {name!r} (choose 'compiled' or 'python')")


def default_backend() -> str:
    return get_kernel().BACKEND


def mult_lane(a: int, b: int, fault: LaneFault = NO_FAULT, cycle: int = 0) -> int:
    """18-bit lane output for one int8 x int8 product under a fault descriptor."""
    mode = fault.mode
    if mode is FaultMode.STUCK_ZERO:
        return 0
    if mode is FaultMode.CONSTANT or (
            mode is FaultMode.PULSE and fault.start <= cycle < fault.start + fault.length):
        return fault.value
    return int(a) * int(b)


def mac_dot(pairs, unit: int, faults: FaultMap, cycle: int = 0) -> int:
    """Saturating 32-bit sum of one unit's lane outputs for one cycle.

    ``pairs`` has exactly one slot per lane: an (a, b) operand pair, or None
    for an idle lane (gated: contributes 0, fault mux bypassed).
    """
    if len(pairs) != faults.lanes:
        raise ShapeError(f"expected {faults.lanes} lane slots, got {len(pairs)}")
    total = 0
    for lane, pair in enumerate(pairs):
        if pair is None:
            continue
        a, b = pair
        total += mult_lane(a, b, faults.get(unit, lane), cycle)
    return sat32(total)


def classify_argmax(logits) -> int:
    """Smallest index attaining the maximum logit."""
    v = np.asarray(logits).reshape(-1)
    if v.size == 0:
        raise EmptyLogits("logits vector is empty")
    return int(np.argmax(v))


@dataclass(frozen=True)
class TraceEvent:
    """One fault-mux engagement: which lane fired, when, and what it emitted."""

    cycle: int
    layer_id: str
    unit: int
    lane: int
    dest: tuple[int, int, int]
    mode: str
    value: int


@dataclass
class ExecResult:
    outputs: dict[str, QTensor]
    logits: np.ndarray  # int8, flat view of the output layer
    cycles: int
    trace: list[TraceEvent] | None = None


class Emulator:
    """Executes one inference at a time (run); owns the cycle counter and
    accumulators. Many samples, or many fault maps, go to batch_logits.

    Untraced, with a map that has no pulse and passes the no-saturation
    bound, run evaluates each MAC layer in closed form, from masked weights,
    constants and tap indices built here, one pass over the plan's weights;
    otherwise it runs the per-step kernel. Either way the cycle counter
    advances by each layer's micro-ops, and the results are bit-identical.
    Traced, it builds the trace events here, once, for they depend on the
    plan and the map alone, and each run returns a fresh list of them.
    plan/faults are treated as immutable and may be shared across instances
    on different threads.
    """

    def __init__(self, plan: ExecutionPlan, faults: FaultMap | None = None,
                 trace: bool = False):
        cfg = plan.cfg
        self.plan = plan
        self.faults = faults if faults is not None else FaultMap(cfg.units, cfg.lanes)
        _check_geometry(self.faults, cfg)
        self._kernel = get_kernel()
        self._farr = self.faults.to_arrays()
        self.cycle = 0
        # Every run's trace events when traced, else None.
        self._events = _trace_events(plan, self._farr) if trace else None
        # Per MAC layer, its closed form under this map, (w, const) of
        # _layer_form, beside an int8 (Cin, 1) zero column that stands for
        # every padded tap: None when traced, or when the map has a pulse or
        # could saturate a partial sum.
        self._closed: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]] | None = None
        if not trace:  # the map as a one-row table
            keep, forced, fast = _fast_runs(plan, self._farr[0][None], self._farr[1][None])
            if fast[0]:
                self._closed = {
                    prog.layer.id: (*_layer_form(prog, cfg, keep, forced),
                                    np.zeros((prog.in_shape[0], 1), dtype=np.int8))
                    for prog in plan.programs if prog.is_mac}

    def run(self, x: QTensor) -> ExecResult:
        plan = self.plan
        if x.dims != plan.input_shape:
            raise ShapeError(f"input dims {x.dims} do not match plan {plan.input_shape}")
        if x.scale != plan.input_scale:
            raise ShapeError(f"input scale {x.scale!r} does not match plan {plan.input_scale!r}")
        self.cycle = 0
        env: dict[str, QTensor] = {INPUT_ID: x}
        outputs: dict[str, QTensor] = {}
        for prog in plan.programs:
            if prog.is_mac:
                out = self.run_layer_program(prog, env[prog.layer.inputs[0]])
            else:
                out = ref_execute_layer(prog.layer, [env[i] for i in prog.layer.inputs])
            env[prog.layer.id] = out
            outputs[prog.layer.id] = out
        logits = outputs[plan.output].data.reshape(-1)
        trace = None if self._events is None else list(self._events)
        return ExecResult(outputs, logits, self.cycle, trace)

    def run_layer_program(self, prog: LayerProgram, x: QTensor) -> QTensor:
        """One conv/fc program of the plan: bias-preloaded accumulate, then
        requantize; advances the cycle counter by the program's micro-ops.
        An emulator whose map has a closed form evaluates the layer as one
        exact float64 matmul, any other runs the per-step kernel.
        """
        if x.dims != prog.in_shape:
            raise ShapeError(f"input dims {x.dims} do not match {prog.in_shape}", prog.layer.id)
        if self._closed is not None:
            w, const, zero = self._closed[prog.layer.id]
            # Column 0 is every padded tap.
            x_pad = np.concatenate((zero, x.data.reshape(len(zero), -1)), axis=1,
                                   dtype=np.float64)
            cols = np.take(x_pad, prog.taps, axis=1)  # (Cin, K*K, Hout*Wout)
            acc = w @ cols.reshape(w.shape[1], -1)
            acc += const
            self.cycle += prog.n_ops
            return QTensor(requantize_array(acc, prog.layer.m, out=acc).reshape(prog.out_shape),
                           prog.out_scale)
        p = prog.packed
        acc3 = np.empty(prog.out_shape, dtype=np.int32)
        acc3[:] = prog.bias[:, None, None]
        x_flat = np.ascontiguousarray(x.data).reshape(-1)
        self.cycle = self._kernel.run_program(
            p.unit, p.dest, p.act_idx, p.w_idx, x_flat, prog.weights_flat,
            acc3.reshape(-1), *self._farr, self.plan.cfg.lanes, self.cycle,
        )
        return QTensor(requantize_array(acc3, prog.layer.m), prog.out_scale)


def _trace_events(plan: ExecutionPlan, farr) -> list[TraceEvent]:
    """One TraceEvent per slot whose fault mux fires in a run of the plan
    under the kernel fault arrays farr, in (cycle, lane) order: the mask of
    _kernel_py.engaged over each MAC program's rows, whose first row runs at
    the micro-ops of the programs before it."""
    mode, value, start, length = farr
    events: list[TraceEvent] = []
    lanes, cycle0 = plan.cfg.lanes, 0
    for prog in plan.programs:
        if not prog.is_mac:
            continue
        p = prog.packed
        on, forced = _kernel_py.engaged(p.unit, p.act_idx, mode, value, start, length,
                                        lanes, cycle0)
        rows, slots = np.nonzero(on)  # row-major: cycle, then lane
        units = p.unit[rows]
        _, hout, wout = prog.out_shape
        o, rem = np.divmod(p.dest[rows], hout * wout)
        y, xo = np.divmod(rem, wout)
        lid = prog.layer.id
        events.extend(
            TraceEvent(cycle0 + r, lid, u, lane, dest, _MODE_NAME[m], v)
            for r, u, lane, dest, m, v in zip(
                rows.tolist(), units.tolist(), slots.tolist(),
                zip(o.tolist(), y.tolist(), xo.tolist()),
                mode[units * lanes + slots].tolist(), forced[rows, slots].tolist())
        )
        cycle0 += prog.n_ops
    return events


def batch_logits(plan: ExecutionPlan, samples, fault_maps) -> np.ndarray:
    """int8 logits (R, S, classes) of R fault maps, a FaultTable or a
    sequence of FaultMaps, over int8 samples (S, C, H, W) in the plan's
    input scale; [r, s] equals ``Emulator(plan, fault_maps[r]).run`` on
    sample s bit for bit.

    Runs with a pulse, or whose closed form could saturate a partial sum,
    take the per-step kernel sample by sample; the others are evaluated
    together in (sample block, run block) tiles under BATCH_BYTES. The
    samples' scale is not checked: the caller vouches that it is the plan's.
    """
    samples = to_int8(samples, "samples")
    if samples.shape[1:] != plan.input_shape:
        raise ShapeError(f"sample dims {samples.shape[1:]} do not match plan {plan.input_shape}")
    cfg = plan.cfg
    if not isinstance(fault_maps, FaultTable):
        fault_maps = list(fault_maps)
        for fmap in fault_maps:
            _check_geometry(fmap, cfg)
        fault_maps = FaultTable.stack(fault_maps, cfg.units, cfg.lanes)
    _check_geometry(fault_maps, cfg)
    out = np.empty((len(fault_maps), len(samples), plan.classes), dtype=np.int8)
    if not len(fault_maps):
        return out
    keep, forced, fast = _fast_runs(plan, *fault_maps.blocks[:2])
    for r in np.flatnonzero(~fast):  # the per-step fallback, one sample at a time
        emu = Emulator(plan, fault_maps[r])
        for s, x in enumerate(samples):
            out[r, s] = emu.run(QTensor(x, plan.input_scale)).logits
    if fast.any() and len(samples):
        out[fast] = _closed_form(plan, samples, keep[fast], forced[fast])
    return out


def _check_geometry(fmap: FaultMap | FaultTable, cfg) -> None:
    if (fmap.units, fmap.lanes) != (cfg.units, cfg.lanes):
        raise ShapeError(f"fault map is {fmap.units}x{fmap.lanes}, "
                         f"array is {cfg.units}x{cfg.lanes}")


def _fast_runs(plan: ExecutionPlan, mode: np.ndarray,
               value: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(keep, forced, fast) of R fault maps, given as the mode and value
    blocks (R, units * lanes) of their FaultTable: bool (R, units, lanes),
    whether a lane passes its products; int64 (R, units, lanes), the value a
    faulted lane forces instead (0 for stuck-at-0 and for a clean lane);
    bool (R,), whether the run has the closed form: no pulse, and no partial
    sum of any MAC layer can saturate."""
    cfg = plan.cfg
    mode = mode.reshape(-1, cfg.units, cfg.lanes)
    value = value.reshape(mode.shape)
    keep = mode == 0
    forced = np.where(mode == 2, value, 0).astype(np.int64)  # stuck-at-0 forces 0
    # Largest |lane sum| of one micro-op on any unit, per run.
    row_bound = np.where(keep, PRODUCT_MAX, np.abs(forced)).sum(axis=2).max(axis=1)
    fast = ~(mode == 3).any(axis=(1, 2))
    for prog in plan.programs:
        if prog.is_mac:
            bias_bound = max(-int(prog.bias.min()), int(prog.bias.max()))
            groups = -(-prog.in_shape[0] // cfg.lanes)
            fast &= bias_bound + groups * len(prog.taps) * row_bound <= ACC_MAX
    return keep, forced, fast


def _lane_faults(prog: LayerProgram, cfg, keep: np.ndarray,
                 forced: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One MAC layer's faults over R runs, from _fast_runs' keep and forced:
    bool (R, Cout, Cin), whether output channel o (on unit o mod units)
    keeps its products with input channel c (on lane c mod lanes); int64
    (R, Cout), o's bias plus each of its unit's forced values once per slot
    its lane carries."""
    unit_of = np.arange(prog.out_shape[0]) % cfg.units
    lane_of = np.arange(prog.in_shape[0]) % cfg.lanes
    slots = len(prog.taps) * np.bincount(lane_of, minlength=cfg.lanes)  # carried slots per lane
    return keep[:, unit_of[:, None], lane_of], prog.bias + forced[:, unit_of] @ slots


def _layer_form(prog: LayerProgram, cfg, keep: np.ndarray,
                forced: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One MAC layer's closed form under one fault map, for Emulator.run,
    from the one-run keep and forced of _fast_runs: acc = w @ im2col(x) +
    const, with w float64 (Cout, Cin*K*K), the weights times the run's keep
    mask, and const float64 (Cout, 1), bias plus forced values. Every
    partial sum is an integer below 2^31 under the bound, so float64 sums
    it exactly in any order."""
    layer_keep, const = _lane_faults(prog, cfg, keep, forced)
    cout, cin = layer_keep.shape[1:]
    w = np.multiply(prog.weights_flat.reshape(cout, cin, -1), layer_keep[0, :, :, None],
                    dtype=np.float64)
    return w.reshape(cout, -1), const.astype(np.float64).T


# Non-MAC layers that act on each channel alone; a slab passes through them.
_CHANNEL_WISE = ("relu", "maxpool", "gavgpool")


@dataclass
class _MacOperands:
    """One conv/fc layer's closed form over a set of runs."""

    prog: LayerProgram
    # Weights (Cout, Cin, K*K) in the layer's GEMM dtype (float32 when its
    # bound allows, else float64), which every temporary shares.
    w: np.ndarray
    # bool (R, Cout, G): whether run r keeps the products of channel o with
    # the input channels of group g, those c with c mod G = g. G is
    # min(Cin, lanes) (a group per lane) for a layer reading a free value,
    # else Cin (a group per channel).
    keep: np.ndarray
    const: np.ndarray  # bias plus forced values, in w's dtype: (R, Cout)


@dataclass
class _Slab:
    """A run-carrying value equal to its golden tensor (C, S, H, W) except
    on a few channels per run: data (runs, d, S, H, W) holds channels
    ch (runs, d) of each run."""

    golden: np.ndarray
    data: np.ndarray
    ch: np.ndarray


def _dense(x: np.ndarray | _Slab) -> np.ndarray:
    """A _Slab expanded to int8 (runs, C, S, H, W); an array as it is."""
    if not isinstance(x, _Slab):
        return x
    out = np.empty((len(x.ch),) + x.golden.shape, dtype=np.int8)
    out[:] = x.golden
    out[np.arange(len(x.ch))[:, None], x.ch] = x.data
    return out


def _closed_form(plan: ExecutionPlan, samples: np.ndarray, keep: np.ndarray,
                 forced: np.ndarray) -> np.ndarray:
    """Logits (R, S, classes) of R permanent-fault runs, given each run's
    (units, lanes) lane-keep mask and forced values.

    A value is free, a slab or dense, and every value is channel-major.
    Free values (the input, and layers fed only by free values) carry no
    run axis and are computed once per sample block, as (C, S, H, W). A
    slab, the output of a MAC layer reading a free value or of
    relu/maxpool/gavgpool reading a slab, differs from the golden
    (fault-free) tensor only on the channels of the units a run faults: it
    holds the golden tensor (C, S, H, W) once per sample block and, per
    run, those channels (runs, d, S, H, W), padded with clean ones to the
    run block's largest count d. Every other value is dense, (runs, C, S,
    H, W): laid out as a slab holding every channel. Non-MAC layers act on
    the trailing (H, W) axes or elementwise, so the layout is theirs too;
    only the logits are put back in (runs, S, classes) order, once a tile.

    A MAC layer reading a free value or a slab builds the partials
    P[o, g] = W[o, c in g] @ im2col(x)[c in g] of its (golden) input once
    per sample block, grouped by lane for a free value and by channel for a
    slab. Reading a free value, its golden accumulators A = sum_g P are
    kept too (golden is A + bias), and a slab's channel o = ch_r of run r
    is A[o] - sum_{g dropped} P[o, g] + const_r[o], over the lane groups
    that o's unit drops: a gather from P, padded to the block's largest
    drop count m by one zero row. A block whose d * m exceeds Cout takes
    one GEMM instead, keep_r @ P + const_r on every channel, of which the
    slab keeps ch_r; a block whose d is Cout keeps all, dense. When every run of
    the call faults every channel, the layer's output is dense from the
    start: no golden tensor is built for it or for the values it feeds,
    and no partials for the MAC layer reading it. Reading a slab or
    a dense value (whichever its block holds), one reader (_mac_runs) takes
    (keep_r with ch_r zeroed) @ P + (W * keep_r)[:, ch_r] @ im2col(x_r) +
    const_r over the channels ch_r the value holds: all Cin, with no P
    term, for a dense value. Each MAC layer takes float32 when its bound
    over these runs proves every partial sum exact, else float64.
    """
    cfg = plan.cfg
    runs, n = len(keep), len(samples)
    kind_of = {INPUT_ID: "free"}
    widths = {}  # slab -> the largest d of any run block
    ops: dict[str, _MacOperands] = {}
    shared_bytes, cols_bytes, pair_bytes, run_bytes = 0, 0, [0], [0]
    for prog in plan.programs:
        layer = prog.layer
        src = kind_of[layer.inputs[0]]
        if not prog.is_mac:
            if src == "slab" and layer.kind in _CHANNEL_WISE:
                widths[layer.id] = widths[layer.inputs[0]]
            kind_of[layer.id] = ("free" if all(kind_of[i] == "free" for i in layer.inputs)
                                 else "slab" if layer.id in widths else "dense")
            continue
        cin = prog.in_shape[0]
        cout, hout, wout = prog.out_shape
        hw, kk = hout * wout, len(prog.taps)
        layer_keep, const = _lane_faults(prog, cfg, keep, forced)
        w = prog.weights_flat.reshape(cout, cin, kk)
        # Every partial sum is bounded by 128 * max_o sum |W[o]| + max |const|
        # (see above), and float32 is exact up to 2^24. Sum |W| in int64:
        # np.abs maps an int8 -128 to -128. A golden channel is read only by
        # runs that leave its unit clean, whose const is its bias.
        w_abs = np.abs(w.astype(np.int64)).sum(axis=(1, 2)).max()
        dtype = np.float32 if 128 * w_abs + np.abs(const).max() <= 2 ** 24 else np.float64
        isz = np.dtype(dtype).itemsize
        acc_isz = isz if scales_in_place(np.dtype(dtype), layer.m) else isz + 8  # + its copy
        groups = min(cin, cfg.lanes) if src == "free" else cin
        op_keep = layer_keep[..., :groups]  # (R, Cout, G)
        if src == "free":  # d counts its own faulted channels, else its input's
            drops = (~op_keep).sum(axis=2)  # lane groups each (run, channel) drops
            dirty = (drops > 0).sum(axis=1)
            d, m = max(1, int(dirty.max())), int(drops.max())
            if dirty.min() < cout:  # else every run faults every channel: dense
                widths[layer.id] = d
        else:
            d = widths.get(layer.inputs[0], cin)
        kind_of[layer.id] = "slab" if layer.id in widths else "dense"
        ops[layer.id] = _MacOperands(prog, w.astype(dtype), op_keep, const.astype(dtype))
        # Bytes per sample (shared: kept through the block's runs; cols: im2col
        # columns of a partials build, Cin padded to a multiple of G), per
        # (run, sample) pair and per run.
        if src != "dense":  # the partials, with their zero row
            shared_bytes += isz * (cout * groups + 1) * hw
            cols_bytes = max(cols_bytes, isz * -(-cin // groups) * groups * kk * hw)
        if src == "free":  # a slab's golden accumulators and golden; per pair the
            # dropped partials, or all Cout of the GEMM, then d (+ copy)
            shared_bytes += (isz + acc_isz) * cout * hw if layer.id in widths else 0
            pair_bytes.append((isz * min(cout, d * m) + acc_isz * d) * hw)
            run_bytes.append(isz * cout * groups)  # keep
            continue
        # Columns at d channels (d = Cin for a dense input), keep @ P and
        # the GEMM output; keep and the masked weights at d.
        pair_bytes.append((isz * (d * kk + cout) + acc_isz * cout) * hw)
        run_bytes.append(isz * cout * (cin + d * kk))
    pair_bytes, run_bytes = max(pair_bytes), max(run_bytes)
    # Per sample, the partials stay alive through the block's runs; the
    # im2col columns they are built from do not.
    sb = min(n, max(1, min(BATCH_BYTES // max(1, shared_bytes + cols_bytes),
                           (BATCH_BYTES - run_bytes) // max(1, shared_bytes + pair_bytes))))
    rb = min(runs, max(1, (BATCH_BYTES - sb * shared_bytes) // max(1, sb * pair_bytes + run_bytes)))

    out = np.empty((runs, n, plan.classes), dtype=np.int8)
    for s0 in range(0, n, sb):
        # Free values, and the golden tensors of slabs, as (C, S, H, W).
        env = {INPUT_ID: samples[s0 : s0 + sb].transpose(1, 0, 2, 3)}
        partials, golden_acc = {}, {}
        for prog in plan.programs:
            layer, op = prog.layer, ops.get(prog.layer.id)
            if op is not None and kind_of[layer.inputs[0]] != "dense":
                partials[layer.id] = _partials(op, env[layer.inputs[0]])
            if op is None and kind_of[layer.id] != "dense":
                env[layer.id] = array_layer(layer, [env[i] for i in layer.inputs])
            elif kind_of[layer.id] == "slab":  # golden accumulators, before bias
                acc = _grouped(op, partials[layer.id]).sum(axis=1)
                golden_acc[layer.id] = acc
                g = acc + prog.bias[:, None].astype(acc.dtype)
                env[layer.id] = _requantize(op, g).reshape((len(g), -1) + prog.out_shape[1:])
        for r0 in range(0, runs, rb):
            run_env = dict(env)
            for prog in plan.programs:
                layer = prog.layer
                if kind_of[layer.id] == "free":
                    continue
                x = run_env[layer.inputs[0]]
                op = ops.get(layer.id)
                if op is None:
                    if isinstance(x, _Slab) and layer.kind in _CHANNEL_WISE:
                        y = _Slab(env[layer.id], array_layer(layer, [x.data]), x.ch)
                    else:
                        xs = [_dense(run_env[i]) for i in layer.inputs]
                        y = array_layer(layer, _broadcast_runs(xs))
                elif kind_of[layer.inputs[0]] == "free":
                    y = _mac_slab(op, partials[layer.id], golden_acc.get(layer.id),
                                  env.get(layer.id), r0, rb)
                else:
                    y = _mac_runs(op, x, r0, rb, partials.get(layer.id))
                run_env[layer.id] = y
            logits = np.moveaxis(_dense(run_env[plan.output]), -4, -3)  # (..., S, C, H, W)
            out[r0 : r0 + rb, s0 : s0 + sb] = logits.reshape(*logits.shape[:-3], plan.classes)
    return out


def _broadcast_runs(arrays: list[np.ndarray]) -> list[np.ndarray]:
    """Operands of a non-MAC layer; one without a run axis is broadcast."""
    if len(arrays) == 1:
        return arrays
    shape = np.broadcast_shapes(*(a.shape for a in arrays))
    return [np.broadcast_to(a, shape) for a in arrays]


def _im2col(prog: LayerProgram, x: np.ndarray, dtype) -> np.ndarray:
    """im2col columns (..., C, K*K, S, Hout*Wout) in dtype of int8 x (...,
    C, S, H, W), gathered through the plan's tap index: each sample's H*W
    values follow one zero column, which every padded tap reads. The
    columns are this thread's "cols" buffer, and a tap outside [0, H*W] is
    an IndexError."""
    *lead, n, h, w = x.shape
    taps = prog.taps
    if int(taps.min()) < 0 or int(taps.max()) > h * w:
        raise IndexError(f"layer {prog.layer.id!r}: tap index outside [0, {h * w}]")
    x_pad = _scratch_array("pad", (*lead, n, h * w + 1), dtype)
    x_pad[..., 0] = 0
    x_pad[..., 1:] = x.reshape(*lead, n, h * w)
    idx = taps[:, None] + (h * w + 1) * np.arange(n)[:, None]  # (K*K, S, Hout*Wout)
    cols = _scratch_array("cols", (*lead, *idx.shape), dtype)
    # In range as checked; raise mode would write through a temporary (see _take).
    return np.take(x_pad.reshape(*lead, -1), idx, axis=-1, out=cols, mode="clip")


def _partials(op: _MacOperands, x: np.ndarray) -> np.ndarray:
    """Rows (Cout * G + 1, S*Hout*Wout) in op.w's dtype: row o * G + g is
    the share of channel group g (channels c = g, g + G, ...) in output
    channel o's accumulators of samples x (Cin, S, H, W), before bias and
    faults; the last row is zero (_grouped views the others).

    One GEMM batched over the groups, with Cin zero-padded to a multiple of
    G, writes each group's share in place."""
    cin, (cout, _, kk), groups = len(x), op.w.shape, op.keep.shape[2]
    per_group = -(-cin // groups)
    w, pad = op.w, per_group * groups - cin
    if pad:  # zero channels, which zero weights read, complete the last group
        w = np.concatenate([w, np.zeros((cout, pad, kk), dtype=w.dtype)], axis=1)
        x = np.concatenate([x, np.zeros((pad,) + x.shape[1:], dtype=np.int8)])
    x = x.reshape((per_group, groups) + x.shape[1:]).swapaxes(0, 1)  # (G, channel in group, ...)
    cols = _im2col(op.prog, x, op.w.dtype).reshape(groups, per_group * kk, -1)
    w = w.reshape(cout, per_group, groups, kk).transpose(2, 0, 1, 3).reshape(groups, cout, -1)
    rows = np.empty((cout * groups + 1, cols.shape[2]), dtype=op.w.dtype)
    rows[-1] = 0
    np.matmul(w, cols, out=_grouped(op, rows).transpose(1, 0, 2))
    return rows


def _grouped(op: _MacOperands, rows: np.ndarray) -> np.ndarray:
    """The partials P (Cout, G, S*Hout*Wout) of _partials' rows, a view."""
    return rows[:-1].reshape(*op.keep.shape[1:], -1)


def _from_partials(op: _MacOperands, keep: np.ndarray, rows: np.ndarray, r0: int) -> np.ndarray:
    """keep_r @ P + const_r, (runs, Cout, S*Hout*Wout) in this thread's
    "keep @ P" buffer, for runs [r0, r0 + len(keep)) with 0/1 keep (runs,
    Cout, G) over the partials of _partials' rows."""
    p = _grouped(op, rows)
    acc = _scratch_array("keep @ P", (len(keep), len(p), p.shape[2]), p.dtype)
    np.matmul(keep.transpose(1, 0, 2), p, out=acc.transpose(1, 0, 2))
    acc += op.const[r0 : r0 + len(keep), :, None]
    return acc


def _mac_slab(op: _MacOperands, rows: np.ndarray, golden_acc: np.ndarray | None,
              golden: np.ndarray | None, r0: int, rb: int):
    """Runs [r0, r0 + rb) of a MAC layer reading a free value, from its lane
    partials' rows, golden accumulators golden_acc (Cout, S*Hout*Wout) and
    golden output: dense int8 when a run of the block faults every
    channel, else a _Slab over each run's faulted channels, padded with
    clean ones to the block's largest count d.

    A slab channel o of run r is golden_acc[o] - sum P[o, g] + const_r[o]
    over the m_o lane groups g that o's unit drops, gathered from the rows
    with the zero row standing for the slots past m_o, up to the block's
    largest m. Each running difference is a subset sum of o's products and
    const_r[o] is added last, so every partial sum keeps the dtype bound;
    a clean channel reads golden_acc[o] + bias[o]. A block whose d * m
    exceeds Cout takes one GEMM, keep_r @ P + const_r, over every channel
    instead, and the slab gathers its channels from it."""
    keep = op.keep[r0 : r0 + rb]
    (runs, cout, groups), (hout, wout) = keep.shape, op.prog.out_shape[1:]
    drops = ~keep
    n_drops = drops.sum(axis=2)  # (runs, Cout)
    dirty = n_drops > 0
    d = max(1, int(dirty.sum(axis=1).max()))
    m = int(n_drops.max())
    if d == cout:
        acc = _from_partials(op, keep.astype(op.w.dtype), rows, r0)
        return _requantize(op, acc).reshape(runs, cout, -1, hout, wout)
    ch = np.argsort(~dirty, axis=1, kind="stable")[:, :d]  # faulted channels first
    acc = _scratch_array("slab", (runs, d, rows.shape[1]), rows.dtype)
    if d * m > cout:
        every = _from_partials(op, keep.astype(op.w.dtype), rows, r0)
        _take(every.reshape(runs * cout, -1), ch + cout * np.arange(runs)[:, None], acc)
    else:
        _take(golden_acc, ch, acc)
        if m:
            dropped = np.take_along_axis(drops, ch[..., None], axis=1)  # (runs, d, G)
            g = np.argsort(~dropped, axis=2, kind="stable")[..., :m]  # dropped groups first
            idx = np.where(np.take_along_axis(dropped, g, axis=2), ch[..., None] * groups + g,
                           cout * groups)  # past a channel's drops, the zero row
            part = _take(rows, idx, _scratch_array("dropped", (*idx.shape, rows.shape[1]),
                                                   rows.dtype))
            for j in range(m):
                acc -= part[:, :, j]
        acc += np.take_along_axis(op.const[r0 : r0 + runs], ch, axis=1)[..., None]
    return _Slab(golden, _requantize(op, acc).reshape(runs, d, -1, hout, wout), ch)


def _mac_runs(op: _MacOperands, x: np.ndarray | _Slab, r0: int, rb: int,
              rows: np.ndarray | None) -> np.ndarray:
    """int8 (runs, Cout, S, Hout, Wout) of runs [r0, r0 + rb) reading x: a
    slab, whose golden tensor has the per-channel partials' rows (Cout *
    Cin + 1, ...), or a dense value (runs, Cin, S, H, W).

    acc = (keep_r with channels ch_r zeroed) @ p + (W * keep_r)[:, ch_r] @
    im2col(x_r[ch_r]) + const_r, where a dense value holds every channel
    and so has no p term. Off ch_r, x_r is golden, so every partial sum is
    a subset sum of run r's own int8 products, plus perhaps const_r, in any
    order, as the dtype bound needs."""
    keep = op.keep[r0 : r0 + rb]  # (runs, Cout, Cin)
    if isinstance(x, _Slab):
        at = x.ch[:, None]
        w = op.w[:, x.ch].transpose(1, 0, 2, 3) * np.take_along_axis(keep, at, axis=2)[..., None]
        keep = keep.astype(op.w.dtype)
        np.put_along_axis(keep, at, 0, axis=2)
        x = x.data
    else:
        w, keep = np.multiply(op.w, keep[..., None]), None
    runs, d = x.shape[:2]
    cout, hout, wout = op.prog.out_shape
    cols = _im2col(op.prog, x, op.w.dtype)  # (runs, d, K*K, S, Hout*Wout)
    cols = cols.reshape(runs, d * w.shape[3], -1)
    acc = np.matmul(w.reshape(runs, cout, -1), cols,
                    out=_scratch_array("gemm", (runs, cout, cols.shape[2]), cols.dtype))
    acc += op.const[r0 : r0 + rb, :, None] if keep is None else _from_partials(op, keep, rows, r0)
    return _requantize(op, acc).reshape(runs, cout, -1, hout, wout)


def _requantize(op: _MacOperands, acc: np.ndarray) -> np.ndarray:
    """int8 of integer-valued accumulators, scaled in place where
    scales_in_place allows (any float64 acc; a float32 one when m is a power
    of two), else in this thread's float64 "requantize" buffer."""
    m = op.prog.layer.m
    out = (acc if scales_in_place(acc.dtype, m)
           else _scratch_array("requantize", acc.shape, np.float64))
    return requantize_array(acc, m, out=out)


def _take(a: np.ndarray, idx: np.ndarray, out: np.ndarray) -> np.ndarray:
    """np.take(a, idx, axis=0) into out, with a bound check of its own: in
    its default raise mode np.take writes the whole result through a
    temporary when given out, so it takes clip mode once every index is in
    range."""
    if idx.size and (int(idx.min()) < 0 or int(idx.max()) >= len(a)):
        raise IndexError(f"gather index outside [0, {len(a)})")
    return np.take(a, idx, axis=0, out=out, mode="clip")


# This thread's tile buffers, by slot name: uint8 blocks of at most
# BATCH_BYTES each, grown on demand and kept while the thread lives.
_scratch = threading.local()


def _scratch_array(slot: str, shape: tuple[int, ...], dtype) -> np.ndarray:
    """A view of this thread's buffer for slot, shaped and typed as asked,
    growing the buffer when it is too small. Its contents are left as they
    are; it is overwritten by the slot's next use on the thread, so it is
    a temporary within one tile step and is never returned from
    batch_logits. An array larger than BATCH_BYTES (a one-sample, one-run
    tile of an over-budget layer) is a fresh one, and is not kept."""
    nbytes = math.prod(shape) * np.dtype(dtype).itemsize
    if nbytes > BATCH_BYTES:
        return np.empty(shape, dtype=dtype)
    buf = _scratch.__dict__.get(slot)
    if buf is None or buf.nbytes < nbytes:
        buf = _scratch.__dict__[slot] = np.empty(nbytes, dtype=np.uint8)
    return buf[:nbytes].view(dtype).reshape(shape)
