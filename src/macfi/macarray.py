"""Emulated MAC-array execution with per-lane output overrides.

The grid is units x lanes int8 multipliers; every multiplier output passes a
fault mux that can force the 18-bit lane value (see faultctl). Idle lanes are
gated: a fault on a lane that carries no operands this cycle cannot fire.
Padded-zero taps do carry operands, so their muxes are live.

Two interchangeable kernels execute the packed layer programs: a
hand-written C extension (macfi._kernel) and a pure-Python twin
(macfi._kernel_py). The extension is used whenever it is built; an install
without it falls back to the Python kernel, which gives bit-identical results.
``_kernel_py.engaged`` defines the mux over a whole program at once (the C
kernel is its twin); traced runs take their events from that mask after the
kernel has run, so tracing adds no execution path.

batch_logits evaluates R fault maps over S samples at once (Emulator.run_batch
is its one-map case). Under the planner's mapping (output channel o on unit
o mod units, input channel c on lane c mod lanes) a permanent fault has a
closed form: a faulted lane drops the products of its (o, c) weights and
adds its forced value once per carried slot. Each MAC layer is then a
matmul, exact whenever no partial sum can saturate; a run that could
saturate, or that has a pulse, takes the per-step kernel sample by sample.
The matmul runs in float32 when 128 * max_o sum |W[o]| + max |const| <= 2^24
and in float64 otherwise: every partial sum is an integer subset sum of
int8 x int8 products (|w * x| <= 128 |w|) plus perhaps const, so it never
exceeds that bound, and float32 holds every integer up to 2^24 exactly.
Values no fault can reach (the input and the layers fed only by it) carry
no run axis and are computed once per sample block, and a MAC layer reading
them shares per-lane partials between all runs. Samples and runs are tiled
so that one tile's floating-point temporaries stay within BATCH_BYTES.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernel_py
from .errors import EmptyLogits, SchemaError, ShapeError
from .faultctl import MODE_CODE, NO_FAULT, FaultMap, FaultMode, LaneFault
from .model import INPUT_ID
from .planner import ExecutionPlan, LayerProgram
from .qtensor import (ACC_MAX, PRODUCT_MAX, QTensor, array_layer, ref_execute_layer,
                      requantize_array, sat32)

try:
    from . import _kernel
except ImportError:  # extension not built; pure-Python fallback only
    _kernel = None

# Trace event mode name for each kernel fault code.
_MODE_NAME = {code: mode.value for mode, code in MODE_CODE.items()}

# Byte budget for the floating-point temporaries of one (sample block, run
# block) in batch_logits, each at its own itemsize: lane partials, masked
# weights, im2col columns and accumulators, with the float64 array that
# requantize scales a float32 accumulator into (a float64 one is scaled in
# place).
BATCH_BYTES = 1 << 20


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
    """Executes one inference at a time (run) or a stack of samples at once
    (run_batch); owns the cycle counter and accumulators.

    Instances are cheap. plan/faults are treated as immutable and may be
    shared across instances on different threads.
    """

    def __init__(self, plan: ExecutionPlan, faults: FaultMap | None = None,
                 trace: bool = False):
        cfg = plan.cfg
        self.plan = plan
        self.faults = faults if faults is not None else FaultMap(cfg.units, cfg.lanes)
        if (self.faults.units, self.faults.lanes) != (cfg.units, cfg.lanes):
            raise ShapeError(
                f"fault map is {self.faults.units}x{self.faults.lanes}, "
                f"array is {cfg.units}x{cfg.lanes}"
            )
        self._kernel = get_kernel()
        self.trace = trace
        self._farr = self.faults.to_arrays()
        self.cycle = 0

    @property
    def backend(self) -> str:
        return self._kernel.BACKEND

    def run(self, x: QTensor) -> ExecResult:
        plan = self.plan
        if x.dims != plan.input_shape:
            raise ShapeError(f"input dims {x.dims} do not match plan {plan.input_shape}")
        if x.scale != plan.input_scale:
            raise ShapeError(f"input scale {x.scale!r} does not match plan {plan.input_scale!r}")
        self.cycle = 0
        events: list[TraceEvent] | None = [] if self.trace else None
        env: dict[str, QTensor] = {INPUT_ID: x}
        outputs: dict[str, QTensor] = {}
        for prog in plan.programs:
            if prog.is_mac:
                out = self.run_layer_program(prog, env[prog.layer.inputs[0]], events)
            else:
                out = ref_execute_layer(prog.layer, [env[i] for i in prog.layer.inputs])
            env[prog.layer.id] = out
            outputs[prog.layer.id] = out
        logits = outputs[plan.output].data.reshape(-1)
        return ExecResult(outputs, logits, self.cycle, events)

    def run_batch(self, samples) -> np.ndarray:
        """int8 logits (S, classes) for int8 samples (S, C, H, W) in the
        plan's input scale; row s equals ``run`` on sample s bit for bit.
        A traced emulator runs sample by sample."""
        if not self.trace:
            return batch_logits(self.plan, samples, [self.faults])[0]
        samples = _check_samples(self.plan, samples)
        out = np.empty((len(samples), self.plan.classes), dtype=np.int8)
        _run_each(self, samples, out)
        return out

    def run_layer_program(self, prog: LayerProgram, x: QTensor,
                          events: list[TraceEvent] | None = None) -> QTensor:
        """One conv/fc program: bias-preloaded accumulate, then requantize.

        With ``events`` given, appends one TraceEvent per slot whose fault
        mux fired, in (cycle, lane) order.
        """
        if x.dims != prog.in_shape:
            raise ShapeError(f"input dims {x.dims} do not match {prog.in_shape}", prog.layer.id)
        p = prog.packed
        cout, hout, wout = prog.out_shape
        acc3 = np.empty((cout, hout, wout), dtype=np.int32)
        acc3[:] = prog.bias[:, None, None]
        acc = acc3.reshape(-1)
        x_flat = np.ascontiguousarray(x.data).reshape(-1)
        mode, value, start, length = self._farr
        lanes, cycle0 = self.plan.cfg.lanes, self.cycle
        self.cycle = self._kernel.run_program(
            p.unit, p.dest, p.act_idx, p.w_idx, x_flat, prog.weights_flat,
            acc, mode, value, start, length, lanes, cycle0,
        )
        if events is not None and mode.any():
            on, forced = _kernel_py.engaged(p.unit, p.act_idx, mode, value, start, length,
                                            lanes, cycle0)
            rows, slots = np.nonzero(on)  # row-major: cycle, then lane
            units = p.unit[rows]
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
        return QTensor(requantize_array(acc3, prog.layer.m), prog.out_scale)


def _check_samples(plan: ExecutionPlan, samples) -> np.ndarray:
    samples = np.asarray(samples, dtype=np.int8)
    if samples.shape[1:] != plan.input_shape:
        raise ShapeError(f"sample dims {samples.shape[1:]} do not match plan {plan.input_shape}")
    return samples


def _run_each(emu: Emulator, samples: np.ndarray, out: np.ndarray):
    """The per-step fallback: out[s] = emu.run(sample s).logits."""
    for s, x in enumerate(samples):
        out[s] = emu.run(QTensor(x, emu.plan.input_scale)).logits


def batch_logits(plan: ExecutionPlan, samples, fault_maps) -> np.ndarray:
    """int8 logits (R, S, classes) of R fault maps over int8 samples
    (S, C, H, W) in the plan's input scale; [r, s] equals
    ``Emulator(plan, fault_maps[r]).run`` on sample s bit for bit.

    Runs with a pulse, or whose closed form could saturate a partial sum,
    take the per-step kernel sample by sample; the others are evaluated
    together in (sample block, run block) tiles under BATCH_BYTES.
    """
    samples = _check_samples(plan, samples)
    cfg = plan.cfg
    out = np.empty((len(fault_maps), len(samples), plan.classes), dtype=np.int8)
    if not len(fault_maps):
        return out
    for fmap in fault_maps:
        if (fmap.units, fmap.lanes) != (cfg.units, cfg.lanes):
            raise ShapeError(f"fault map is {fmap.units}x{fmap.lanes}, "
                             f"array is {cfg.units}x{cfg.lanes}")
    modes, values = zip(*(fmap.to_arrays()[:2] for fmap in fault_maps))
    mode = np.stack(modes).reshape(-1, cfg.units, cfg.lanes)
    value = np.stack(values).reshape(mode.shape)
    keep = mode == 0
    forced = np.where(mode == 2, value, 0).astype(np.int64)  # stuck-at-0 forces 0
    # Largest |lane sum| of one micro-op on any unit, per run.
    row_bound = np.where(keep, PRODUCT_MAX, np.abs(forced)).sum(axis=2).max(axis=1)
    fast = ~(mode == 3).any(axis=(1, 2))
    for prog in plan.programs:
        if prog.is_mac:
            bias_bound = max(-int(prog.bias.min()), int(prog.bias.max()))
            groups = -(-prog.in_shape[0] // cfg.lanes)
            fast &= bias_bound + groups * prog.packed.k ** 2 * row_bound <= ACC_MAX
    for r in np.flatnonzero(~fast):
        _run_each(Emulator(plan, fault_maps[r]), samples, out[r])
    if fast.any() and len(samples):
        out[fast] = _closed_form(plan, samples, keep[fast], forced[fast])
    return out


@dataclass
class _MacOperands:
    """One conv/fc layer's closed form over a set of runs."""

    prog: LayerProgram
    shared_input: bool  # input carries no run axis: use lane partials
    # Weights in the layer's GEMM dtype (float32 when its bound allows, else
    # float64), which every temporary shares; (Cout, Cin*K*K) with lane-major
    # channels when shared_input, else (Cout, Cin, K*K).
    w: np.ndarray
    keep: np.ndarray  # bool; shared_input: (Cout, R, L) over the L used lanes, else (R, Cout, Cin, 1)
    const: np.ndarray  # bias plus forced values, in w's dtype: (Cout, R) if shared_input, else (R, Cout)


def _closed_form(plan: ExecutionPlan, samples: np.ndarray, keep: np.ndarray,
                 forced: np.ndarray) -> np.ndarray:
    """Logits (R, S, classes) of R permanent-fault runs, given each run's
    (units, lanes) lane-keep mask and forced values.

    Layers that no MAC layer feeds carry no run axis and run once per sample
    block. A MAC layer reading such a value is evaluated through per-lane
    partials P[o, l] = W[o, c = l mod lanes] @ im2col(x)[c = l mod lanes],
    computed once per sample block; a run then costs keep_r @ P + const_r.
    Every later MAC layer is (W * keep_r) @ im2col(x_r) + const_r over a
    (run block, sample block) stack. Each MAC layer takes float32 when its
    bound over these runs proves every partial sum exact, else float64.
    """
    cfg = plan.cfg
    runs, n = len(keep), len(samples)
    has_runs = {INPUT_ID: False}
    ops: dict[str, _MacOperands] = {}
    shared_bytes, cols_bytes, pair_bytes, run_bytes = 0, 0, 0, 0
    for prog in plan.programs:
        layer = prog.layer
        has_runs[layer.id] = prog.is_mac or any(has_runs[i] for i in layer.inputs)
        if not prog.is_mac:
            continue
        cin = prog.in_shape[0]
        cout, hout, wout = prog.out_shape
        hw, kk = hout * wout, prog.packed.k ** 2
        unit_of = np.arange(cout) % cfg.units
        lane_of = np.arange(cin) % cfg.lanes
        slots = kk * np.bincount(lane_of, minlength=cfg.lanes)  # carried slots per lane
        const = prog.bias + forced[:, unit_of] @ slots  # (R, Cout)
        w = prog.weights_flat.reshape(cout, cin, kk)
        # Every partial sum is bounded by 128 * max_o sum |W[o]| + max |const|
        # (see above), and float32 is exact up to 2^24. Sum |W| in int64:
        # np.abs maps an int8 -128 to -128.
        w_abs = np.abs(w.astype(np.int64)).sum(axis=(1, 2)).max()
        dtype = np.float32 if 128 * w_abs + np.abs(const).max() <= 2 ** 24 else np.float64
        w, const = w.astype(dtype), const.astype(dtype)
        isz = w.itemsize
        acc_isz = isz if dtype is np.float64 else isz + 8  # requantize's float64 copy
        if not has_runs[layer.inputs[0]]:
            used = min(cin, cfg.lanes)
            w = w[:, _lane_major(cin, cfg.lanes)].reshape(cout, -1)
            op_keep = keep[:, unit_of, :used].transpose(1, 0, 2)
            ops[layer.id] = _MacOperands(prog, True, w, op_keep, const.T)
            shared_bytes += isz * cout * used * hw
            cols_bytes = max(cols_bytes, isz * cin * kk * hw)
            pair_bytes = max(pair_bytes, acc_isz * cout * hw)
            run_bytes = max(run_bytes, isz * cout * used)
        else:
            op_keep = keep[:, unit_of][:, :, lane_of, None]
            ops[layer.id] = _MacOperands(prog, False, w, op_keep, const)
            pair_bytes = max(pair_bytes, (isz * cin * kk + acc_isz * cout) * hw)
            run_bytes = max(run_bytes, isz * cout * cin * kk)
    # Per sample, the partials stay alive through the block's runs; the
    # im2col columns they are built from do not.
    sb = min(n, max(1, min(BATCH_BYTES // max(1, shared_bytes + cols_bytes),
                           (BATCH_BYTES - run_bytes) // max(1, shared_bytes + pair_bytes))))
    rb = min(runs, max(1, (BATCH_BYTES - sb * shared_bytes) // max(1, sb * pair_bytes + run_bytes)))

    out = np.empty((runs, n, plan.classes), dtype=np.int8)
    for s0 in range(0, n, sb):
        env = {INPUT_ID: samples[s0 : s0 + sb]}
        partials = {}
        for prog in plan.programs:
            layer = prog.layer
            if not has_runs[layer.id]:
                env[layer.id] = array_layer(layer, [env[i] for i in layer.inputs])
            elif layer.id in ops and ops[layer.id].shared_input:
                partials[layer.id] = _lane_partials(ops[layer.id], env[layer.inputs[0]],
                                                    cfg.lanes)
        for r0 in range(0, runs, rb):
            run_env = dict(env)
            for prog in plan.programs:
                layer = prog.layer
                if not has_runs[layer.id]:
                    continue
                if not prog.is_mac:
                    y = array_layer(layer, _broadcast_runs([run_env[i] for i in layer.inputs]))
                elif ops[layer.id].shared_input:
                    y = _mac_from_partials(ops[layer.id], partials[layer.id], r0, rb)
                else:
                    y = _mac_masked(ops[layer.id], run_env[layer.inputs[0]], r0, rb)
                run_env[layer.id] = y
            logits = run_env[plan.output]
            out[r0 : r0 + rb, s0 : s0 + sb] = logits.reshape(*logits.shape[:-3], plan.classes)
    return out


def _lane_major(cin: int, lanes: int) -> np.ndarray:
    """Input channels reordered lane by lane: c = 0, lanes, 2*lanes, ..., 1, ..."""
    return np.concatenate([np.arange(lane, cin, lanes) for lane in range(min(cin, lanes))])


def _broadcast_runs(arrays: list[np.ndarray]) -> list[np.ndarray]:
    """Operands of a non-MAC layer; one without a run axis is broadcast."""
    if len(arrays) == 1:
        return arrays
    shape = np.broadcast_shapes(*(a.shape for a in arrays))
    return [np.broadcast_to(a, shape) for a in arrays]


def _taps(prog: LayerProgram, x: np.ndarray) -> np.ndarray:
    """int8 im2col view (..., Cin, K, K, Hout, Wout) of x (..., Cin, H, W)."""
    layer = prog.layer
    k = prog.packed.k
    stride = layer.stride if layer.kind == "conv" else 1
    pad = layer.pad if layer.kind == "conv" else 0
    _, hout, wout = prog.out_shape
    if pad:
        h, w = x.shape[-2:]
        xp = np.zeros(x.shape[:-2] + (h + 2 * pad, w + 2 * pad), dtype=np.int8)
        xp[..., pad : pad + h, pad : pad + w] = x
        x = xp
    *lead, sh, sw = x.strides
    return np.lib.stride_tricks.as_strided(
        x, x.shape[:-2] + (k, k, hout, wout), (*lead, sh, sw, sh * stride, sw * stride),
        writeable=False)


def _lane_partials(op: _MacOperands, x: np.ndarray, lanes: int) -> np.ndarray:
    """(Cout, L, S*Hout*Wout) in op.w's dtype: each lane's share of the
    accumulators of samples x (S, Cin, H, W), before bias and faults."""
    cin = x.shape[1]
    taps = _taps(op.prog, x)
    kk = taps.shape[2] * taps.shape[3]
    cols = np.empty((cin,) + taps.shape[2:4] + (len(x),) + taps.shape[4:], dtype=op.w.dtype)
    row = 0
    for lane in range(min(cin, lanes)):  # lane-major channels, as in op.w
        c = taps[:, lane::lanes]
        cols[row : row + c.shape[1]] = c.transpose(1, 2, 3, 0, 4, 5)
        row += c.shape[1]
    cols = cols.reshape(cin * kk, -1)
    cout = op.w.shape[0]
    p = np.empty((cout, op.keep.shape[2], cols.shape[1]), dtype=op.w.dtype)
    row = 0
    for lane in range(p.shape[1]):
        rows = kk * len(range(lane, cin, lanes))
        np.matmul(op.w[:, row : row + rows], cols[row : row + rows], out=p[:, lane])
        row += rows
    return p


def _mac_from_partials(op: _MacOperands, p: np.ndarray, r0: int, rb: int) -> np.ndarray:
    """int8 (runs, S, Cout, Hout, Wout) from shared lane partials."""
    keep = op.keep[:, r0 : r0 + rb].astype(p.dtype)
    acc = np.matmul(keep, p)  # (Cout, runs, S*Hout*Wout)
    acc += op.const[:, r0 : r0 + rb, None]
    q = _requantize(op, acc)
    cout, hout, wout = op.prog.out_shape
    q = q.reshape(cout, q.shape[1], -1, hout * wout).transpose(1, 2, 0, 3)
    return np.ascontiguousarray(q).reshape(q.shape[:3] + (hout, wout))


def _mac_masked(op: _MacOperands, x: np.ndarray, r0: int, rb: int) -> np.ndarray:
    """int8 (runs, S, Cout, Hout, Wout) from per-run inputs x (runs, S, Cin, H, W)."""
    taps = _taps(op.prog, x)
    cols = np.empty(taps.shape, dtype=op.w.dtype)
    cols[...] = taps
    runs, n = x.shape[:2]
    cout, hout, wout = op.prog.out_shape
    w = np.multiply(op.w, op.keep[r0 : r0 + rb])  # (runs, Cout, Cin, K*K)
    acc = np.matmul(w.reshape(runs, 1, cout, -1), cols.reshape(runs, n, -1, hout * wout))
    acc += op.const[r0 : r0 + rb, None, :, None]
    return _requantize(op, acc).reshape(runs, n, cout, hout, wout)


def _requantize(op: _MacOperands, acc: np.ndarray) -> np.ndarray:
    """int8 of integer-valued accumulators; rint(acc * m) is taken in float64
    either way, in place for a float64 acc and in a fresh array for float32."""
    return requantize_array(acc, op.prog.layer.m, out=acc if acc.dtype == np.float64 else None)


def execute_plan(plan: ExecutionPlan, input: QTensor, faults: FaultMap | None = None,
                 trace: bool = False) -> ExecResult:
    """Run one inference; with an empty FaultMap the result is bit-identical
    to the reference pipeline."""
    return Emulator(plan, faults, trace=trace).run(input)
