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

Emulator.run_batch evaluates a stack of samples at once. Under the planner's
mapping (output channel o on unit o mod units, input channel c on lane
c mod lanes) a permanent fault has a closed form: a faulted lane drops the
products of its (o, c) weights and adds its forced value once per carried
slot. Each MAC layer is then one float64 matmul over the sample block,
exact whenever no partial sum can saturate; otherwise, and for pulses or
traces, run_batch runs the per-step kernel sample by sample.
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

# Byte budget for the largest float64 temporary of one MAC layer over one
# sample block in run_batch (im2col columns plus accumulators).
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
        self._batch = None  # (per-layer matmul operands or None, block size)

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
        plan's input scale; row s equals ``run`` on sample s bit for bit."""
        plan = self.plan
        samples = np.asarray(samples, dtype=np.int8)
        if samples.shape[1:] != plan.input_shape:
            raise ShapeError(f"sample dims {samples.shape[1:]} do not match plan {plan.input_shape}")
        if self._batch is None:
            self._batch = self._prepare_batch()
        layers, block = self._batch
        out = np.empty((len(samples), plan.classes), dtype=np.int8)
        if layers is None:
            for s, x in enumerate(samples):
                out[s] = self.run(QTensor(x, plan.input_scale)).logits
            return out
        for s in range(0, len(samples), block):
            env = {INPUT_ID: samples[s : s + block]}
            for prog in plan.programs:
                layer = prog.layer
                if prog.is_mac:
                    env[layer.id] = _mac_batch(prog, *layers[layer.id], env[layer.inputs[0]])
                else:
                    env[layer.id] = array_layer(layer, [env[i] for i in layer.inputs])
            out[s : s + block] = env[plan.output].reshape(-1, plan.classes)
        return out

    def _prepare_batch(self):
        """Masked weights and constant offsets per MAC layer, and the sample
        block size; (None, 0) when run_batch must run sample by sample."""
        cfg = self.plan.cfg
        mode, value, _, _ = (a.reshape(cfg.units, cfg.lanes) for a in self._farr)
        if self.trace or (mode == 3).any():
            return None, 0
        faulted = mode != 0
        forced = np.where(mode == 2, value, 0).astype(np.int64)  # stuck-at-0 forces 0
        # Largest |lane sum| of one micro-op on any unit.
        row_bound = int(np.where(faulted, np.abs(forced), PRODUCT_MAX).sum(axis=1).max())
        layers, per_sample = {}, 1
        for prog in self.plan.programs:
            if not prog.is_mac:
                continue
            cin = prog.in_shape[0]
            cout, hout, wout = prog.out_shape
            kk = prog.packed.k ** 2
            bias_bound = max(-int(prog.bias.min()), int(prog.bias.max()))
            if bias_bound + -(-cin // cfg.lanes) * kk * row_bound > ACC_MAX:
                return None, 0
            unit_of = np.arange(cout) % cfg.units
            lane_of = np.arange(cin) % cfg.lanes
            keep = ~faulted[np.ix_(unit_of, lane_of)]
            w = np.multiply(prog.weights_flat.reshape(cout, cin, kk), keep[:, :, None],
                            dtype=np.float64)
            slots = kk * np.bincount(lane_of, minlength=cfg.lanes)  # carried slots per lane
            const = prog.bias + forced[unit_of] @ slots
            layers[prog.layer.id] = (w.reshape(cout, -1), const.astype(np.float64)[:, None])
            per_sample = max(per_sample, 8 * hout * wout * (cin * kk + cout))
        return layers, max(1, BATCH_BYTES // per_sample)

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


def _mac_batch(prog: LayerProgram, w: np.ndarray, const: np.ndarray,
               x: np.ndarray) -> np.ndarray:
    """One conv/fc layer over an int8 (B, Cin, H, W) block: the masked
    weights ``w`` (Cout, Cin*K*K) times the im2col columns, plus ``const``
    (Cout, 1), requantized."""
    layer = prog.layer
    k = prog.packed.k
    stride = layer.stride if layer.kind == "conv" else 1
    pad = layer.pad if layer.kind == "conv" else 0
    cout, hout, wout = prog.out_shape
    b, cin, h, wd = x.shape
    if pad:
        xp = np.zeros((b, cin, h + 2 * pad, wd + 2 * pad), dtype=np.int8)
        xp[:, :, pad : pad + h, pad : pad + wd] = x
        x = xp
    sb, sc, sh, sw = x.strides
    taps = np.lib.stride_tricks.as_strided(
        x, (b, cin, k, k, hout, wout), (sb, sc, sh, sw, sh * stride, sw * stride),
        writeable=False)
    cols = np.empty(taps.shape)
    cols[...] = taps
    acc = np.matmul(w, cols.reshape(b, cin * k * k, hout * wout))
    acc += const
    return requantize_array(acc, layer.m).reshape(b, cout, hout, wout)


def execute_plan(plan: ExecutionPlan, input: QTensor, faults: FaultMap | None = None,
                 trace: bool = False) -> ExecResult:
    """Run one inference; with an empty FaultMap the result is bit-identical
    to the reference pipeline."""
    return Emulator(plan, faults, trace=trace).run(input)
