"""Bit-equality checks between the compiled kernel, its pure-Python twin and
the scalar oracle in helpers.py, and the argument checks the compiled kernel
makes before it runs.

The python kernel has one accumulate route: it sorts the rows stably by
output element, then saturate-adds step k of every element at once. The
wide-accumulation cases below drive 2100 steps into one element, through
the rail and, from a deep negative bias, up to just below it.
"""

from __future__ import annotations

import numpy as np
import pytest

from macfi import macarray
from macfi.faultctl import (
    FaultMap,
    LaneFault,
    fault_for_error_value,
    sample_random_fault_map,
    single_lane_map,
)
from macfi.macarray import Emulator, available_backends, get_kernel
from macfi.model import LayerSpec, ModelGraph
from macfi.planner import plan_model
from macfi.qtensor import ACC_MAX, ACC_MIN, QTensor

from helpers import assert_same_run, mac_layer, make_random_model, oracle_run, random_input

BACKENDS = available_backends()
needs_both = pytest.mark.skipif(len(BACKENDS) < 2,
                                reason="compiled extension not built")


def test_python_backend_always_available():
    assert "python" in BACKENDS


def execute_on(backend: str, plan, x: QTensor, fmap: FaultMap | None = None, trace: bool = False):
    """Emulator.run on one backend; "python" pins the state of an install
    without the extension."""
    with pytest.MonkeyPatch.context() as mp:
        if backend == "python":
            mp.setattr(macarray, "_kernel", None)
        return Emulator(plan, fmap, trace=trace).run(x)


def run_prog(kernel_name: str, prog, x: QTensor, fmap: FaultMap, cycle0: int = 0):
    """Drive one packed layer program through a kernel; returns (acc3, next_cycle)."""
    kern = get_kernel(kernel_name)
    p = prog.packed
    acc3 = np.empty(prog.out_shape, dtype=np.int32)
    acc3[:] = prog.bias[:, None, None]
    mode, value, start, length = fmap.to_arrays()
    nxt = kern.run_program(
        p.unit, p.dest, p.act_idx, p.w_idx,
        np.ascontiguousarray(x.data).reshape(-1), prog.weights_flat,
        acc3.reshape(-1), mode, value, start, length, fmap.lanes, cycle0,
    )
    return acc3, nxt


def _random_fault_map(rng) -> FaultMap:
    roll = int(rng.integers(0, 4))
    if roll == 0:
        return FaultMap()
    if roll == 1:
        return sample_random_fault_map(
            int(rng.integers(1, 65)), fault_for_error_value(int(rng.integers(-3, 4))),
            int(rng.integers(0, 2**63)))
    if roll == 2:
        v = int(rng.integers(-131072, 131072))
        return single_lane_map(int(rng.integers(0, 8)), int(rng.integers(0, 8)),
                               LaneFault.constant(v))
    f = LaneFault.pulse(int(rng.integers(-131072, 131072)),
                        start=int(rng.integers(0, 4000)),
                        length=int(rng.integers(1, 3000)))
    return single_lane_map(int(rng.integers(0, 8)), int(rng.integers(0, 8)), f)


def test_random_inference_agreement():
    rng = np.random.default_rng(20260815)
    for _ in range(12):
        g = make_random_model(rng)
        plan = plan_model(g)
        x = random_input(rng, g)
        fmap = _random_fault_map(rng)
        want = oracle_run(plan, x, fmap)
        for b in BACKENDS:
            assert_same_run(execute_on(b, plan, x, fmap, trace=True), want)


def _wide_graph(groups: int, bias0: int = 0) -> ModelGraph:
    """conv k=1 over (8*groups, 1, 1): every output pixel accumulates
    `groups` micro-ops into one slot, enough to overflow 32 bits when a
    large constant is forced on a whole unit."""
    cin = 8 * groups
    rng = np.random.default_rng(5)
    conv = LayerSpec(id="wide", kind="conv", inputs=["input"], k=1, stride=1,
                     pad=0, cout=8, m=2.0 ** -7, weight_scale=2.0 ** -7,
                     weights=np.ones((8, cin, 1, 1), dtype=np.int8),
                     bias=np.full(8, bias0, dtype=np.int32))
    fc = mac_layer(rng, "fc", "fc", "wide", 8, 4, 1)
    return ModelGraph([conv, fc], (cin, 1, 1), 2.0 ** -6, "fc", 4)


def _unit0_map(value: int) -> FaultMap:
    fmap = FaultMap()
    for lane in range(8):
        fmap.set(0, lane, LaneFault.constant(value))
    return fmap


@pytest.mark.parametrize("backend", BACKENDS)
def test_accumulator_saturates_high(backend):
    groups = 2100  # 2100 * 8 * 131071 far exceeds the 32-bit ceiling
    plan = plan_model(_wide_graph(groups))
    x = QTensor(np.zeros((8 * groups, 1, 1), dtype=np.int8), 2.0 ** -6)
    acc, _ = run_prog(backend, plan.by_id["wide"], x, _unit0_map(131071))
    assert acc[0, 0, 0] == ACC_MAX
    assert np.all(acc[1:] == 0)  # zero activations elsewhere


@pytest.mark.parametrize("backend", BACKENDS)
def test_accumulator_saturates_low(backend):
    groups = 2100
    plan = plan_model(_wide_graph(groups))
    x = QTensor(np.zeros((8 * groups, 1, 1), dtype=np.int8), 2.0 ** -6)
    acc, _ = run_prog(backend, plan.by_id["wide"], x, _unit0_map(-131072))
    assert acc[0, 0, 0] == ACC_MIN
    assert np.all(acc[1:] == 0)


@pytest.mark.parametrize("backend", BACKENDS)
def test_wide_accumulation_exact_when_no_overflow(backend):
    # bias starts deep negative, constants climb back up: the running sum
    # stays inside 32 bits the whole way, so the stepped saturating
    # accumulate must equal the exact sum
    groups = 2100
    bias0 = -2_100_000_000
    plan = plan_model(_wide_graph(groups, bias0=bias0))
    x = QTensor(np.zeros((8 * groups, 1, 1), dtype=np.int8), 2.0 ** -6)
    acc, nxt = run_prog(backend, plan.by_id["wide"], x, _unit0_map(131071))
    assert acc[0, 0, 0] == bias0 + groups * 8 * 131071
    assert np.all(acc[1:] == bias0)
    assert nxt == plan.by_id["wide"].n_ops


@needs_both
def test_saturating_inference_agrees_end_to_end():
    plan = plan_model(_wide_graph(2100))
    rng = np.random.default_rng(11)
    x = QTensor(rng.integers(-128, 128, size=(8 * 2100, 1, 1)).astype(np.int8),
                2.0 ** -6)
    fmap = _unit0_map(131071)
    a = execute_on("python", plan, x, fmap)
    b = execute_on("compiled", plan, x, fmap)
    assert np.array_equal(a.logits, b.logits)
    for lid in a.outputs:
        assert a.outputs[lid] == b.outputs[lid]


def test_pulse_windows_agree_across_layer_boundaries(desk_plan, desk_dataset):
    x = desk_dataset.sample(0)
    total = desk_plan.total_micro_ops
    rng = np.random.default_rng(3)
    windows = [(0, 1), (total - 1, 1), (total // 2, 37), (0, total)]
    windows += [(int(rng.integers(0, total)), int(rng.integers(1, total)))
                for _ in range(6)]
    for start, length in windows:
        fmap = single_lane_map(int(rng.integers(0, 8)), int(rng.integers(0, 8)),
                               LaneFault.pulse(-131072, start, length))
        want = oracle_run(desk_plan, x, fmap)
        for b in BACKENDS:
            assert_same_run(execute_on(b, desk_plan, x, fmap, trace=True), want)


def _fc_args(desk_plan, desk_dataset) -> list:
    """A valid run_program argument list for the desk model's fc layer."""
    x = desk_dataset.sample(0)
    res = Emulator(desk_plan).run(x)
    prog = desk_plan.by_id[desk_plan.output]
    fc_in = res.outputs[prog.layer.inputs[0]]
    p = prog.packed
    acc = np.repeat(prog.bias, prog.out_shape[1] * prog.out_shape[2])
    return [p.unit, p.dest, p.act_idx, p.w_idx,
            np.ascontiguousarray(fc_in.data).reshape(-1), prog.weights_flat, acc,
            *FaultMap().to_arrays(), desk_plan.cfg.lanes, 0]


def _with(args: list, i: int, value) -> list:
    return args[:i] + [value] + args[i + 1:]


def _read_only(a: np.ndarray) -> np.ndarray:
    view = a.view()
    view.flags.writeable = False
    return view


BAD_ARGS = {
    "int64_act_idx": lambda a: _with(a, 2, a[2].astype(np.int64)),
    "2d_dest": lambda a: _with(a, 1, a[1].reshape(-1, 1)),
    "strided_act_flat": lambda a: _with(a, 4, np.repeat(a[4], 2)[::2]),
    "read_only_acc": lambda a: _with(a, 6, _read_only(a[6])),
    "act_idx_width_not_lanes": lambda a: _with(a, 2, np.ascontiguousarray(a[2][:, 1:])),
    "missing_cycle0": lambda a: a[:-1],
}


@needs_both
@pytest.mark.parametrize("breaker", BAD_ARGS.values(), ids=BAD_ARGS.keys())
def test_compiled_rejects_bad_arguments(breaker, desk_plan, desk_dataset):
    kern = get_kernel("compiled")
    good = _fc_args(desk_plan, desk_dataset)
    assert desk_plan.by_id[desk_plan.output].n_ops == kern.run_program(*good)
    args = _fc_args(desk_plan, desk_dataset)
    acc = args[6]
    before = acc.copy()
    with pytest.raises((TypeError, ValueError)):
        kern.run_program(*breaker(args))
    assert np.array_equal(acc, before)



@pytest.mark.parametrize("backend", BACKENDS)
def test_kernels_accept_read_only_fault_views(backend, desk_plan, desk_dataset):
    """Only acc must be writable: the read-only views that FaultMap.to_arrays
    lends run as they are and give what writable copies give."""
    fmap = single_lane_map(0, 0, LaneFault.pulse(9, 10, 200))
    fmap.set(3, 5, LaneFault.constant(-77))
    fmap.set(6, 1, LaneFault.stuck_zero())
    views = fmap.to_arrays()
    assert not any(v.flags.writeable for v in views)
    prog = next(p for p in desk_plan.programs if p.is_mac)
    p, x = prog.packed, np.ascontiguousarray(desk_dataset.sample(0).data).reshape(-1)
    accs = []
    for farr in (views, [v.copy() for v in views], FaultMap().to_arrays()):
        acc = np.repeat(prog.bias, prog.out_shape[1] * prog.out_shape[2])
        assert get_kernel(backend).run_program(p.unit, p.dest, p.act_idx, p.w_idx, x,
                                               prog.weights_flat, acc, *farr,
                                               fmap.lanes, 0) == prog.n_ops
        accs.append(acc)
    assert np.array_equal(accs[0], accs[1])
    assert not np.array_equal(accs[0], accs[2])  # the faults fired
