"""Fault-free bit-exactness at the int32 rail, and agreement of every path
where accumulators saturate part-way through a sum.

The reference (qtensor.ref_conv2d) and the datapath share one semantics:
each accumulator starts at its bias, adds one micro-op at a time (a lane
group's dot product at one tap, in (group, i, j) order) and saturates to
int32 after each. So with no faults reference_forward equals Emulator.run,
batch_logits and the scalar oracle even when an accumulator hits the rail
and comes back, where an exact sum clipped once at the end would not.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import macfi.macarray as macarray
from macfi.faultctl import FaultMap, LaneFault, sample_random_fault_map
from macfi.macarray import Emulator, batch_logits, get_kernel
from macfi.model import LayerSpec, ModelGraph, reference_forward
from macfi.planner import plan_model
from macfi.qtensor import ACC_MAX, ACC_MIN, LANES, QTensor, ref_conv2d

from helpers import oracle_run

BACKENDS = macarray.available_backends()


def _fc_repro() -> tuple[ModelGraph, QTensor]:
    """A 1x1 fc with Cin 16 and activations 127. Lanes 0-7 carry weight
    +127 and drive the accumulator from a bias of 2^31 - 100 into the rail;
    lanes 8-15 carry -127 and take it back to ACC_MAX - 8 * 127 * 127. The
    exact sum, 2^31 - 100, would requantize to 101; the stepped one to 100."""
    weights = np.array([127] * 8 + [-127] * 8, dtype=np.int8).reshape(1, 16, 1, 1)
    fc = LayerSpec(id="fc", kind="fc", inputs=["input"], k=1, stride=1, pad=0, cout=1,
                   m=100.5025 / 2147483548, weight_scale=1.0, weights=weights,
                   bias=np.array([2 ** 31 - 100], dtype=np.int32))
    g = ModelGraph([fc], (16, 1, 1), 1.0, "fc", 1)
    return g, QTensor(np.full((16, 1, 1), 127, dtype=np.int8), 1.0)


def test_reference_saturates_each_micro_op():
    g, x = _fc_repro()
    fc = g.layers[0]
    acc = ref_conv2d(x, fc.weights, fc.bias, 1, 0)
    assert acc.reshape(-1).tolist() == [ACC_MAX - 8 * 127 * 127]


def test_fc_repro_gives_100_on_every_path(backend):
    g, x = _fc_repro()
    plan = plan_model(g)
    assert reference_forward(g, x)[1].tolist() == [100]
    assert Emulator(plan).run(x).logits.tolist() == [100]
    assert batch_logits(plan, x.data[None], [FaultMap()]).tolist() == [[[100]]]
    assert oracle_run(plan, x, FaultMap()).logits.tolist() == [100]


RAIL_INT8 = st.sampled_from([-128, -127, 127])
RAIL_BIAS = st.one_of(st.integers(ACC_MAX - 2 ** 20, ACC_MAX),
                      st.integers(ACC_MIN, ACC_MIN + 2 ** 20))
# Constant maps near either rail of the 18-bit lane value.
NEAR_RAIL_MAP = st.builds(
    lambda k, v, seed: sample_random_fault_map(k, LaneFault.constant(v), seed, 8, 8),
    st.integers(1, 64),
    st.one_of(st.integers(131071 - 16, 131071), st.integers(-131072, -131072 + 16)),
    st.integers(0, 2 ** 63 - 1))


def rail_array(shape):
    # Drawn element by element: a constant fill would give every product
    # one sign, and an accumulator that hits the rail would never come back.
    return arrays(np.int8, shape, elements=RAIL_INT8, fill=st.nothing())


@st.composite
def rail_models(draw):
    """One conv, stride 1, 'same' padding (padded taps are live), whose
    Cin spans two or three lane groups, with weights, activations and
    biases at the rails; m puts accumulators near the rails at +-64..128."""
    cin = draw(st.integers(LANES + 1, 3 * LANES))
    k = draw(st.sampled_from([1, 3]))
    h, w, cout = draw(st.integers(1, 2)), draw(st.integers(1, 2)), draw(st.integers(1, 10))
    conv = LayerSpec(id="conv", kind="conv", inputs=["input"], k=k, stride=1, pad=k // 2,
                     cout=cout, m=draw(st.floats(2.0 ** -25, 2.0 ** -24)), weight_scale=1.0,
                     weights=draw(rail_array((cout, cin, k, k))),
                     bias=np.array(draw(st.lists(RAIL_BIAS, min_size=cout, max_size=cout)),
                                   dtype=np.int32))
    g = ModelGraph([conv], (cin, h, w), 1.0, "conv", cout * h * w)
    x = QTensor(draw(rail_array((cin, h, w))), 1.0)
    return g, x


def _kernel_acc(backend: str, prog, x: QTensor, fmap: FaultMap) -> np.ndarray:
    """One MAC program's int32 accumulators from a kernel's run_program."""
    p = prog.packed
    acc = np.repeat(prog.bias, prog.out_shape[1] * prog.out_shape[2])
    get_kernel(backend).run_program(p.unit, p.dest, p.act_idx, p.w_idx, x.data.reshape(-1),
                                    prog.weights_flat, acc, *fmap.to_arrays(), fmap.lanes, 0)
    return acc.reshape(prog.out_shape)


@given(rail_models(), st.lists(NEAR_RAIL_MAP, max_size=3))
@settings(max_examples=60, deadline=None)
def test_every_path_agrees_at_the_rails(case, faulty):
    g, x = case
    plan = plan_model(g)
    maps = [FaultMap()] + faulty
    want = [oracle_run(plan, x, fmap).logits for fmap in maps]
    assert np.array_equal(reference_forward(g, x)[1], want[0])
    conv = g.layers[0]
    ref_acc = ref_conv2d(x, conv.weights, conv.bias, 1, conv.pad)
    for backend in BACKENDS:
        with pytest.MonkeyPatch.context() as mp:
            if backend == "python":  # as an install without the extension
                mp.setattr(macarray, "_kernel", None)
            for fmap, logits in zip(maps, want):
                assert np.array_equal(Emulator(plan, fmap).run(x).logits, logits)
            assert np.array_equal(batch_logits(plan, x.data[None], maps)[:, 0], want)
        # Accumulators, which requantizing to int8 mostly hides.
        prog = plan.by_id["conv"]
        assert np.array_equal(_kernel_acc(backend, prog, x, maps[0]), ref_acc)
        for fmap in faulty:
            assert np.array_equal(_kernel_acc(backend, prog, x, fmap),
                                  _kernel_acc("python", prog, x, fmap))
