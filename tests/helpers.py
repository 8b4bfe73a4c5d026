"""Shared builders for test models and oracles."""

from __future__ import annotations

from itertools import product

import numpy as np

from macfi.faultctl import FaultMap, FaultMode, LaneFault, SplitMix64
from macfi.macarray import ExecResult, TraceEvent, get_kernel, mac_dot, mult_lane
from macfi.model import INPUT_ID, Dataset, LayerSpec, ModelGraph, reference_forward
from macfi.planner import ExecutionPlan
from macfi.qtensor import QTensor, ref_execute_layer, requantize, requantize_array, sat32


def mac_layer(rng, lid, kind, src, cin, cout, k, stride=1, pad=0, m=None):
    """conv/fc LayerSpec with random weights; m == weight_scale so the tensor
    scale is preserved, which keeps residual adds valid anywhere."""
    m = m if m is not None else 2.0 ** -int(rng.integers(6, 9))
    w = rng.integers(-16, 17, size=(cout, cin, k, k)).astype(np.int8)
    b = rng.integers(-1024, 1025, size=cout).astype(np.int32)
    return LayerSpec(id=lid, kind=kind, inputs=[src], k=k, stride=stride, pad=pad,
                     cout=cout, m=m, weight_scale=m, weights=w, bias=b)


def make_random_model(rng: np.random.Generator) -> ModelGraph:
    """Random small DAG: conv/relu/maxpool/residual-add body, gavgpool + fc head.

    Dims and channel counts stay <= 16. All scales are powers of two and every
    conv keeps m == weight_scale, so scales match wherever an add appears.
    """
    c = int(rng.integers(1, 9))
    h = int(rng.integers(3, 13))
    w = int(rng.integers(3, 13))
    scale = 2.0 ** -int(rng.integers(4, 8))
    layers: list[LayerSpec] = []
    cur, cur_c, cur_h, cur_w = "input", c, h, w
    idx = 0

    def push(layer, out_c, out_h, out_w):
        nonlocal cur, cur_c, cur_h, cur_w, idx
        layers.append(layer)
        cur, cur_c, cur_h, cur_w = layer.id, out_c, out_h, out_w
        idx += 1

    for _ in range(int(rng.integers(1, 5))):
        kind = rng.choice(["conv", "relu", "maxpool", "res"])
        if kind == "conv":
            pad = int(rng.integers(0, 2))
            kmax = min(cur_h, cur_w) + 2 * pad
            k = int(rng.integers(1, min(3, kmax) + 1))
            stride = int(rng.integers(1, 3))
            cout = int(rng.integers(1, 17))
            push(mac_layer(rng, f"l{idx}", "conv", cur, cur_c, cout, k, stride, pad),
                 cout,
                 (cur_h + 2 * pad - k) // stride + 1,
                 (cur_w + 2 * pad - k) // stride + 1)
        elif kind == "relu":
            push(LayerSpec(id=f"l{idx}", kind="relu", inputs=[cur]), cur_c, cur_h, cur_w)
        elif kind == "maxpool" and cur_h >= 2 and cur_w >= 2:
            push(LayerSpec(id=f"l{idx}", kind="maxpool", inputs=[cur], k=2, stride=2),
                 cur_c, cur_h // 2, cur_w // 2)
        elif kind == "res":
            skip = cur
            push(mac_layer(rng, f"l{idx}", "conv", cur, cur_c, cur_c, 3, 1, 1),
                 cur_c, cur_h, cur_w)
            push(LayerSpec(id=f"l{idx}", kind="relu", inputs=[cur]), cur_c, cur_h, cur_w)
            push(LayerSpec(id=f"l{idx}", kind="add", inputs=[cur, skip]),
                 cur_c, cur_h, cur_w)

    push(LayerSpec(id=f"l{idx}", kind="gavgpool", inputs=[cur]), cur_c, 1, 1)
    classes = int(rng.integers(2, 17))
    push(mac_layer(rng, f"l{idx}", "fc", cur, cur_c, classes, 1), classes, 1, 1)
    return ModelGraph(layers, (c, h, w), scale, cur, classes)


def random_input(rng: np.random.Generator, g: ModelGraph) -> QTensor:
    data = rng.integers(-128, 128, size=g.input_shape).astype(np.int8)
    return QTensor(data, g.input_scale)


def make_cin4_model() -> ModelGraph:
    """Every MAC layer has Cin=4, so lanes 4..7 never carry operands."""
    rng = np.random.default_rng(41)
    layers = [
        mac_layer(rng, "conv1", "conv", "input", 4, 4, 3, 1, 1, m=2.0 ** -7),
        LayerSpec(id="relu1", kind="relu", inputs=["conv1"]),
        LayerSpec(id="gap", kind="gavgpool", inputs=["relu1"]),
        mac_layer(rng, "fc", "fc", "gap", 4, 4, 1, m=2.0 ** -7),
    ]
    return ModelGraph(layers, (4, 6, 6), 2.0 ** -6, "fc", 4)


def make_strided_padded_model() -> ModelGraph:
    """Stride 2 and pad 1 over a non-square 7x5 input: the last row and
    column of outputs read the far padding. Cin = 11 spans two lane groups,
    the second with idle lanes; Cout = 10 wraps the units."""
    rng = np.random.default_rng(15)
    layers = [mac_layer(rng, "conv", "conv", "input", 11, 10, 3, 2, 1, m=2.0 ** -7),
              LayerSpec(id="relu", kind="relu", inputs=["conv"]),
              LayerSpec(id="gap", kind="gavgpool", inputs=["relu"]),
              mac_layer(rng, "fc", "fc", "gap", 10, 6, 1, m=2.0 ** -7)]
    return ModelGraph(layers, (11, 7, 5), 2.0 ** -6, "fc", 6)


def make_dataset_for(g: ModelGraph, n: int, seed: int) -> Dataset:
    """Synthetic dataset labeled by the model's own fault-free predictions."""
    rng = np.random.default_rng(seed)
    samples = rng.integers(-128, 128, size=(n, *g.input_shape)).astype(np.int8)
    labels = np.empty(n, dtype=np.uint16)
    for i in range(n):
        _, logits = reference_forward(g, QTensor(samples[i], g.input_scale))
        labels[i] = int(np.argmax(logits))
    return Dataset(samples, labels, g.input_scale)


def zero_weight_copy(g: ModelGraph) -> ModelGraph:
    """Same graph with all conv/fc weights zeroed: the bias-only oracle.

    With every product forced to zero (all lanes StuckZero) the emulator
    must behave exactly like this model.
    """
    layers = []
    for layer in g.layers:
        if layer.kind in ("conv", "fc"):
            copy = LayerSpec(id=layer.id, kind=layer.kind, inputs=list(layer.inputs),
                             k=layer.k, stride=layer.stride, pad=layer.pad,
                             cout=layer.cout, m=layer.m, weight_scale=layer.weight_scale,
                             weights=np.zeros_like(layer.weights), bias=layer.bias.copy())
        else:
            copy = LayerSpec(id=layer.id, kind=layer.kind, inputs=list(layer.inputs),
                             k=layer.k, stride=layer.stride, pad=layer.pad)
        layers.append(copy)
    return ModelGraph(layers, g.input_shape, g.input_scale, g.output, g.classes)


def bias_only_accuracy(g: ModelGraph, ds: Dataset, indices=None) -> float:
    """Accuracy of the zero-weight (bias-only) reference model."""
    zg = zero_weight_copy(g)
    idx = range(len(ds)) if indices is None else indices
    correct = 0
    for i in idx:
        _, logits = reference_forward(zg, ds.sample(i))
        correct += int(np.argmax(logits)) == int(ds.labels[i])
    return correct / len(idx)


def scalar_fault_map(k: int, template: LaneFault, seed: int,
                     units: int = 8, lanes: int = 8) -> FaultMap:
    """Independent scalar reference for sample_random_fault_map(s): a partial
    Fisher-Yates shuffle of the flat lane indices, one SplitMix64(seed).bounded
    draw per step, with the chosen lanes set through FaultMap.set."""
    rng = SplitMix64(seed)
    idx = list(range(units * lanes))
    for i in range(k):
        j = i + rng.bounded(units * lanes - i)
        idx[i], idx[j] = idx[j], idx[i]
    fmap = FaultMap(units, lanes)
    for flat in idx[:k]:
        fmap.set(*divmod(flat, lanes), template)
    return fmap


def _mux_fires(fault: LaneFault, cycle: int) -> bool:
    if fault.mode is FaultMode.PULSE:
        return fault.start <= cycle < fault.start + fault.length
    return fault.mode is not FaultMode.NONE


def oracle_run(plan: ExecutionPlan, sample: QTensor, faults: FaultMap) -> ExecResult:
    """Independent scalar oracle for a traced Emulator.run.

    Each MAC layer runs as one scalar loop over (o, y, x, group, i, j), one
    cycle per micro-op: output channel o on unit o mod units, lane l of group
    g carrying input channel g*lanes + l, and input position (y*stride - pad
    + i, x*stride - pad + j) derived here from the layer's K, stride and pad.
    Each micro-op goes through mac_dot/mult_lane with the FaultMap's own
    LaneFaults. It shares no code with the planner's tap index or packed rows,
    the kernels, ``_kernel_py.engaged`` or ``FaultMap.to_arrays``. Non-MAC
    layers run on the reference pipeline. Returns logits, per-layer outputs,
    cycles and one TraceEvent per carried slot whose fault mux fired.
    """
    units, lanes = plan.cfg.units, plan.cfg.lanes
    env = {INPUT_ID: sample}
    cycle, events = 0, []
    for prog in plan.programs:
        layer = prog.layer
        if layer.kind not in ("conv", "fc"):
            env[layer.id] = ref_execute_layer(layer, [env[i] for i in layer.inputs])
            continue
        k, stride, pad = (layer.k, layer.stride, layer.pad) if layer.kind == "conv" else (1, 1, 0)
        c_in, h, w = env[layer.inputs[0]].dims
        hout, wout = (h + 2 * pad - k) // stride + 1, (w + 2 * pad - k) // stride + 1
        acts, weights = env[layer.inputs[0]].data.tolist(), layer.weights.tolist()
        acc = {(o, y, x): int(layer.bias[o])
               for o, y, x in product(range(layer.cout), range(hout), range(wout))}
        for o, y, x, c0, i, j in product(range(layer.cout), range(hout), range(wout),
                                         range(0, c_in, lanes), range(k), range(k)):
            u, iy, ix = o % units, y * stride - pad + i, x * stride - pad + j
            inside = 0 <= iy < h and 0 <= ix < w
            pairs = [None if c >= c_in else (acts[c][iy][ix] if inside else 0, weights[o][c][i][j])
                     for c in range(c0, c0 + lanes)]
            for lane, pair in enumerate(pairs):
                fault = faults.get(u, lane)
                if pair is not None and _mux_fires(fault, cycle):
                    events.append(TraceEvent(cycle, layer.id, u, lane, (o, y, x),
                                             fault.mode.value, mult_lane(*pair, fault, cycle)))
            acc[o, y, x] = sat32(acc[o, y, x] + mac_dot(pairs, u, faults, cycle))
            cycle += 1
        out = np.array([requantize(a, layer.m) for a in acc.values()], dtype=np.int8)
        env[layer.id] = QTensor(out.reshape(layer.cout, hout, wout), prog.out_scale)
    del env[INPUT_ID]
    return ExecResult(env, env[plan.output].data.reshape(-1), cycle, events)


def per_step_run(plan: ExecutionPlan, x: QTensor, faults: FaultMap | None = None) -> ExecResult:
    """An untraced run on the per-step datapath: each MAC layer's packed
    program through the active kernel's run_program, one micro-op per
    cycle, then requantize; non-MAC layers on the reference pipeline.
    Emulator.run's closed form must equal it; unlike a traced run, it
    builds no trace events, so maps that fire on every slot stay cheap."""
    faults = faults if faults is not None else FaultMap(plan.cfg.units, plan.cfg.lanes)
    kernel, farr = get_kernel(), faults.to_arrays()
    env, cycle = {INPUT_ID: x}, 0
    for prog in plan.programs:
        layer = prog.layer
        if not prog.is_mac:
            env[layer.id] = ref_execute_layer(layer, [env[i] for i in layer.inputs])
            continue
        p = prog.packed
        acc = np.repeat(prog.bias, prog.out_shape[1] * prog.out_shape[2])
        cycle = kernel.run_program(p.unit, p.dest, p.act_idx, p.w_idx,
                                   env[layer.inputs[0]].data.reshape(-1), prog.weights_flat,
                                   acc, *farr, plan.cfg.lanes, cycle)
        env[layer.id] = QTensor(requantize_array(acc, layer.m).reshape(prog.out_shape),
                                prog.out_scale)
    del env[INPUT_ID]
    return ExecResult(env, env[plan.output].data.reshape(-1), cycle)


def assert_same_outputs(got: ExecResult, want: ExecResult):
    """Equal logits, cycles and per-layer outputs."""
    assert np.array_equal(got.logits, want.logits)
    assert got.cycles == want.cycles
    assert list(got.outputs) == list(want.outputs)
    for lid in want.outputs:
        assert got.outputs[lid] == want.outputs[lid]


def assert_same_run(got: ExecResult, want: ExecResult):
    """Equal logits, cycles, per-layer outputs and trace events."""
    assert_same_outputs(got, want)
    assert got.trace == want.trace
