from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macfi.errors import InvalidScale, OutOfRange, ScaleMismatch, ShapeError
from macfi.qtensor import (
    ACC_MAX,
    ACC_MIN,
    INT8_MAX,
    INT8_MIN,
    QTensor,
    array_layer,
    add_array,
    dequantize,
    gavgpool_array,
    maxpool_array,
    quantize,
    ref_add,
    ref_conv2d,
    ref_execute_layer,
    requantize,
    requantize_array,
    sat32,
    scales_in_place,
)
from macfi.model import LayerSpec


def q(data, scale=1.0):
    return QTensor(np.asarray(data, dtype=np.int8).reshape(1, 1, -1), scale)


class TestQuantize:
    def test_exact_division(self):
        assert quantize(np.array([[[0.5]]]), 0.25).data[0, 0, 0] == 2

    def test_clamps_at_int8_max(self):
        assert quantize(np.array([[[100.0]]]), 0.25).data[0, 0, 0] == 127

    def test_round_half_to_even(self):
        # 0.625 / 0.25 = 2.5 rounds to the even neighbor
        assert quantize(np.array([[[0.625]]]), 0.25).data[0, 0, 0] == 2

    def test_invalid_scale(self):
        for s in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(InvalidScale):
                quantize(np.zeros((1, 1, 1)), s)

    @given(st.floats(-100, 100, allow_nan=False), st.sampled_from([0.25, 0.1, 2.0 ** -7]))
    def test_round_trip_error_bound(self, x, scale):
        t = quantize(np.full((1, 1, 1), x), scale)
        back = dequantize(t)[0, 0, 0]
        if -128 * scale <= x <= 127 * scale:
            assert abs(back - x) <= scale / 2 + 1e-12


class TestRequantize:
    def test_basic(self):
        assert requantize(1000, 1 / 256) == 4  # 3.90625

    def test_clamp(self):
        assert requantize(100000, 0.01) == 127

    def test_round_half_to_even_negative(self):
        assert requantize(-640, 1 / 256) == -2  # -2.5 -> even

    def test_invalid_m(self):
        with pytest.raises(InvalidScale):
            requantize(1, 0.0)

    @given(st.integers(ACC_MIN, ACC_MAX), st.integers(ACC_MIN, ACC_MAX),
           st.sampled_from([1 / 256, 2.0 ** -9, 0.013]))
    @settings(max_examples=200)
    def test_monotone_in_acc(self, a, b, m):
        lo, hi = sorted((a, b))
        assert requantize(lo, m) <= requantize(hi, m)

    @given(st.lists(st.integers(ACC_MIN, ACC_MAX), min_size=1, max_size=32),
           st.sampled_from([1 / 256, 2.0 ** -7, 0.05]))
    def test_array_matches_scalar(self, vals, m):
        arr = np.array(vals, dtype=np.int32)
        out = requantize_array(arr, m)
        assert out.dtype == np.int8
        assert out.tolist() == [requantize(v, m) for v in vals]


def test_sat32_bounds():
    assert sat32(ACC_MAX + 1) == ACC_MAX
    assert sat32(ACC_MIN - 1) == ACC_MIN
    assert sat32(5) == 5


class TestQTensorValues:
    @pytest.mark.parametrize("data", [
        np.array([[[300, -129, 1.7]]]),  # a cast would give [44, 127, 1]
        [[[128]]],
        [[[-129]]],
        np.array([[[0.5]]]),
        np.array([[[np.nan]]]),
        np.array([[[-np.inf]]]),
        np.array([[[256]]], dtype=np.uint16),
        np.array([[[1 + 1j]]]),
    ], ids=["wraps", "128", "-129", "fraction", "nan", "inf", "uint16", "complex"])
    def test_values_outside_int8_are_rejected(self, data):
        with pytest.raises(OutOfRange, match="QTensor data"):
            QTensor(data, 1.0)

    @pytest.mark.parametrize("dtype", [np.int16, np.int64, np.float32, np.float64])
    def test_integer_values_of_any_dtype_are_cast(self, dtype):
        t = QTensor(np.array([[[-128, -1, 0, 127]]], dtype=dtype), 1.0)
        assert t.data.dtype == np.int8 and t.data.tolist() == [[[-128, -1, 0, 127]]]
        assert QTensor([[[-128, 127]]], 1.0).data.tolist() == [[[-128, 127]]]

    def test_valid_fields_are_kept(self):
        data = np.zeros((1, 2, 2), dtype=np.int8)
        t = QTensor(data, 0.5)
        assert t.data is data and t.scale == 0.5
        strided = np.arange(8, dtype=np.int8).reshape(1, 2, 4)[..., ::2]
        t = QTensor(strided, np.float64(0.25))
        assert t.data.flags.c_contiguous and t.data.tolist() == [[[0, 2], [4, 6]]]
        assert type(t.scale) is float and type(QTensor(data, 1).scale) is float


# The int8 layer kernels against independent scalar oracles.

@given(st.lists(st.integers(1, 3), max_size=2), st.integers(1, 9), st.integers(1, 9),
       st.sampled_from(["random", "min", "max", "tie"]), st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_gavgpool_array_matches_fraction_oracle(batch, h, w, fill, seed):
    rng = np.random.default_rng(seed)
    batch, n = tuple(batch), h * w
    if fill == "random":
        data = rng.integers(-128, 128, (*batch, n))
    elif fill in ("min", "max"):
        data = np.full((*batch, n), INT8_MIN if fill == "min" else INT8_MAX)
    else:
        # n // 2 values of each slice are t + 1, the rest t: an exact tie
        # t + 1/2 for even n, the nearest miss of one for odd n.
        ups = np.arange(n) < n // 2
        data = rng.integers(-128, 127, (*batch, 1)) + rng.permuted(
            np.broadcast_to(ups, (*batch, n)), axis=-1)
    data = data.astype(np.int8).reshape(*batch, h, w)
    got = gavgpool_array(data)
    assert got.shape == (*batch, 1, 1) and got.dtype == np.int8
    sums = data.reshape(-1, n).astype(np.int64).sum(axis=1)
    # Fraction rounds half to even, exactly.
    assert got.reshape(-1).tolist() == [round(Fraction(int(v), n)) for v in sums]


def test_gavgpool_array_exact_ties_round_to_even():
    t = np.arange(-128, 127)
    for h, w in ((1, 2), (2, 2), (2, 3), (5, 2), (6, 6), (8, 8)):
        n = h * w
        data = np.repeat(t[:, None], n, axis=1) + (np.arange(n) < n // 2)
        got = gavgpool_array(data.astype(np.int8).reshape(len(t), h, w)).reshape(-1)
        assert got.tolist() == [v + (v % 2) for v in t.tolist()], (h, w)


def test_gavgpool_array_large_window_near_ties():
    # n = 511 * 511: every quotient t + 1/2 -+ 1/(2n) must still round by its
    # side of the tie (a float32 division gets 63 of these wrong).
    h = w = 511
    n = h * w
    data = np.empty(n, dtype=np.int8)
    for t in range(INT8_MIN, INT8_MAX):
        for ups in (n // 2, n // 2 + 1):
            data[:ups], data[ups:] = t + 1, t
            assert int(gavgpool_array(data.reshape(h, w))[0, 0]) == round(
                Fraction(t * n + ups, n)), (t, ups)


@pytest.mark.parametrize("stride", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_maxpool_array_matches_loop_oracle(k, stride):
    rng = np.random.default_rng(10 * k + stride)
    for shape in ((3, 3), (1, 5, 7), (2, 3, 9, 5), (4, 3)):
        data = rng.integers(-128, 128, shape).astype(np.int8)
        batch, (h, w) = shape[:-2], shape[-2:]
        hout, wout = (h - k) // stride + 1, (w - k) // stride + 1
        got = maxpool_array(data, k, stride)
        assert got.shape == (*batch, hout, wout) and got.dtype == np.int8
        assert not np.shares_memory(got, data)
        for idx in np.ndindex(*batch, hout, wout):
            *b, y, x = idx
            window = data[tuple(b)][y * stride : y * stride + k, x * stride : x * stride + k]
            assert got[idx] == max(window.reshape(-1).tolist()), (shape, idx)


# Accumulators on and around both rails: +-2^30 far past them, and ties at
# +-126.5, +-127.5 and -128.5 under m = 1/2.
_RAIL_ACCS = [2 ** 30, -(2 ** 30), 2 ** 24, -(2 ** 24), 253, -253, 255, -255, 257, -257,
              256, -256, 254, -254, 0, 1, -1]


@pytest.mark.parametrize("shape", [(8, 64), (16, 24, 128)], ids=["desk", "campaign"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_requantize_array_at_the_rails(shape, dtype):
    rng = np.random.default_rng(5)
    acc = rng.integers(-(2 ** 24), 2 ** 24, shape)
    acc.reshape(-1)[: len(_RAIL_ACCS)] = _RAIL_ACCS
    for m in (0.5, 2.0 ** -7, 2.0 ** -23):
        got = requantize_array(acc.astype(dtype), m)
        assert got.dtype == np.int8 and got.shape == shape
        assert got.reshape(-1).tolist() == [requantize(v, m) for v in acc.reshape(-1).tolist()]
    assert requantize_array(np.array(_RAIL_ACCS[:10], dtype=dtype), 0.5).tolist() == [
        127, -128, 127, -128, 126, -126, 127, -128, 127, -128]


@pytest.mark.parametrize("shape", [(8, 4, 4), (16, 24, 2, 8, 8)], ids=["desk", "campaign"])
def test_add_array_at_the_rails(shape):
    rng = np.random.default_rng(6)
    a = rng.integers(-128, 128, shape).astype(np.int8)
    b = rng.integers(-128, 128, shape).astype(np.int8)
    pairs = [(127, 127), (-128, -128), (127, -128), (-128, 127), (127, 1), (-128, -1), (1, -1)]
    a.reshape(-1)[: len(pairs)], b.reshape(-1)[: len(pairs)] = zip(*pairs)
    got = add_array(a, b)
    assert got.dtype == np.int8 and got.shape == shape
    want = [max(INT8_MIN, min(INT8_MAX, x + y))
            for x, y in zip(a.reshape(-1).tolist(), b.reshape(-1).tolist())]
    assert got.reshape(-1).tolist() == want
    assert got.reshape(-1)[: len(pairs)].tolist() == [127, -128, -1, -1, 127, -128, 0]


class TestRefConv2d:
    def test_sum_of_ones(self):
        x = QTensor(np.ones((1, 2, 2), dtype=np.int8), 1.0)
        w = np.ones((1, 1, 2, 2), dtype=np.int8)
        out = ref_conv2d(x, w, np.zeros(1, dtype=np.int32), 1, 0)
        assert out.tolist() == [[[4]]]

    def test_padded_window_counts(self):
        x = QTensor(np.ones((1, 2, 2), dtype=np.int8), 1.0)
        w = np.ones((1, 1, 2, 2), dtype=np.int8)
        out = ref_conv2d(x, w, np.zeros(1, dtype=np.int32), 1, 1)
        assert out[0].tolist() == [[1, 2, 1], [2, 4, 2], [1, 2, 1]]

    def test_extreme_product_plus_bias(self):
        x = QTensor(np.full((1, 1, 1), -128, dtype=np.int8), 1.0)
        w = np.full((1, 1, 1, 1), -128, dtype=np.int8)
        out = ref_conv2d(x, w, np.ones(1, dtype=np.int32), 1, 0)
        assert out[0, 0, 0] == 16385

    def test_cin_mismatch(self):
        x = QTensor(np.zeros((3, 2, 2), dtype=np.int8), 1.0)
        w = np.zeros((1, 2, 1, 1), dtype=np.int8)
        with pytest.raises(ShapeError):
            ref_conv2d(x, w, np.zeros(1, dtype=np.int32), 1, 0)

    def test_matches_quadruple_loop_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            cin, cout = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            h, w_ = int(rng.integers(1, 8)), int(rng.integers(1, 8))
            pad = int(rng.integers(0, 2))
            k = int(rng.integers(1, min(h, w_) + 2 * pad + 1))
            stride = int(rng.integers(1, 3))
            x = QTensor(rng.integers(-128, 128, (cin, h, w_)).astype(np.int8), 1.0)
            wt = rng.integers(-128, 128, (cout, cin, k, k)).astype(np.int8)
            bias = rng.integers(-1000, 1000, cout).astype(np.int32)
            got = ref_conv2d(x, wt, bias, stride, pad)
            hout = (h + 2 * pad - k) // stride + 1
            wout = (w_ + 2 * pad - k) // stride + 1
            want = np.zeros((cout, hout, wout), dtype=np.int64)
            for o in range(cout):
                for y in range(hout):
                    for xx in range(wout):
                        s = int(bias[o])
                        for c in range(cin):
                            for i in range(k):
                                for j in range(k):
                                    iy, ix = y * stride - pad + i, xx * stride - pad + j
                                    if 0 <= iy < h and 0 <= ix < w_:
                                        s += int(x.data[c, iy, ix]) * int(wt[o, c, i, j])
                        want[o, y, xx] = s
            assert np.array_equal(got.data, np.clip(want, ACC_MIN, ACC_MAX))


def run_layer(kind: str, *inputs: QTensor) -> QTensor:
    """ref_execute_layer on a one-layer spec of ``kind`` (pools use k=2, stride=2)."""
    layer = LayerSpec(id="x", kind=kind, inputs=["input"] * len(inputs), k=2, stride=2)
    return ref_execute_layer(layer, list(inputs))


class TestLayerOps:
    def test_relu(self):
        assert run_layer("relu", q([-3, 0, 5])).data.reshape(-1).tolist() == [0, 0, 5]

    def test_maxpool(self):
        x = QTensor(np.array([[[1, 2], [3, 4]]], dtype=np.int8), 1.0)
        assert run_layer("maxpool", x).data.tolist() == [[[4]]]

    def test_gavgpool_rounds_half_even(self):
        x = QTensor(np.array([[[1, 2], [3, 5]]], dtype=np.int8), 1.0)
        # mean 11/4 = 2.75 -> 3
        assert run_layer("gavgpool", x).data.tolist() == [[[3]]]

    def test_gavgpool_tie(self):
        x = QTensor(np.array([[[1, 2], [3, 4]]], dtype=np.int8), 1.0)
        # mean 10/4 = 2.5 -> 2 (even)
        assert run_layer("gavgpool", x).data.tolist() == [[[2]]]

    def test_add_clamps(self):
        a = q([100, -100], 0.5)
        b = q([100, -100], 0.5)
        assert ref_add(a, b).data.reshape(-1).tolist() == [127, -128]

    def test_add_scale_mismatch(self):
        with pytest.raises(ScaleMismatch):
            ref_add(q([1], 0.5), q([1], 0.25))

    def test_fc_requires_1x1(self):
        layer = LayerSpec(id="f", kind="fc", inputs=["input"], k=1, cout=2, m=0.5,
                          weight_scale=0.5,
                          weights=np.ones((2, 3, 1, 1), dtype=np.int8),
                          bias=np.zeros(2, dtype=np.int32))
        x = QTensor(np.zeros((3, 2, 2), dtype=np.int8), 1.0)
        with pytest.raises(ShapeError):
            ref_execute_layer(layer, [x])

    @given(st.integers(1, 4), st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_outputs_are_valid_qtensors(self, c, h, w, seed):
        rng = np.random.default_rng(seed)
        x = QTensor(rng.integers(-128, 128, (c, h, w)).astype(np.int8), 0.5)
        outs = [run_layer("relu", x), run_layer("gavgpool", x), ref_add(x, x)]
        if h >= 2 and w >= 2:
            outs.append(run_layer("maxpool", x))
        for t in outs:
            assert t.data.dtype == np.int8


@pytest.mark.parametrize("kind", ["relu", "maxpool", "gavgpool", "add"])
def test_array_layer_batch_matches_per_sample(kind):
    # Leading axes are batch axes: a (2, 3, C, H, W) stack gives each
    # (C, H, W) slice's ref_execute_layer result.
    rng = np.random.default_rng(3)
    data = rng.integers(-128, 128, (2, 3, 4, 5, 7)).astype(np.int8)
    other = rng.integers(-128, 128, data.shape).astype(np.int8)
    layer = LayerSpec(id="x", kind=kind, inputs=["input"] * (2 if kind == "add" else 1),
                      k=2, stride=2)
    arrays = [data, other] if kind == "add" else [data]
    got = array_layer(layer, arrays)
    for s in np.ndindex(2, 3):
        want = ref_execute_layer(layer, [QTensor(a[s], 0.5) for a in arrays])
        assert got[s].dtype == np.int8 and np.array_equal(got[s], want.data)


def test_requantize_array_any_leading_dims():
    acc = np.arange(-300, 300, 7, dtype=np.int32).reshape(2, 1, 43, 1)
    got = requantize_array(acc, 2.0 ** -3)
    want = [requantize(int(v), 2.0 ** -3) for v in acc.reshape(-1)]
    assert got.shape == acc.shape and got.reshape(-1).tolist() == want


def test_requantize_array_float32_acc_matches_float64():
    # Integers up to 2^24 are exact in float32, but unless m is a power of
    # two acc * m must still be rounded once, in float64: these accumulators
    # sit next to rounding boundaries, and exactly on .5 ties under m = 2^-1
    # and 2^-18.
    near = 2 ** 24 - np.arange(64)
    ties = np.array([1, 3, 5, 2 ** 24 - 2 ** 17, 2 ** 24 - 3 * 2 ** 17])
    acc = np.concatenate([near, -near, ties, -ties])
    ms = [2.0 ** -1, 2.0 ** -18] + [t / (2 ** 24 - 7) for t in (0.5, 63.5, 100.5, 127.5)]
    scaled_in_float32_differs = False
    for m in ms:
        want = [requantize(int(v), m) for v in acc]
        assert requantize_array(acc.astype(np.float32), m).tolist() == want, m
        assert requantize_array(acc.astype(np.float64), m).tolist() == want, m
        f32 = np.clip(np.rint(acc.astype(np.float32) * np.float32(m)), -128, 127)
        scaled_in_float32_differs |= f32.tolist() != want
    assert scaled_in_float32_differs  # the cases tell the two roundings apart


# The m of tests/test_batch.py's correction-order case: not a power of two.
_ODD_M = 1.5 / 8467724.5


def test_requantize_array_float32_off_shift_known_answer():
    # -2822575 * m is about -0.50000003: float64 rounds it to -1, while a
    # product taken in float32 would read -0.5 and round to 0.
    assert requantize(-2822575, _ODD_M) == -1
    assert requantize_array(np.array([-2822575.0], dtype=np.float32), _ODD_M).tolist() == [-1]


@pytest.mark.parametrize("dtype, m, own", [
    (np.float64, 2.0 ** -7, True), (np.float64, _ODD_M, True),
    (np.float32, 2.0 ** -7, True), (np.float32, 1.0, True), (np.float32, 8.0, True),
    (np.float32, _ODD_M, False), (np.float32, 0.75 * 2.0 ** -6, False),
    (np.float32, 2.0 ** -149, True), (np.float32, 2.0 ** -150, False),
    (np.float32, 2.0 ** 103, True), (np.float32, 2.0 ** 104, False),
    (np.int32, 2.0 ** -7, False), (np.int64, 1.0, False), (np.float16, 2.0 ** -7, False),
])
def test_scales_in_place(dtype, m, own):
    assert scales_in_place(dtype, m) == scales_in_place(np.dtype(dtype), m) == own


@pytest.mark.parametrize("e", range(-30, 4))
def test_requantize_array_float32_shift_matches_float64(e):
    # Under m = 2^e a float32 accumulator is scaled in float32. It must
    # agree with the scalar form and with the float64 route on every
    # |acc| <= 2^24: ties (odd multiples of 2^(-e-1), where any are that
    # small), +-2^24, both clip edges and random accumulators.
    m, lim = 2.0 ** e, 2 ** 24
    rng = np.random.default_rng(2600 + e)
    ties = np.array([], dtype=np.int64)
    if e < 0 and 2 ** (-e - 1) <= lim:
        n = lim >> (-e - 1)  # odd multipliers up to n keep |acc| <= 2^24
        odd = 2 * rng.integers(0, (n + 1) // 2, size=100) + 1
        ties = np.concatenate([odd, -odd]) << (-e - 1)
    # Scaled values just inside, on and beyond the rails.
    edges = np.array([126.5, 127, 127.5, 128, -127.5, -128, -128.5, -129]) / m
    edges = edges[(edges == np.rint(edges)) & (np.abs(edges) < lim)].astype(np.int64)
    acc = np.concatenate([ties, edges - 1, edges, edges + 1, [lim, -lim, lim - 1, 1 - lim, 0],
                          rng.integers(-lim, lim + 1, size=200)])
    assert np.abs(acc).max() <= lim and scales_in_place(np.float32, m)
    got = requantize_array(acc.astype(np.float32), m)
    assert got.dtype == np.int8
    assert got.tolist() == requantize_array(acc.astype(np.float64), m).tolist()
    assert got.tolist() == [requantize(int(v), m) for v in acc]
    if -25 <= e <= -1:
        assert len(ties) and (acc * m % 1 == 0.5).sum() >= len(ties)
    if e >= -16:  # 129 * 2^16 < 2^24: both rails are reached
        assert {INT8_MIN, INT8_MAX} <= set(got.tolist())
