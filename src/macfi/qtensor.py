"""Quantized tensors and the golden software reference for every layer kind.

All activations and weights are symmetric per-tensor int8 (zero point 0,
``value = scale * q``). Accumulators are signed 32-bit and saturate after
every micro-op. Rounding is round-half-to-even everywhere. The functions
here define the bit-exact semantics the MAC-array emulator must reproduce.

The int8 layer kernels (requantize_array, relu_array, maxpool_array,
gavgpool_array, add_array) are shared by the reference, Emulator.run and the
batched closed form, so each has one form, written in few numpy calls.
gavgpool divides in float64 and is still exact: with n = H*W input values,
|sum| <= 128*n, so sum / n lies in [-128, 128]. A half-integer quotient is
representable, so rint still breaks the tie to even; any other quotient is
at least 1/(2n) from the nearest half-integer, and the division errs by at
most 2^-46, so rint rounds it to the same side whenever n < 2^45.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidScale, OutOfRange, ScaleMismatch, ShapeError, UnsupportedLayer

INT8_MIN, INT8_MAX = -128, 127
ACC_MIN, ACC_MAX = -(1 << 31), (1 << 31) - 1
# Extremes of a genuine signed 8x8 multiplier output: (-128)*(-128) and (-128)*127.
PRODUCT_MIN, PRODUCT_MAX = -16256, 16384
LANES = 8  # multipliers per MAC unit: one micro-op sums this many input channels
# The int8 rails in the dtypes the kernels clamp in.
_F64_MIN, _F64_MAX = float(INT8_MIN), float(INT8_MAX)
_I16_MIN, _I16_MAX = np.int16(INT8_MIN), np.int16(INT8_MAX)
_F32, _F64 = np.dtype(np.float32), np.dtype(np.float64)
# Exponents e of the m = 2^e that scale a float32 accumulator exactly (see
# requantize_array): 2^-149 is float32's least subnormal, and 2^24 * 2^103 =
# 2^127 its largest finite power of two.
_F32_SHIFT_MIN, _F32_SHIFT_MAX = -149, 103


def _check_scale(scale: float) -> float:
    scale = float(scale)
    if not (scale > 0.0 and math.isfinite(scale)):
        raise InvalidScale(f"scale must be positive and finite, got {scale!r}")
    return scale


def to_int8(values, what: str) -> np.ndarray:
    """``values`` as an int8 array; an int8 array is returned as it is.
    Anything else must hold only integers in [INT8_MIN, INT8_MAX] (raises
    OutOfRange), so a cast never wraps or truncates."""
    arr = np.asarray(values)
    if arr.dtype == np.int8:
        return arr
    if arr.dtype.kind not in "biuf":
        raise OutOfRange(f"{what} must be int8 integers, got dtype {arr.dtype}")
    ok = (arr >= INT8_MIN) & (arr <= INT8_MAX)
    if arr.dtype.kind == "f":
        ok &= arr == np.rint(arr)
    if not ok.all():
        raise OutOfRange(f"{what} must be integers in [{INT8_MIN}, {INT8_MAX}], "
                         f"got {arr[~ok].flat[0]!r}")
    return arr.astype(np.int8)


@dataclass(frozen=True)
class QTensor:
    """Signed 8-bit tensor in (C, H, W) layout with a per-tensor scale."""

    data: np.ndarray  # int8, shape (C, H, W)
    scale: float

    def __post_init__(self):
        # Valid fields are kept: no copy of a C-contiguous int8 array.
        data = self.data
        if not (isinstance(data, np.ndarray) and data.dtype == np.int8
                and data.flags.c_contiguous):
            data = np.ascontiguousarray(to_int8(data, "QTensor data"))
            object.__setattr__(self, "data", data)
        if data.ndim != 3:
            raise ShapeError(f"QTensor data must be (C, H, W), got shape {data.shape}")
        if min(data.shape) < 1:
            raise ShapeError(f"QTensor dims must be positive, got {data.shape}")
        scale = _check_scale(self.scale)
        if type(self.scale) is not float:
            object.__setattr__(self, "scale", scale)

    @property
    def dims(self) -> tuple[int, int, int]:
        return tuple(self.data.shape)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QTensor):
            return NotImplemented
        return self.scale == other.scale and np.array_equal(self.data, other.data)


def sat32(v: int) -> int:
    """Clamp an integer to the signed 32-bit range."""
    return ACC_MIN if v < ACC_MIN else ACC_MAX if v > ACC_MAX else v


def quantize(x, scale: float) -> QTensor:
    """Quantize a real (C, H, W) tensor: clamp(round_half_even(x / scale))."""
    scale = _check_scale(scale)
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(1, 1, -1)
    if not np.all(np.isfinite(arr)):
        raise ValueError("quantize input must be finite")
    q = np.clip(np.rint(arr / scale), INT8_MIN, INT8_MAX).astype(np.int8)
    return QTensor(q, scale)


def dequantize(t: QTensor) -> np.ndarray:
    return t.data.astype(np.float64) * t.scale


def requantize(acc: int, m: float) -> int:
    """Rescale one 32-bit accumulator value back to int8.

    ``m`` is the combined rescale factor s_in * s_w / s_out.
    """
    m = _check_scale(m)
    # Python round() on a float is round-half-to-even, same as C rint()
    # under the default rounding mode, so this matches requantize_array.
    return min(INT8_MAX, max(INT8_MIN, round(float(acc) * m)))


def scales_in_place(dtype: np.dtype, m: float) -> bool:
    """Whether requantize_array takes acc * m in an accumulator's own
    ``dtype`` rather than in float64: always for float64, never for an
    integer dtype, and for float32 when m = 2^e with -149 <= e <= 103."""
    if dtype == _F32:
        frac, exp = math.frexp(m)  # m = frac * 2^exp, 0.5 <= frac < 1
        return frac == 0.5 and _F32_SHIFT_MIN <= exp - 1 <= _F32_SHIFT_MAX
    return dtype == _F64


def requantize_array(acc: np.ndarray, m: float, out: np.ndarray | None = None) -> np.ndarray:
    """Vectorized requantize of an integer-valued array of any shape;
    bit-identical to the scalar form per element.

    acc * m is taken in acc's own dtype when scales_in_place(acc.dtype, m),
    else in float64. ``out``, of that dtype, holds the scaled values, so no
    temporary is made; it may be ``acc`` itself.

    The float32 case is exact for |acc| <= 2^24, which every float32
    accumulator of the closed form satisfies: float32 holds m = 2^e exactly
    for e >= -149, and acc * 2^e keeps acc's at most 24 significant bits and
    only moves its exponent. It stays finite (2^24 * 2^103 < 2^128), and its
    lowest bit is at least 2^-149, float32's subnormal step. So the float32
    product equals the float64 one, itself exact, and rint, the clip and the
    int8 cast give the same value. Under another m the float32 product can
    round: with m = 1.5 / 8467724.5, acc = -2822575 scales to about
    -0.50000003, which float64 rounds to -1 and float32, reading -0.5, to 0.
    """
    m = _check_scale(m)
    acc = np.asarray(acc)
    dtype = acc.dtype if scales_in_place(acc.dtype, m) else np.float64
    out = np.multiply(acc, m, dtype=dtype, out=out)
    np.rint(out, out=out)
    # The method with float bounds skips np.clip's bound checks.
    return out.clip(_F64_MIN, _F64_MAX, out=out).astype(np.int8)


def conv_out_hw(h: int, w: int, k: int, stride: int, pad: int) -> tuple[int, int]:
    return (h + 2 * pad - k) // stride + 1, (w + 2 * pad - k) // stride + 1


def ref_conv2d(
    input: QTensor,
    weights: np.ndarray,
    bias: np.ndarray,
    stride: int,
    pad: int,
) -> np.ndarray:
    """Direct zero-padded convolution, accumulated as the MAC array does:
    the int32 accumulators (Cout, Hout, Wout).

    ``weights`` is int8 with shape (Cout, Cin, K, K); ``bias`` is one int32
    per output channel. Each accumulator starts at its bias, then adds one
    micro-op at a time and saturates to int32: per group of LANES input
    channels, per tap (i, j), that group's dot product. The result is the
    exact sum unless one of its prefix sums leaves int32.
    """
    weights = np.asarray(weights, dtype=np.int8)
    bias = np.asarray(bias, dtype=np.int32)
    if weights.ndim != 4:
        raise ShapeError(f"weights must be (Cout, Cin, K, K), got {weights.shape}")
    cout, cin, k, k2 = weights.shape
    c, h, w = input.dims
    if k != k2:
        raise ShapeError(f"kernels must be square, got {k}x{k2}")
    if cin != c:
        raise ShapeError(f"weight Cin={cin} does not match input C={c}")
    if bias.shape != (cout,):
        raise ShapeError(f"bias must have shape ({cout},), got {bias.shape}")
    if stride < 1 or pad < 0:
        raise ShapeError(f"stride must be >= 1 and pad >= 0, got {stride}, {pad}")
    if k > h + 2 * pad or k > w + 2 * pad:
        raise ShapeError(f"kernel {k} exceeds padded input {h + 2 * pad}x{w + 2 * pad}")

    hout, wout = conv_out_hw(h, w, k, stride, pad)
    padded = np.pad(input.data.astype(np.int64), ((0, 0), (pad, pad), (pad, pad)))
    acc = np.empty((cout, hout, wout), dtype=np.int64)
    acc[:] = bias[:, None, None]
    w64 = weights.astype(np.int64)
    for c0 in range(0, cin, LANES):
        for i, j in np.ndindex(k, k):
            window = padded[c0 : c0 + LANES, i : i + hout * stride : stride,
                            j : j + wout * stride : stride]
            # (Cout, LANES) x (LANES, Hout, Wout) -> (Cout, Hout, Wout)
            acc += np.tensordot(w64[:, c0 : c0 + LANES, i, j], window, axes=([1], [0]))
            np.clip(acc, ACC_MIN, ACC_MAX, out=acc)
    return acc.astype(np.int32)


# Non-MAC layers on int8 arrays whose trailing axes are (H, W): they act on
# those axes or elementwise, so any leading axes (channels, samples, runs, in
# any order) are batch dimensions. ref_execute_layer (through array_layer),
# Emulator.run and batch_logits all go through these.

def relu_array(data: np.ndarray) -> np.ndarray:
    # Symmetric quantization: the zero level is q == 0.
    return np.maximum(data, 0)


def maxpool_array(data: np.ndarray, k: int, stride: int) -> np.ndarray:
    h, w = data.shape[-2:]
    if k < 1 or stride < 1:
        raise ShapeError(f"pool k and stride must be >= 1, got {k}, {stride}")
    if k > h or k > w:
        raise ShapeError(f"pool window {k} exceeds input {h}x{w}")
    hout, wout = conv_out_hw(h, w, k, stride, 0)
    rows, cols = hout * stride, wout * stride
    windows = [data[..., i : i + rows : stride, j : j + cols : stride]
               for i in range(k) for j in range(k)]
    if k == 1:
        return windows[0].copy()  # never a view of the input
    out = np.maximum(windows[0], windows[1])
    for window in windows[2:]:
        np.maximum(out, window, out=out)
    return out


def gavgpool_array(data: np.ndarray) -> np.ndarray:
    """Round-half-even mean over (H, W). rint rounds the float64 quotient
    as it would the rational: |sum| <= 128*n for n = H*W, so sum / n lies
    in [-128, 128]; a half-integer quotient is representable, and any other
    one is at least 1/(2n) from a half-integer while the division errs by
    at most 2^-46, so the result is exact whenever n < 2^45."""
    n = data.shape[-2] * data.shape[-1]
    sums = data.reshape(data.shape[:-2] + (n,)).sum(axis=-1, dtype=np.int64)
    return np.rint(sums / n).astype(np.int8)[..., None, None]


def add_array(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.shape != b.shape:
        raise ShapeError(f"add operand dims differ: {a.shape} vs {b.shape}")
    s = a.astype(np.int16)
    s += b
    return s.clip(_I16_MIN, _I16_MAX, out=s).astype(np.int8)


def array_layer(layer, arrays: list[np.ndarray]) -> np.ndarray:
    """One relu/maxpool/gavgpool/add layer on int8 (..., H, W) arrays; only
    the trailing (H, W) axes matter."""
    kind = layer.kind
    if kind == "relu":
        (x,) = arrays
        return relu_array(x)
    if kind == "maxpool":
        (x,) = arrays
        return maxpool_array(x, layer.k, layer.stride)
    if kind == "gavgpool":
        (x,) = arrays
        return gavgpool_array(x)
    if kind == "add":
        a, b = arrays
        return add_array(a, b)
    raise UnsupportedLayer(f"unsupported layer kind {kind!r}", getattr(layer, "id", None))


def ref_add(a: QTensor, b: QTensor) -> QTensor:
    if a.scale != b.scale:
        raise ScaleMismatch(f"add operand scales differ: {a.scale!r} vs {b.scale!r}")
    return QTensor(add_array(a.data, b.data), a.scale)


def ref_execute_layer(layer, inputs: list[QTensor]) -> QTensor:
    """Golden execution of one layer; ``layer`` is a model.LayerSpec.

    conv/fc go through ref_conv2d + requantize; the remaining kinds operate
    directly on int8 (array_layer). fc is a 1x1 convolution and requires a
    (Cin, 1, 1) input.
    """
    kind = layer.kind
    if kind in ("conv", "fc"):
        (x,) = inputs
        if kind == "fc" and x.dims[1:] != (1, 1):
            raise ShapeError(f"fc input must be (Cin, 1, 1), got {x.dims}", layer.id)
        stride = layer.stride if kind == "conv" else 1
        pad = layer.pad if kind == "conv" else 0
        acc = ref_conv2d(x, layer.weights, layer.bias, stride, pad)
        out_scale = x.scale * layer.weight_scale / layer.m
        return QTensor(requantize_array(acc, layer.m), out_scale)
    if kind == "add":
        return ref_add(*inputs)
    return QTensor(array_layer(layer, [t.data for t in inputs]), inputs[0].scale)
