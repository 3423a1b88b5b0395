"""Dense tensor kernels: conv2d, relu, 2x2 max-pooling, channel concat.

Tensors are numpy arrays laid out (batch, channels, height, width),
stored float32. Every convolution is stride 1 and "same": it zero-pads
kh // 2 rows and kw // 2 columns on each side, so its odd kernel is
centred on each cell, a conv keeps its input's H and W, and only
``maxpool2`` halves them. A convolution is lowered to one matrix
product per chunk of output rows (im2col): the receptive fields of the
chunk are copied into a float64 column matrix and multiplied by the
flattened (cout, cin*kh*kw) weights. No padded copy of the input is
made: each kernel tap copies the part of the input it reads straight
into its column rows, and the padding zeros are written there too. A
chunk's columns and its product together fit in IM2COL_CHUNK_BYTES (or
hold one output row, if that is more; ``chunk_rows``), and one column
buffer and one product buffer serve every chunk of a call. A chunk's
product is stored one step late, once the next chunk's columns are
built, so ``conv2d(x, ..., out=x)`` of a conv with as many outputs as
inputs can overwrite the input it no longer needs. Accumulation stays
in float64 and rounds once on output, so results are reproducible
against a naive reference to well under 1e-5, identical across BLAS
thread counts, in place or not, and independent of the chunk size.
``relu`` takes numpy's ``out=`` too, so a caller that owns its input
can rectify it in place.
"""

import math
from dataclasses import dataclass

import numpy as np


class ShapeError(ValueError):
    """Raised when tensor shapes are inconsistent with an operation."""


def check_tensor(x, name="tensor"):
    """Validate the (B, C, H, W) layout; returns the array unchanged."""
    x = np.asarray(x)
    if x.ndim != 4:
        raise ShapeError(f"{name} must be 4-D (B,C,H,W), got ndim={x.ndim}")
    return x


# Size limit of one chunk's float64 column matrix plus its float64 GEMM
# result (8 * (cin*kh*kw + cout) bytes per output cell); a chunk holds at
# least one output row. Of 8, 16, 24, 32 and 64 MiB, 16 MiB gave the
# fastest 368x432 forward on a 2-core x86-64 host with OpenBLAS (3.61 s
# median vs 4.07 s at 64 MiB). Unchunked, conv1_2 of a 368x432 image
# would need 815 MB.
IM2COL_CHUNK_BYTES = 16 * 2 ** 20


def chunk_rows(k, cout, h, w, least=1):
    """Output rows per im2col chunk of a conv with k = cin*kh*kw column
    rows and cout outputs over an H x W input: as many as fit
    IM2COL_CHUNK_BYTES, at least ``least`` and at most h."""
    return min(h, max(least, IM2COL_CHUNK_BYTES // (8 * (k + cout) * w)))


def _in_range(tap, pad, size, start, stop):
    """The output cells [lo, hi) of [start, stop) along one axis whose
    input cell (cell + tap - pad) lies inside [0, size), relative to
    start; lo == hi where none does, and then the input slice built
    from them is empty even where its bounds are negative."""
    lo = min(max(pad - tap, start), stop)
    hi = min(max(size + pad - tap, lo), stop)
    return lo - start, hi - start


def conv2d(x, weights, bias, out=None):
    """2-D "same" cross-correlation over a (B,C,H,W) tensor: stride 1
    and kh // 2, kw // 2 rows and columns of zero padding, so the output
    keeps the input's H and W.

    weights: (cout, cin, kh, kw) with odd kh and kw; bias: (cout,).
    Row-chunked im2col: one float64 GEMM of the (cout, cin*kh*kw)
    weights with each chunk's column matrix; returns float32. The
    input is never padded: for each of the kh*kw taps the in-range
    part of the input is copied straight into the column rows and the
    out-of-range rows and columns are written as zeros, so the column
    matrix, and so every output bit, is that of a padded input.

    ``out=x`` writes the output over x, for cout == cin and a
    C-contiguous float32 x (ShapeError otherwise, before any write).
    Each chunk's rows are stored after the next chunk's columns are
    built, and a chunk then holds at least kh // 2 rows, so no column
    reads a row already overwritten, and the bits are those of
    ``conv2d(x.copy(), weights, bias)``.
    """
    x = check_tensor(x, "input")
    weights = np.asarray(weights)
    if weights.ndim != 4:
        raise ShapeError(f"weights must be 4-D (cout,cin,kh,kw), got ndim={weights.ndim}")
    b, cin, h, w = x.shape
    cout, wcin, kh, kw = weights.shape
    if wcin != cin:
        raise ShapeError(f"channel mismatch: input has {cin}, weights expect {wcin}")
    if kh % 2 == 0 or kw % 2 == 0:
        raise ShapeError(f"kernel dims must be odd, got {kh}x{kw}")
    if not np.all(np.isfinite(weights)):
        raise ValueError("weights must be finite")
    if h == 0 or w == 0:
        raise ShapeError(f"input must have nonzero spatial dims, got {h}x{w}")
    bias = np.asarray(bias, dtype=np.float64)
    if bias.shape != (cout,):
        raise ShapeError(f"bias must have shape ({cout},), got {bias.shape}")
    if not np.all(np.isfinite(bias)):
        raise ValueError("bias must be finite")
    if out is not None:
        if out is not x:
            raise ShapeError("conv2d can only write its output over its input: out must be x")
        if cout != cin:
            raise ShapeError(f"conv2d in place needs as many outputs as inputs, "
                             f"got {cin} -> {cout}")
        if x.dtype != np.float32 or not x.flags.c_contiguous:
            raise ShapeError(f"conv2d in place needs a C-contiguous float32 input, "
                             f"got {x.dtype}")

    ph, pw = kh // 2, kw // 2
    k = cin * kh * kw
    wmat = weights.reshape(cout, k).astype(np.float64)
    rows = chunk_rows(k, cout, h, w, least=1 if out is None else ph)
    col_buf = np.empty(k * rows * w)
    acc_buf = np.empty(cout * rows * w)

    if out is None:
        out = np.empty((b, cout, h, w), dtype=np.float32)
    for n in range(b):
        pending = None     # (r0, r1, product) of the chunk not yet stored
        for r0 in range(0, h, rows):
            r1 = min(r0 + rows, h)
            cells = (r1 - r0) * w
            # Columns ordered (cin, kh, kw) to match the weight rows.
            cols = col_buf[:k * cells].reshape(cin, kh, kw, r1 - r0, w)
            for i in range(kh):
                top, bottom = _in_range(i, ph, h, r0, r1)
                for j in range(kw):
                    left, right = _in_range(j, pw, w, 0, w)
                    tap = cols[:, i, j]
                    tap[:, :top] = 0.0
                    tap[:, bottom:] = 0.0
                    tap[:, top:bottom, :left] = 0.0
                    tap[:, top:bottom, right:] = 0.0
                    tap[:, top:bottom, left:right] = x[
                        n, :, r0 + top + i - ph:r0 + bottom + i - ph,
                        left + j - pw:right + j - pw]
            # Only now store the chunk before: in place, these columns
            # read rows from r0 - ph on, and it holds at least ph rows.
            if pending:
                _store(out[n], *pending)
            acc = np.matmul(wmat, cols.reshape(k, cells),
                            out=acc_buf[:cout * cells].reshape(cout, cells))
            acc += bias[:, None]
            pending = (r0, r1, acc)
        _store(out[n], *pending)
    return out


def _store(out, r0, r1, acc):
    """Round a chunk's (cout, cells) float64 product into rows [r0, r1)
    of a (cout, H, W) output."""
    out[:, r0:r1] = acc.reshape(out.shape[0], r1 - r0, out.shape[2])


def relu(x, out=None):
    """Elementwise max(0, x); shape and dtype preserved. ``out`` is
    numpy's: ``relu(x, out=x)`` rectifies x in place."""
    x = np.asarray(x)
    return np.maximum(x, 0, out=out)


def maxpool2(x):
    """2x2 window, stride-2 max; requires even spatial dims. Holds one
    temporary the size of its output."""
    x = check_tensor(x, "input")
    h, w = x.shape[2:]
    if h % 2 or w % 2:
        raise ShapeError(f"maxpool2 requires even spatial dims, got {h}x{w}")
    # Elementwise maxima of the four strided corners: exact, and about ten
    # times faster than reducing a reshaped (..., 2, ..., 2) view. The
    # pairwise order is max(max(a, b), max(c, d)); the first max is the
    # output, so one temporary of its size is all the scratch.
    out = np.maximum(x[:, :, 0::2, 0::2], x[:, :, 0::2, 1::2])
    return np.maximum(out, np.maximum(x[:, :, 1::2, 0::2], x[:, :, 1::2, 1::2]), out=out)


def concat_channels(inputs):
    """Concatenate along the channel axis; batch/spatial dims must match."""
    if not inputs:
        raise ShapeError("concat_channels requires at least one input")
    arrays = [check_tensor(t, f"inputs[{i}]") for i, t in enumerate(inputs)]
    ref = arrays[0].shape
    for i, a in enumerate(arrays[1:], start=1):
        if a.shape[0] != ref[0] or a.shape[2:] != ref[2:]:
            raise ShapeError(
                f"inputs[{i}] shape {a.shape} incompatible with inputs[0] shape {ref}")
    return np.concatenate(arrays, axis=1)


LAYER_KINDS = ("conv", "relu", "maxpool2", "concat", "add", "input")


@dataclass(frozen=True)
class LayerSpec:
    """One layer of a computation graph. ``out_channels`` is the output
    channel count of a layer of any kind; the other conv fields are
    unused by the other kinds. Every conv is a ``conv2d``: stride 1,
    "same" padding of its odd kernel, and a bias."""
    name: str
    kind: str
    inputs: tuple = ()
    kernel: tuple = (0, 0)
    in_channels: int = 0
    out_channels: int = 0

    def __post_init__(self):
        if self.kind not in LAYER_KINDS:
            raise ValueError(f"unknown layer kind {self.kind!r}")
        if self.kind == "conv":
            kh, kw = self.kernel
            if kh < 1 or kw < 1 or kh % 2 == 0 or kw % 2 == 0:
                raise ValueError(f"conv kernel dims must be odd and >= 1, got {self.kernel}")
        if self.kind == "concat" and len(self.inputs) < 2:
            raise ValueError("concat layer requires >= 2 inputs")

    @property
    def weight_shape(self):
        """(out_channels, in_channels, kh, kw) of a conv layer's weights."""
        return (self.out_channels, self.in_channels) + self.kernel


def layer_param_count(spec):
    """Learnable parameters of a layer (weights and bias); zero for
    everything but conv."""
    if spec.kind != "conv":
        return 0
    return math.prod(spec.weight_shape) + spec.out_channels
