import tracemalloc

import numpy as np
import pytest

from mlnpose import tensor_ops
from mlnpose.tensor_ops import (LayerSpec, ShapeError, concat_channels, conv2d,
                                layer_param_count, maxpool2, relu)


def naive_conv2d(x, weights, bias=None, stride=1, padding=0):
    """Six-nested-loop cross-correlation reference."""
    b, cin, h, w = x.shape
    cout, _, kh, kw = weights.shape
    xp = np.pad(x.astype(np.float64),
                ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    out = np.zeros((b, cout, oh, ow))
    for n in range(b):
        for co in range(cout):
            for oy in range(oh):
                for ox in range(ow):
                    acc = 0.0
                    for ky in range(kh):
                        for kx in range(kw):
                            for ci in range(cin):
                                acc += (xp[n, ci, oy * stride + ky, ox * stride + kx]
                                        * weights[co, ci, ky, kx])
                    out[n, co, oy, ox] = acc
            if bias is not None:
                out[n, co] += bias[co]
    return out.astype(np.float32)


def naive_same(x, weights, bias):
    """naive_conv2d as conv2d runs it: the odd kernel is zero-filled to a
    centred k x k square, k = max(kh, kw), at padding k // 2."""
    _, _, kh, kw = weights.shape
    k = max(kh, kw)
    square = np.pad(weights, ((0, 0), (0, 0), ((k - kh) // 2,) * 2, ((k - kw) // 2,) * 2))
    return naive_conv2d(x, square, bias, padding=k // 2)


def assert_chunk_invariant(monkeypatch, x_shape, w_shape, rows_per_chunk, seed):
    """conv2d of a (B, cin, H, W) input by (cout, kh, kw) weights gives
    the same bits at each budget of that many output rows per chunk,
    and matches naive_same."""
    _, cin, _, w = x_shape
    cout, kh, kw = w_shape
    rng = np.random.default_rng(seed)
    x = rng.normal(size=x_shape).astype(np.float32)
    wts = rng.normal(size=(cout, cin, kh, kw)).astype(np.float32)
    b = rng.normal(size=cout).astype(np.float32)
    outs = []
    for rows in rows_per_chunk:
        monkeypatch.setattr(tensor_ops, "IM2COL_CHUNK_BYTES",
                            rows * 8 * (cin * kh * kw + cout) * w)
        assert tensor_ops.chunk_rows(cin * kh * kw, cout, x_shape[2], w) == rows
        outs.append(conv2d(x, wts, b))
    for out in outs[1:]:
        assert np.array_equal(out, outs[0])
    np.testing.assert_allclose(outs[0], naive_same(x, wts, b), atol=1e-5)


class TestConv2d:
    def test_identity_kernel(self):
        x = np.random.default_rng(0).normal(size=(2, 3, 5, 7)).astype(np.float32)
        w = np.zeros((3, 3, 1, 1), dtype=np.float32)
        for c in range(3):
            w[c, c, 0, 0] = 1.0
        out = conv2d(x, w, np.zeros(3, dtype=np.float32))
        np.testing.assert_array_equal(out, x)

    def test_ones_kernel_center(self):
        x = np.ones((1, 1, 3, 3), dtype=np.float32)
        w = np.ones((1, 1, 3, 3), dtype=np.float32)
        out = conv2d(x, w, np.zeros(1, dtype=np.float32))
        assert out.shape == (1, 1, 3, 3)
        assert out[0, 0, 1, 1] == 9.0

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_naive_reference(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(1, 8, 16, 16)).astype(np.float32)
        w = rng.normal(size=(4, 8, 3, 3)).astype(np.float32)
        b = rng.normal(size=4).astype(np.float32)
        got = conv2d(x, w, b)
        want = naive_conv2d(x, w, b, padding=1)
        np.testing.assert_allclose(got, want, atol=1e-5)

    @pytest.mark.parametrize("kh, kw", [(1, 1), (3, 3), (5, 5), (1, 3), (5, 1)])
    def test_matches_naive_reference_shapes(self, kh, kw):
        rng = np.random.default_rng(kh * 10 + kw)
        x = rng.normal(size=(2, 3, 9, 11)).astype(np.float32)
        w = rng.normal(size=(5, 3, kh, kw)).astype(np.float32)
        b = rng.normal(size=5).astype(np.float32)
        got = conv2d(x, w, b)
        assert got.shape == (2, 5, 9, 11)
        np.testing.assert_allclose(got, naive_same(x, w, b), atol=1e-5)

    @pytest.mark.parametrize("rows", [1, 2, 3])
    def test_row_chunks_match_naive_reference(self, monkeypatch, rows):
        # Room for that many output rows of columns and products per
        # chunk, so the 13-row input is computed in several chunks per
        # batch item, the last one partial for 2 and 3 rows.
        cin, k, cout, w = 3, 3, 4, 11
        monkeypatch.setattr(tensor_ops, "IM2COL_CHUNK_BYTES",
                            rows * 8 * (cin * k * k + cout) * w)
        rng = np.random.default_rng(20 + rows)
        x = rng.normal(size=(2, cin, 13, w)).astype(np.float32)
        wts = rng.normal(size=(cout, cin, k, k)).astype(np.float32)
        b = rng.normal(size=cout).astype(np.float32)
        got = conv2d(x, wts, b)
        want = naive_conv2d(x, wts, b, padding=1)
        np.testing.assert_allclose(got, want, atol=1e-5)

    @pytest.mark.parametrize("batch", [1, 2])
    @pytest.mark.parametrize("rectangular", [True, False])
    def test_chunk_size_does_not_change_bits(self, monkeypatch, batch, rectangular):
        # Budgets for 1, 2 and 4 rows per chunk (the 17 output rows leave
        # a partial last chunk) and for the whole image give the same
        # bits, for a 5x3 kernel (unequal row and column padding) and a
        # 3x3 one, and for one or two batch items sharing the buffers.
        kh, kw = (5, 3) if rectangular else (3, 3)
        assert_chunk_invariant(monkeypatch, (batch, 5, 17, 13), (6, kh, kw), (1, 2, 4, 17),
                               seed=30 + batch)

    @pytest.mark.parametrize("hw, kernel, rows", [
        ((1, 1), (3, 3), (1,)),          # every tap but the centre reads padding
        ((2, 3), (5, 3), (1, 2)),        # the kernel is taller than the image
        ((6, 7), (5, 5), (1, 5, 6)),     # one-row chunks at the top and bottom padding
    ], ids=["1x1_by_3x3", "2x3_by_5x3", "one_row_chunks_at_padding"])
    def test_chunk_size_does_not_change_bits_where_kernel_overhangs(
            self, monkeypatch, hw, kernel, rows):
        assert_chunk_invariant(monkeypatch, (2, 3, *hw), (4, *kernel), rows, seed=35)

    def test_chunk_cells_capped(self):
        # At 368x432 the cap, not the byte budget, sets conv1_2's chunk
        # (7 rows by bytes alone) and conv2_1's; the VGG 3x3 convs after
        # pool2 keep the rows of the byte budget.
        cap = tensor_ops.IM2COL_CHUNK_CELLS
        assert tensor_ops.chunk_rows(576, 64, 368, 432) * 432 <= cap
        assert tensor_ops.chunk_rows(576, 128, 184, 216) * 216 <= cap
        for k, cout, h, w in ((1152, 256, 92, 108), (2304, 256, 92, 108),
                              (2304, 512, 46, 54), (4608, 512, 46, 54)):
            by_bytes = tensor_ops.IM2COL_CHUNK_BYTES // (8 * (k + cout) * w)
            assert tensor_ops.chunk_rows(k, cout, h, w) == by_bytes
        # A row wider than the cap is still one chunk row.
        assert tensor_ops.chunk_rows(27, 64, 8, cap + 1) == 1

    def test_scratch_memory_within_chunk_budget(self, monkeypatch):
        # Everything conv2d allocates beyond its output and the float64
        # weight matrix fits in the chunk budget plus numpy's 64 KiB
        # casting buffer; the input is never copied.
        cin, k, cout, h, w = 16, 3, 16, 40, 48
        budget = 5 * 8 * (cin * k * k + cout) * w
        monkeypatch.setattr(tensor_ops, "IM2COL_CHUNK_BYTES", budget)
        rng = np.random.default_rng(40)
        x = rng.normal(size=(1, cin, h, w)).astype(np.float32)
        wts = rng.normal(size=(cout, cin, k, k)).astype(np.float32)
        b = rng.normal(size=cout).astype(np.float32)
        tracemalloc.start()
        try:
            out = conv2d(x, wts, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        scratch = peak - out.nbytes - 8 * wts.size
        assert scratch <= budget + 64 * 1024

    @pytest.mark.parametrize("x_shape, kernel, rows", [
        ((2, 4, 17, 13), (3, 3), (1, 2, 4, 17)),   # batch 2, partial last chunk
        ((2, 4, 17, 13), (5, 5), (1, 2, 4, 17)),   # in place, chunks of at least 2 rows
        ((1, 3, 2, 3), (5, 3), (1, 2)),            # the kernel is taller than the image
        ((2, 3, 6, 7), (5, 5), (1, 5, 6)),         # one-row budgets at the padding
    ], ids=["batch2_3x3", "batch2_5x5", "2x3_by_5x3", "one_row_chunks_at_padding"])
    def test_in_place_same_bits(self, monkeypatch, x_shape, kernel, rows):
        # conv2d(x, ..., out=x) writes into x the bits conv2d(x.copy(), ...)
        # returns, at each chunk budget.
        _, cin, h, w = x_shape
        rng = np.random.default_rng(50)
        x = rng.normal(size=x_shape).astype(np.float32)
        wts = rng.normal(size=(cin, cin, *kernel)).astype(np.float32)
        b = rng.normal(size=cin).astype(np.float32)
        for r in rows:
            monkeypatch.setattr(tensor_ops, "IM2COL_CHUNK_BYTES",
                                r * 8 * (cin * kernel[0] * kernel[1] + cin) * w)
            want = conv2d(x.copy(), wts, b)
            x_in = x.copy()
            assert conv2d(x_in, wts, b, out=x_in) is x_in
            assert x_in.tobytes() == want.tobytes(), r

    @pytest.mark.parametrize("case", ["out_not_x", "cout_ne_cin", "float64", "not_contiguous"])
    def test_in_place_rejected_before_writing(self, case):
        rng = np.random.default_rng(51)
        x = rng.normal(size=(1, 3, 6, 8)).astype(np.float32)
        wts = rng.normal(size=(3, 3, 3, 3)).astype(np.float32)
        out = x
        if case == "out_not_x":
            out = x.copy()
        elif case == "cout_ne_cin":
            wts = wts[:2]
        elif case == "float64":
            x = out = x.astype(np.float64)
        else:
            x = out = np.asfortranarray(x)
        before = out.copy()
        with pytest.raises(ShapeError):
            conv2d(x, wts, np.zeros(len(wts), dtype=np.float32), out=out)
        assert out.tobytes() == before.tobytes()

    def test_in_place_scratch_memory_within_chunk_budget(self, monkeypatch):
        # In place, no output array is allocated: everything beyond the
        # float64 weight matrix fits in the chunk budget plus numpy's
        # 64 KiB casting buffer.
        cin, k, h, w = 16, 3, 40, 48
        budget = 5 * 8 * (cin * k * k + cin) * w
        monkeypatch.setattr(tensor_ops, "IM2COL_CHUNK_BYTES", budget)
        rng = np.random.default_rng(41)
        x = rng.normal(size=(1, cin, h, w)).astype(np.float32)
        wts = rng.normal(size=(cin, cin, k, k)).astype(np.float32)
        b = rng.normal(size=cin).astype(np.float32)
        tracemalloc.start()
        try:
            conv2d(x, wts, b, out=x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - 8 * wts.size <= budget + 64 * 1024

    @pytest.mark.parametrize("part,value", [("weights", np.inf), ("bias", np.nan),
                                            ("bias", -np.inf)])
    def test_non_finite_parameters_rejected(self, part, value):
        x = np.ones((1, 2, 4, 4), dtype=np.float32)
        params = {"weights": np.ones((3, 2, 3, 3), dtype=np.float32),
                  "bias": np.zeros(3, dtype=np.float32)}
        params[part][0] = value
        with pytest.raises(ValueError, match=f"^{part} must be finite$"):
            conv2d(x, params["weights"], params["bias"])

    def test_linearity(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(1, 4, 8, 8)).astype(np.float32)
        y = rng.normal(size=(1, 4, 8, 8)).astype(np.float32)
        w = rng.normal(size=(2, 4, 3, 3)).astype(np.float32)
        zero = np.zeros(2, dtype=np.float32)
        a, b = 1.5, -0.25
        lhs = conv2d(a * x + b * y, w, zero)
        rhs = a * conv2d(x, w, zero) + b * conv2d(y, w, zero)
        np.testing.assert_allclose(lhs, rhs, atol=1e-4)

    def test_bias_required(self):
        x = np.zeros((1, 3, 4, 4), dtype=np.float32)
        with pytest.raises(TypeError):
            conv2d(x, np.zeros((2, 3, 3, 3), dtype=np.float32))

    def test_channel_mismatch(self):
        x = np.zeros((1, 3, 4, 4), dtype=np.float32)
        w = np.zeros((2, 4, 3, 3), dtype=np.float32)
        with pytest.raises(ShapeError):
            conv2d(x, w, np.zeros(2, dtype=np.float32))

    @pytest.mark.parametrize("kernel", [(2, 2), (2, 3), (3, 4), (0, 1)])
    def test_even_kernel(self, kernel):
        x = np.zeros((1, 1, 4, 4), dtype=np.float32)
        w = np.zeros((1, 1, *kernel), dtype=np.float32)
        with pytest.raises(ShapeError, match="kernel dims must be odd"):
            conv2d(x, w, np.zeros(1, dtype=np.float32))

    def test_zero_sized_output(self):
        # The output keeps the input's H and W, so only an empty input
        # could give an empty output; conv2d refuses it.
        w = np.zeros((1, 1, 3, 3), dtype=np.float32)
        for hw in ((0, 4), (4, 0)):
            with pytest.raises(ShapeError, match="nonzero spatial dims"):
                conv2d(np.zeros((1, 1, *hw), dtype=np.float32), w, np.zeros(1, dtype=np.float32))

    def test_pure(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(1, 2, 6, 6)).astype(np.float32)
        w = rng.normal(size=(2, 2, 3, 3)).astype(np.float32)
        b = rng.normal(size=2).astype(np.float32)
        first = conv2d(x, w, b)
        second = conv2d(x, w, b)
        np.testing.assert_array_equal(first, second)


class TestRelu:
    def test_basic(self):
        np.testing.assert_array_equal(relu(np.array([-1.0, 0.0, 2.0])),
                                      np.array([0.0, 0.0, 2.0]))

    def test_all_negative(self):
        x = -np.abs(np.random.default_rng(1).normal(size=(1, 2, 3, 3))) - 0.1
        assert (relu(x) == 0).all()

    def test_in_place_same_bits(self):
        # relu(x, out=x) is relu(x) bit for bit, written into x, and like
        # np.maximum(x, 0) it turns -0.0 into +0.0.
        x = np.random.default_rng(7).normal(size=(1, 2, 4, 5)).astype(np.float32)
        x[0, 0, 0, :3] = [-0.0, 0.0, -np.inf]
        want = relu(x)
        assert relu(x, out=x) is x
        assert x.tobytes() == want.tobytes()
        assert not np.signbit(x).any()

    def test_idempotent(self):
        x = np.random.default_rng(2).normal(size=(1, 2, 4, 4))
        np.testing.assert_array_equal(relu(relu(x)), relu(x))


class TestMaxpool2:
    def test_constant(self):
        x = np.full((1, 2, 4, 6), 3.5, dtype=np.float32)
        out = maxpool2(x)
        assert out.shape == (1, 2, 2, 3)
        assert (out == 3.5).all()

    def test_single_block(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)[None, None]
        assert maxpool2(x)[0, 0, 0, 0] == 4.0

    def test_windowed_max_oracle(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2, 3, 8, 10)).astype(np.float32)
        out = maxpool2(x)
        for n in range(2):
            for c in range(3):
                for i in range(4):
                    for j in range(5):
                        window = x[n, c, 2 * i:2 * i + 2, 2 * j:2 * j + 2]
                        assert out[n, c, i, j] == window.max()

    def test_odd_dims(self):
        with pytest.raises(ShapeError):
            maxpool2(np.zeros((1, 1, 3, 4), dtype=np.float32))

    def test_pairwise_bits_with_ties_and_signed_zeros(self):
        # max(max(a, b), max(c, d)) of the four window corners, bit for
        # bit, where corners tie and where -0.0 meets +0.0 in either order.
        rng = np.random.default_rng(6)
        x = rng.integers(-2, 3, size=(2, 3, 8, 10)).astype(np.float32)
        x[x == 0] = rng.choice(np.array([-0.0, 0.0], dtype=np.float32),
                               size=int((x == 0).sum()))
        corners = [x[:, :, i::2, j::2] for i in (0, 1) for j in (0, 1)]
        want = np.maximum(np.maximum(corners[0], corners[1]),
                          np.maximum(corners[2], corners[3]))
        assert maxpool2(x).tobytes() == want.tobytes()
        assert np.signbit(want).any() and (want == 0).sum() > np.signbit(want).sum()

    def test_no_temporary(self):
        # Each corner is folded into the output in place, so the pool
        # holds nothing of the output's size beside it. A ufunc over
        # strided views also holds numpy's 64 KiB iteration buffer and
        # about 1.3 KiB of iterator and view objects, all within 68 KiB;
        # one temporary would add 80 KiB here.
        x = np.random.default_rng(8).normal(size=(1, 16, 64, 80)).astype(np.float32)
        tracemalloc.start()
        try:
            out = maxpool2(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= out.nbytes + 68 * 1024


class TestConcat:
    def test_single_input(self):
        x = np.random.default_rng(5).normal(size=(1, 3, 4, 4)).astype(np.float32)
        np.testing.assert_array_equal(concat_channels([x]), x)

    def test_channel_arithmetic(self):
        a = np.zeros((1, 128, 4, 4), dtype=np.float32)
        b = np.zeros((1, 38, 4, 4), dtype=np.float32)
        assert concat_channels([a, b]).shape == (1, 166, 4, 4)

    def test_round_trip(self):
        rng = np.random.default_rng(6)
        parts = [rng.normal(size=(1, c, 3, 5)).astype(np.float32) for c in (2, 3, 4)]
        out = concat_channels(parts)
        start = 0
        for part in parts:
            c = part.shape[1]
            np.testing.assert_array_equal(out[:, start:start + c], part)
            start += c

    def test_spatial_mismatch(self):
        a = np.zeros((1, 2, 4, 4), dtype=np.float32)
        b = np.zeros((1, 2, 5, 4), dtype=np.float32)
        with pytest.raises(ShapeError):
            concat_channels([a, b])


class TestCounters:
    def test_param_count_128(self):
        spec = LayerSpec("c", "conv", ("x",), kernel=(3, 3),
                         in_channels=128, out_channels=128)
        assert layer_param_count(spec) == 147_584

    def test_param_count_first_layer(self):
        spec = LayerSpec("c", "conv", ("x",), kernel=(3, 3),
                         in_channels=3, out_channels=64)
        assert layer_param_count(spec) == 1_792

    def test_relu_zero_params(self):
        assert layer_param_count(LayerSpec("r", "relu", ("x",))) == 0


class TestLayerSpecValidation:
    def test_bad_kind(self):
        with pytest.raises(ValueError):
            LayerSpec("x", "softmax")

    def test_bad_kernel(self):
        # Zero, negative and even dims: a conv kernel is odd and >= 1.
        for kernel in ((0, 3), (-1, 3), (2, 2), (3, 2), (4, 1)):
            with pytest.raises(ValueError, match="odd and >= 1"):
                LayerSpec("c", "conv", ("x",), kernel=kernel, in_channels=1, out_channels=1)

    def test_concat_needs_two_inputs(self):
        with pytest.raises(ValueError):
            LayerSpec("c", "concat", ("x",))
