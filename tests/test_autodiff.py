import gc
import re
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sedmtl import autodiff as ad
from sedmtl import losses
from sedmtl.errors import ArgumentError, DimensionError

from gradcheck import grad_check, weighted_sum, zero_grads


def brute_force_conv2d(x, kernel, bias):
    """Nested-loop same-padded 3x3 cross-correlation, the conv oracle."""
    c_out, c_in, _, _ = kernel.shape
    _, h, w = x.shape
    padded = np.pad(x, ((0, 0), (1, 1), (1, 1)))
    out = np.zeros((c_out, h, w))
    for o in range(c_out):
        for i in range(h):
            for j in range(w):
                acc = 0.0
                for c in range(c_in):
                    for di in range(3):
                        for dj in range(3):
                            acc += padded[c, i + di, j + dj] * kernel[o, c, di, dj]
                out[o, i, j] = acc + bias[o]
    return out


def brute_force_conv2d_backward(x, kernel, g):
    """Nested-loop gradients (dx, dkernel, dbias) of sum(g * conv2d(x))."""
    c_out, c_in, _, _ = kernel.shape
    _, h, w = x.shape
    padded = np.pad(x, ((0, 0), (1, 1), (1, 1)))
    dpad = np.zeros_like(padded)
    dkernel = np.zeros_like(kernel)
    dbias = np.zeros(c_out)
    for o in range(c_out):
        for i in range(h):
            for j in range(w):
                dbias[o] += g[o, i, j]
                for c in range(c_in):
                    for di in range(3):
                        for dj in range(3):
                            dkernel[o, c, di, dj] += g[o, i, j] * padded[c, i + di, j + dj]
                            dpad[c, i + di, j + dj] += g[o, i, j] * kernel[o, c, di, dj]
    return dpad[:, 1:-1, 1:-1], dkernel, dbias


def brute_force_maxpool2d_grad(x, pool_h, pool_w, g):
    """Route each window's gradient to its first row-major maximum over the
    window's valid extent; NaN counts as the largest value."""
    c, h, w = x.shape
    dx = np.zeros_like(x)
    for ch in range(c):
        for oi in range(g.shape[1]):
            for oj in range(g.shape[2]):
                best = None
                for i in range(oi * pool_h, min(h, (oi + 1) * pool_h)):
                    for j in range(oj * pool_w, min(w, (oj + 1) * pool_w)):
                        v, top = x[ch, i, j], None if best is None else x[ch, best[0], best[1]]
                        if best is None or v > top or (np.isnan(v) and not np.isnan(top)):
                            best = (i, j)
                dx[ch, best[0], best[1]] += g[ch, oi, oj]
    return dx


def random_gru_cell(rng, n_in, units, scale=0.5):
    def w(r, c):
        return ad.Tensor(rng.uniform(-scale, scale, size=(r, c)))

    def b(c):
        return ad.Tensor(rng.uniform(-scale, scale, size=c))

    # (W, U, b), each in GRU_GATES order
    W = [w(n_in, units) for _ in ad.GRU_GATES]
    U = [w(units, units) for _ in ad.GRU_GATES]
    return W, U, [b(units) for _ in ad.GRU_GATES]


class TestMatmul:
    """The x @ weight product inside dense, with a zero bias held constant."""

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        a = ad.Tensor(rng.normal(size=(3, 4)))
        b = ad.Tensor(rng.normal(size=(4, 2)))
        zero_bias = ad.Tensor(np.zeros(2))
        report = grad_check(lambda x, w: ad.dense(x, w, zero_bias), [a, b])
        assert report.max_rel_err < 1e-6


class TestDense:
    def test_identity(self):
        out = ad.dense(ad.Tensor([[3.0, 4.0]]), ad.Tensor(np.eye(2)), ad.Tensor(np.zeros(2)))
        assert_allclose(out.values, [[3.0, 4.0]])

    def test_hand_arithmetic(self):
        out = ad.dense(ad.Tensor([[1.0, 2.0]]), ad.Tensor([[3.0], [4.0]]), ad.Tensor([0.5]))
        assert_allclose(out.values, [[11.5]])

    def test_vector_and_matrix_inputs(self):
        w = ad.Tensor([[1.0, 0.0], [0.0, 2.0]])
        b = ad.Tensor([1.0, 1.0])
        with pytest.raises(DimensionError, match=r"x \(2,\), weight \(2, 2\), bias \(2,\)"):
            ad.dense(ad.Tensor([3.0, 4.0]), w, b)  # rows only
        out = ad.dense(ad.Tensor([[3.0, 4.0], [1.0, 1.0]]), w, b)
        assert_allclose(out.values, [[4.0, 9.0], [2.0, 3.0]])

    def test_shape_error_names_all_three_shapes(self):
        for x, w, b in [
            ((3, 2), (3, 2), (2,)),  # F differs
            ((3, 2), (2, 4), (2,)),  # one bias per unit
            ((3, 2), (2, 4), (1, 4)),
        ]:
            with pytest.raises(DimensionError, match=re.escape(f"x {x}, weight {w}, bias {b}")):
                ad.dense(ad.Tensor(np.zeros(x)), ad.Tensor(np.zeros(w)), ad.Tensor(np.zeros(b)))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(16)
        x = ad.Tensor(rng.normal(size=(4, 3)))
        w = ad.Tensor(rng.normal(size=(3, 2)))
        b = ad.Tensor(rng.normal(size=2))
        report = grad_check(ad.dense, [x, w, b])
        assert report.max_rel_err < 1e-6

    def test_backward_formula(self):
        rng = np.random.default_rng(1)
        x = ad.Tensor(rng.normal(size=(2, 3)))
        w = ad.Tensor(rng.normal(size=(3, 2)))
        b = ad.Tensor(rng.normal(size=2))
        g = rng.uniform(0.5, 1.5, size=(2, 2))
        with ad.Tape() as tape:
            loss = weighted_sum(ad.dense(x, w, b), g)
        tape.backward(loss)
        assert_allclose(b.grad, g.sum(axis=0))
        assert_allclose(x.grad, g @ w.values.T)
        assert_allclose(w.grad, x.values.T @ g)

    def test_one_record(self):
        with ad.Tape() as tape:
            ad.dense(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((3, 2))), ad.Tensor(np.ones(2)))
        assert len(tape) == 1


class TestAdd:
    def test_unequal_shapes_raise_naming_both(self):
        with pytest.raises(DimensionError, match=r"\(3, 4\) and \(4,\)"):
            ad.add(ad.Tensor(np.zeros((3, 4))), ad.Tensor(np.zeros(4)))


class TestConv2d:
    def test_zero_kernel_gives_constant_bias(self):
        x = ad.Tensor(np.random.default_rng(2).normal(size=(2, 4, 5)))
        k = ad.Tensor(np.zeros((3, 2, 3, 3)))
        b = ad.Tensor([1.0, -2.0, 0.5])
        out = ad.conv2d(x, k, b)
        for c, v in enumerate([1.0, -2.0, 0.5]):
            assert_allclose(out.values[c], v)

    def test_identity_kernel(self):
        x = ad.Tensor(np.random.default_rng(3).normal(size=(1, 5, 6)))
        k = np.zeros((1, 1, 3, 3))
        k[0, 0, 1, 1] = 1.0
        out = ad.conv2d(x, ad.Tensor(k), ad.Tensor([0.0]))
        assert_allclose(out.values, x.values)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(1, 4, 4))
        k = rng.normal(size=(2, 1, 3, 3))
        b = rng.normal(size=2)
        out = ad.conv2d(ad.Tensor(x.transpose(0, 2, 1)), ad.Tensor(k), ad.Tensor(b))
        expected = brute_force_conv2d(x, k, b).transpose(0, 2, 1)
        assert_allclose(out.values, expected, rtol=0, atol=1e-12)

    def test_channel_mismatch(self):
        with pytest.raises(DimensionError, match="channel mismatch"):
            ad.conv2d(
                ad.Tensor(np.zeros((2, 4, 4))),
                ad.Tensor(np.zeros((1, 3, 3, 3))),
                ad.Tensor(np.zeros(1)),
            )

    def test_non_3x3_kernel_rejected(self):
        with pytest.raises(ArgumentError, match="3x3"):
            ad.conv2d(
                ad.Tensor(np.zeros((1, 4, 4))),
                ad.Tensor(np.zeros((1, 1, 5, 5))),
                ad.Tensor(np.zeros(1)),
            )

    @pytest.mark.parametrize(
        "c_in, h, w, c_out",
        [(1, 1, 1, 1), (1, 1, 1, 3), (1, 4, 4, 2), (2, 1, 5, 3), (3, 5, 1, 2), (2, 3, 7, 4)],
    )
    def test_backward_matches_brute_force(self, c_in, h, w, c_out):
        rng = np.random.default_rng(100 + 7 * c_in + h + 3 * w)
        xv = rng.normal(size=(c_in, h, w))
        x = ad.Tensor(xv.transpose(0, 2, 1))
        k = ad.Tensor(rng.normal(size=(c_out, c_in, 3, 3)))
        b = ad.Tensor(rng.normal(size=c_out))
        g = rng.normal(size=(c_out, h, w))
        with ad.Tape() as tape:
            loss = weighted_sum(ad.conv2d(x, k, b), g.transpose(0, 2, 1))
        tape.backward(loss)
        dx, dk, db = brute_force_conv2d_backward(xv, k.values, g)
        assert_allclose(x.grad, dx.transpose(0, 2, 1), rtol=0, atol=1e-12)
        assert_allclose(k.grad, dk, rtol=0, atol=1e-12)
        assert_allclose(b.grad, db, rtol=0, atol=1e-12)

    def test_constant_input_gets_no_gradient(self):
        rng = np.random.default_rng(19)
        xv = rng.normal(size=(2, 4, 5))
        x = ad.Tensor(xv.transpose(0, 2, 1), constant=True)
        k = ad.Tensor(rng.normal(size=(3, 2, 3, 3)))
        b = ad.Tensor(rng.normal(size=3))
        with ad.Tape() as tape:
            loss = weighted_sum(ad.conv2d(x, k, b))
        tape.backward(loss)
        assert x.grad is None
        _, dk, db = brute_force_conv2d_backward(xv, k.values, np.ones((3, 4, 5)))
        assert_allclose(k.grad, dk, rtol=0, atol=1e-12)
        assert_allclose(b.grad, db, rtol=0, atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        x = ad.Tensor(rng.normal(size=(2, 4, 5)))
        k = ad.Tensor(rng.normal(size=(3, 2, 3, 3)))
        b = ad.Tensor(rng.normal(size=3))
        report = grad_check(ad.conv2d, [x, k, b])
        assert report.max_rel_err < 1e-6


class TestMaxPool2d:
    def test_pool_1x1_is_identity(self):
        x = ad.Tensor(np.random.default_rng(6).normal(size=(2, 3, 4)))
        out = ad.maxpool2d(x, 1, 1)
        assert_allclose(out.values, x.values)

    def test_2x2(self):
        out = ad.maxpool2d(ad.Tensor([[[1.0, 2.0], [3.0, 4.0]]]), 2, 2)
        assert_allclose(out.values, [[[4.0]]])

    def test_band_axis_64_to_1(self):
        # 64 bands pooled by 8, then 4, then 2 collapse to a single band.
        x = ad.Tensor(np.random.default_rng(7).normal(size=(1, 5, 64)).transpose(0, 2, 1))
        out = ad.maxpool2d(ad.maxpool2d(ad.maxpool2d(x, 1, 8), 1, 4), 1, 2)
        assert out.values.shape == (1, 1, 5)

    def test_partial_final_window(self):
        x = ad.Tensor(np.arange(5.0).reshape(1, 1, 5).transpose(0, 2, 1))
        out = ad.maxpool2d(x, 1, 2)
        assert_allclose(out.values, np.transpose([[[1.0, 3.0, 4.0]]], (0, 2, 1)))

    def test_invalid_pool_dims(self):
        with pytest.raises(ArgumentError):
            ad.maxpool2d(ad.Tensor(np.zeros((1, 2, 2))), 0, 1)

    def test_gradient_routes_to_first_max_on_ties(self):
        # (bands, frames): the first frame-major maximum is (band 1, frame 0),
        # the first band-major one (band 0, frame 1)
        x = ad.Tensor([[[1.0, 2.0], [2.0, 0.0]]])
        with ad.Tape() as tape:
            loss = weighted_sum(ad.maxpool2d(x, 2, 2))
        tape.backward(loss)
        assert_allclose(x.grad, [[[0.0, 0.0], [1.0, 0.0]]])

    def test_first_max_routing_with_partial_windows_on_both_axes(self):
        # 5 x 7 pooled by 2 x 3: the last window row and column are partial;
        # values from {0, 1, 2} make ties common.
        rng = np.random.default_rng(9)
        for _ in range(20):
            vals = rng.integers(0, 3, size=(2, 5, 7)).astype(float)
            x = ad.Tensor(vals.transpose(0, 2, 1))
            g = rng.normal(size=(2, 3, 3))
            with ad.Tape() as tape:
                pooled = ad.maxpool2d(x, 2, 3)
                loss = weighted_sum(pooled, g.transpose(0, 2, 1))
            tape.backward(loss)
            expected = brute_force_maxpool2d_grad(vals, 2, 3, g).transpose(0, 2, 1)
            assert_allclose(x.grad, expected, rtol=0, atol=0)

    @pytest.mark.parametrize("values", ["distinct", "ties", "nan"])
    @pytest.mark.parametrize(
        "shape, pool", [((3, 4, 16), (1, 8)), ((2, 13, 16), (8, 8)), ((2, 11, 13), (8, 8))]
    )
    def test_separable_routing_matches_brute_force(self, shape, pool, values):
        # 1x8 is the trunk's band pool; 8x8 with 13 or 11 rows (and 13 bands)
        # has partial windows; "ties" draws from {0, 1, 2}, "nan" adds NaNs
        rng = np.random.default_rng(20)
        if values == "distinct":
            vals = rng.normal(size=shape)
        else:
            vals = rng.integers(0, 3, size=shape).astype(float)
        if values == "nan":
            vals.reshape(-1)[rng.choice(vals.size, 6, replace=False)] = np.nan
        x = ad.Tensor(vals.transpose(0, 2, 1))
        with ad.Tape() as tape:
            pooled = ad.maxpool2d(x, *pool)
            g = rng.normal(size=pooled.shape)
            loss = weighted_sum(pooled, g)
        tape.backward(loss)
        expected = brute_force_maxpool2d_grad(vals, *pool, g.transpose(0, 2, 1))
        assert np.array_equal(x.grad, expected.transpose(0, 2, 1))

    def test_taped_pool_does_not_keep_its_input(self):
        x = ad.Tensor(np.random.default_rng(21).normal(size=(2, 6, 16)).transpose(0, 2, 1))
        alive = weakref.ref(x.values)
        with ad.Tape() as tape:
            loss = weighted_sum(ad.maxpool2d(x, 2, 8))
        x.values = None
        gc.collect()
        assert alive() is None
        tape.backward(loss)
        assert x.grad.shape == (2, 16, 6)
        assert x.grad.sum() == 2 * 3 * 2  # one routed 1.0 per window

    def test_forward_identical_with_and_without_tape(self):
        x = ad.Tensor(np.random.default_rng(10).normal(size=(3, 9, 10)))
        bare = ad.maxpool2d(x, 2, 4).values
        with ad.Tape():
            taped = ad.maxpool2d(x, 2, 4).values
        assert bare.tobytes() == taped.tobytes()

    def test_nan_propagates(self):
        vals = np.arange(2.0 * 5 * 7).reshape(2, 5, 7)
        nan_at = [(0, 0, 0), (0, 2, 4), (1, 1, 5), (1, 4, 6)]  # first, middle, last, partial
        for idx in nan_at:
            vals[idx] = np.nan
        out = ad.maxpool2d(ad.Tensor(vals.transpose(0, 2, 1)), 2, 3).values.transpose(0, 2, 1)
        expected = {(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 2, 2)}
        for idx in np.ndindex(out.shape):
            assert np.isnan(out[idx]) == (idx in expected)

    def test_gradient_matches_finite_differences(self):
        # Well-separated values so the finite-difference step cannot flip windows.
        rng = np.random.default_rng(8)
        vals = rng.permutation(np.linspace(-1.0, 1.0, 2 * 5 * 7)).reshape(2, 5, 7)
        x = ad.Tensor(vals)
        report = grad_check(lambda t: ad.maxpool2d(t, 2, 3), [x])
        assert report.max_rel_err < 1e-6


class TestPooledConv:
    """conv2d with its layer's pool: a one-channel input runs in blocks of
    output channels, and its values, routing and gradients are the bits of
    maxpool2d over the unpooled conv."""

    @staticmethod
    def bits(x, kernel, bias, pool, blocked, g):
        zero_grads([x, kernel, bias])
        with ad.Tape() as tape:
            if blocked:
                out = ad.conv2d(x, kernel, bias, pool)
            else:  # the reference: the unpooled conv, pooled on its own
                out = ad.maxpool2d(ad.conv2d(x, kernel, bias), *pool)
            loss = weighted_sum(out, g)
        tape.backward(loss)
        return [t.tobytes() for t in (out.values, x.grad, kernel.grad, bias.grad)]

    def check(self, monkeypatch, x, kernel, bias, pool, n_blocks):
        """The blocked layer split into n_blocks equals the reference bit for bit."""
        c_out = kernel.shape[0]
        row_bytes = 8 * x.shape[1] * x.shape[2]
        monkeypatch.setattr(ad, "_MAP_BUDGET", -(-c_out * row_bytes // n_blocks))
        blocks = ad._row_blocks(c_out, row_bytes)
        assert len(blocks) == n_blocks
        assert len({b.stop - b.start for b in blocks}) == 2  # one of them short
        out_shape = (c_out, -(-x.shape[1] // pool[1]), -(-x.shape[2] // pool[0]))
        g = np.random.default_rng(x.shape[2]).uniform(0.5, 1.5, size=out_shape)
        blocked = self.bits(x, kernel, bias, pool, True, g)
        assert blocked == self.bits(x, kernel, bias, pool, False, g)

    @pytest.mark.parametrize("pool", [(1, 8), (8, 8)])
    def test_every_frame_count_to_520(self, monkeypatch, pool):
        # 16 channels in 3, 5, 6 or 7 blocks: every block size from 2 to 6 rows
        rng = np.random.default_rng(40)
        kernel = ad.Tensor(rng.normal(size=(16, 1, 3, 3)))
        bias = ad.Tensor(rng.normal(size=16))
        for n_frames in range(1, 521):
            x = ad.Tensor(rng.normal(size=(1, 64, n_frames)))
            self.check(monkeypatch, x, kernel, bias, pool, (3, 5, 6, 7)[n_frames % 4])

    @pytest.mark.parametrize("pool", [(1, 8), (8, 8)])
    @pytest.mark.parametrize("n_frames", [249, 499, 500, 3000])
    def test_first_layer_shapes(self, monkeypatch, pool, n_frames):
        rng = np.random.default_rng(n_frames)
        kernel = ad.Tensor(rng.normal(size=(128, 1, 3, 3)))
        bias = ad.Tensor(rng.normal(size=128))
        x = ad.Tensor(rng.normal(size=(1, 64, n_frames)))
        self.check(monkeypatch, x, kernel, bias, pool, 3)

    @pytest.mark.parametrize("pool", [(1, 8), (8, 8)])
    def test_routing_on_exact_ties_and_nan(self, monkeypatch, pool):
        # integer inputs and kernels tie within most windows; the gradient of
        # x shows where each window routed
        rng = np.random.default_rng(41)
        kernel = ad.Tensor(rng.integers(-1, 2, size=(16, 1, 3, 3)).astype(float))
        bias = ad.Tensor(rng.integers(-2, 3, size=16).astype(float))
        for n_frames in (7, 20, 61):
            x = ad.Tensor(rng.integers(0, 3, size=(1, 64, n_frames)).astype(float))
            self.check(monkeypatch, x, kernel, bias, pool, 5)
            x.values[0, 9, n_frames // 2] = np.nan
            self.check(monkeypatch, x, kernel, bias, pool, 5)

    def test_blocks_have_two_rows_or_more_and_a_small_map_is_one(self):
        for row_bytes in (1, 25_600, 100_000, 256_000, 2 << 20, 10 << 20):
            for c_out in (1, 2, 3, 16, 127, 128):
                blocks = ad._row_blocks(c_out, row_bytes)
                sizes = [b.stop - b.start for b in blocks]
                assert [b.start for b in blocks] == [0, *np.cumsum(sizes)[:-1]]
                assert sum(sizes) == c_out
                assert min(sizes) >= min(2, c_out)
                if c_out * row_bytes <= ad._MAP_BUDGET:
                    assert len(blocks) == 1
        # the paper's 500-frame chunk: 8 blocks of 16 channels, about 4 MB each; a
        # 50-frame chunk's map is one block
        assert {b.stop - b.start for b in ad._row_blocks(128, 8 * 64 * 500)} == {16}
        assert len(ad._row_blocks(128, 8 * 64 * 50)) == 1

    def test_untaped_layer_never_builds_the_full_map(self):
        # 3000 frames: the unpooled map would be 128 x 64 x 3000 floats (196 MB)
        rng = np.random.default_rng(42)
        x = ad.Tensor(rng.normal(size=(1, 64, 3000)), constant=True)
        kernel = ad.Tensor(rng.normal(size=(128, 1, 3, 3)))
        bias = ad.Tensor(rng.normal(size=128))
        full_map = 8 * 128 * 64 * 3000
        tracemalloc.start()
        try:
            out = ad.conv2d(x, kernel, bias, (1, 8))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.shape == (128, 8, 3000)
        assert peak < full_map / 3

    def test_pool_dims_are_checked(self):
        x = ad.Tensor(np.zeros((1, 4, 4)))
        with pytest.raises(ArgumentError):
            ad.conv2d(x, ad.Tensor(np.zeros((2, 1, 3, 3))), ad.Tensor(np.zeros(2)), (0, 2))


class TestSigmoid:
    """`_sigmoid_values`, the GRU gates' and the event posteriors' sigmoid."""

    def test_zero(self):
        assert_allclose(ad._sigmoid_values(np.array([0.0])), [0.5])

    def test_saturation_no_overflow(self):
        out = ad._sigmoid_values(np.array([1e4]))
        assert 1.0 - 1e-9 < out[0] <= 1.0
        out = ad._sigmoid_values(np.array([-1e4]))
        assert 0.0 <= out[0] < 1e-9

    def test_value_at_one(self):
        assert_allclose(ad._sigmoid_values(np.array([1.0])), [0.7310585786300049])


class TestSoftmaxTemperature:
    """`losses.distill_targets`, the teacher's temperature softmax."""

    def test_uniform(self):
        for temperature in (0.5, 1.0, 3.0):
            out = losses.distill_targets(np.zeros(3), temperature)
            assert_allclose(out, np.full(3, 1.0 / 3.0))

    def test_two_logits_t1(self):
        out = losses.distill_targets(np.array([1.0, 2.0]), 1.0)
        assert_allclose(out, [0.2689414213699951, 0.7310585786300049], atol=1e-12)

    def test_two_logits_t2(self):
        out = losses.distill_targets(np.array([1.0, 2.0]), 2.0)
        assert_allclose(out, [0.3775406687981454, 0.6224593312018546], atol=1e-12)

    def test_invalid_temperature(self):
        with pytest.raises(ArgumentError, match="temperature must be positive, got 0.0"):
            losses.distill_targets(np.array([1.0]), 0.0)

    def test_empty_vector(self):
        with pytest.raises(ArgumentError, match=r"non-empty vector, got shape \(0,\)"):
            losses.distill_targets(np.zeros(0), 1.0)

    def test_sums_to_one_and_shift_invariance(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            logits = rng.normal(scale=3.0, size=rng.integers(2, 8))
            temperature = float(rng.uniform(0.3, 5.0))
            p = losses.distill_targets(logits, temperature)
            assert np.all(p >= 0.0)
            assert abs(p.sum() - 1.0) < 1e-12
            shifted = losses.distill_targets(logits + 17.5, temperature)
            assert np.abs(p - shifted).max() < 1e-12

    def test_entropy_nondecreasing_in_temperature(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            logits = rng.normal(scale=4.0, size=6)
            entropies = []
            for temperature in (0.5, 1.0, 2.0, 4.0, 8.0):
                p = losses.distill_targets(logits, temperature)
                entropies.append(float(-(p * np.log(p + 1e-300)).sum()))
            assert all(
                b >= a - 1e-12 for a, b in zip(entropies, entropies[1:])
            )


class TestBiGRU:
    def test_zero_weights_and_input(self):
        rng = np.random.default_rng(12)
        cell_f = random_gru_cell(rng, 3, 2, scale=0.0)
        cell_b = random_gru_cell(rng, 3, 2, scale=0.0)
        out = ad.bigru_forward(ad.Tensor(np.zeros((4, 1, 3))), cell_f, cell_b)
        assert_allclose(out.values, np.zeros((4, 1, 4)))

    def test_single_frame_is_concat_of_single_steps(self):
        rng = np.random.default_rng(13)
        cell_f = random_gru_cell(rng, 3, 2)
        cell_b = random_gru_cell(rng, 3, 2)
        x = rng.normal(size=(1, 3))
        out = ad.bigru_forward(ad.Tensor(x[:, None]), cell_f, cell_b).values[:, 0]

        def one_step(cell, xt):
            (w_update, _, w_cand), _, (b_update, _, b_cand) = cell
            z = 1.0 / (1.0 + np.exp(-(xt @ w_update.values + b_update.values)))
            c = np.tanh(xt @ w_cand.values + b_cand.values)
            return (1.0 - z) * c  # zero initial state

        expected = np.concatenate([one_step(cell_f, x[0]), one_step(cell_b, x[0])])
        assert_allclose(out[0], expected, atol=1e-12)

    def test_empty_sequence(self):
        rng = np.random.default_rng(14)
        cell = random_gru_cell(rng, 3, 2)
        with pytest.raises(ArgumentError):
            ad.bigru_forward(ad.Tensor(np.zeros((0, 1, 3))), cell, cell)
        with pytest.raises(ArgumentError):  # no batch axis
            ad.bigru_forward(ad.Tensor(np.zeros((4, 3))), cell, cell)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(15)
        cell_f = random_gru_cell(rng, 2, 2)
        cell_b = random_gru_cell(rng, 2, 2)
        x = ad.Tensor(rng.normal(size=(3, 1, 2)))  # a batch of one
        inputs = [x] + sum(cell_f + cell_b, [])

        def fn(xt, *weights):
            return ad.bigru_forward(xt, cell_f, cell_b)

        report = grad_check(fn, inputs)
        assert report.max_rel_err < 1e-4

    def test_batched_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(23)
        cell_f = random_gru_cell(rng, 2, 2)
        cell_b = random_gru_cell(rng, 2, 2)
        x = ad.Tensor(rng.normal(size=(3, 2, 2)))  # (N, B, F)
        inputs = [x] + sum(cell_f + cell_b, [])

        def fn(xt, *weights):
            return ad.bigru_forward(xt, cell_f, cell_b)

        report = grad_check(fn, inputs)
        assert report.max_rel_err < 1e-4

    def test_batch_columns_match_single_sequences(self):
        rng = np.random.default_rng(25)
        cell_f = random_gru_cell(rng, 3, 4)
        cell_b = random_gru_cell(rng, 3, 4)
        x = rng.normal(size=(6, 3, 3))
        batched = ad.bigru_forward(ad.Tensor(x), cell_f, cell_b).values
        assert batched.shape == (6, 3, 8)
        for i in range(3):
            single = ad.bigru_forward(ad.Tensor(x[:, i : i + 1]), cell_f, cell_b).values
            assert_allclose(batched[:, i : i + 1], single, rtol=0, atol=1e-13)


class TestStack:
    def test_joins_on_a_new_leading_axis(self):
        a, b = ad.Tensor([[1.0, 2.0]]), ad.Tensor([[3.0, 4.0]])
        out = ad.stack([a, b])
        assert out.values.shape == (2, 1, 2)
        assert_allclose(out.values[1], b.values)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(26)
        a = ad.Tensor(rng.normal(size=(3, 2)))
        b = ad.Tensor(rng.normal(size=(3, 2)))
        report = grad_check(lambda s, t: ad.stack([s, t]), [a, b])
        assert report.max_rel_err < 1e-6


class TestGradCheckSuite:
    """Randomized-shape gradient checks for every primitive."""

    def test_eps_domain(self):
        with pytest.raises(ArgumentError):
            grad_check(ad.relu, [ad.Tensor([1.0])], eps=1e-2)

    @pytest.mark.parametrize("trial", range(10))
    def test_composed_ops(self, trial):
        rng = np.random.default_rng(100 + trial)
        h = int(rng.integers(2, 5))
        w = int(rng.integers(2, 5))
        x = ad.Tensor(rng.normal(size=(2, h, w)))
        k = ad.Tensor(rng.normal(size=(2, 2, 3, 3)) * 0.5)
        b = ad.Tensor(rng.normal(size=2))

        def fn(xt, kt, bt):
            y = ad.relu(ad.conv2d(xt, kt, bt))
            return ad.mean_axis(ad.reshape(y, (2, h * w)), 1)

        report = grad_check(fn, [x, k, b], seed=trial)
        assert report.max_rel_err < 1e-6


class TestTapeSemantics:
    def test_backward_is_deterministic(self):
        rng = np.random.default_rng(17)
        xv = rng.normal(size=(3, 4))
        wv = rng.normal(size=(4, 2))
        bv = rng.normal(size=2)

        def run():
            x, w, b = ad.Tensor(xv), ad.Tensor(wv), ad.Tensor(bv)
            with ad.Tape() as tape:
                out = ad.relu(ad.dense(x, w, b))
                loss = ad.dense(ad.reshape(out, (1, -1)), ad.reshape(out, (-1, 1)), ad.Tensor([0.0]))
            tape.backward(loss)
            return x.grad.copy(), w.grad.copy(), b.grad.copy()

        first, second = run(), run()
        for g1, g2 in zip(first, second):
            assert np.array_equal(g1, g2)

    def test_untouched_branch_gets_no_gradient(self):
        x = ad.Tensor([1.0, 2.0])
        y = ad.Tensor([3.0, 4.0])
        with ad.Tape() as tape:
            used = weighted_sum(x, x.values)
            weighted_sum(y)  # recorded but not part of the loss
            loss = used
        tape.backward(loss)
        assert x.grad is not None
        assert y.grad is None

    def test_nested_tape_records_only_the_ops_inside_it(self):
        x = ad.Tensor([1.0, 2.0])
        with ad.Tape() as outer:
            ad.relu(x)
            with ad.Tape() as inner:
                ad.relu(x)
                ad.relu(x)
            assert ad._ACTIVE_TAPE is outer
            with pytest.raises(ValueError, match="^inside$"):
                with ad.Tape() as failed:
                    ad.relu(x)
                    raise ValueError("inside")
            assert ad._ACTIVE_TAPE is outer
            ad.relu(x)
        assert ad._ACTIVE_TAPE is None
        assert (len(outer), len(inner), len(failed)) == (2, 2, 1)

    def test_an_exited_inner_tape_does_not_keep_the_outer_tape_alive(self):
        # `networks._taped_map` keeps its sub-tapes in the outer tape's records:
        # a sub-tape that held on to the outer tape would make a cycle that only
        # the garbage collector frees, with the step's activations in it
        with ad.Tape() as outer:
            with ad.Tape() as inner:
                ad.relu(ad.Tensor([1.0]))
        alive = weakref.ref(outer)
        del outer
        assert alive() is None and len(inner) == 1

    def test_backward_needs_scalar(self):
        x = ad.Tensor([1.0, 2.0])
        with ad.Tape() as tape:
            out = ad.add(x, x)
        with pytest.raises(ArgumentError):
            tape.backward(out)

    def test_forward_values_always_finite(self):
        rng = np.random.default_rng(18)
        for _ in range(20):
            x = ad.Tensor(rng.uniform(-10, 10, size=(2, 4, 4)))
            out = ad.relu(
                ad.maxpool2d(
                    ad.conv2d(
                        x,
                        ad.Tensor(rng.normal(size=(3, 2, 3, 3))),
                        ad.Tensor(rng.normal(size=3)),
                    ),
                    2,
                    2,
                )
            )
            assert np.all(np.isfinite(out.values))


def test_the_active_tape_is_the_calling_threads():
    # while a helper thread holds a tape, the main thread has none
    entered, release = threading.Event(), threading.Event()
    seen = {}

    def hold_a_tape():
        with ad.Tape() as tape:
            seen["tape"], seen["active"] = tape, ad._ACTIVE_TAPE
            entered.set()
            release.wait(timeout=60)

    helper = threading.Thread(target=hold_a_tape)
    helper.start()
    try:
        assert entered.wait(timeout=60)
        assert ad._ACTIVE_TAPE is None
        ad.relu(ad.Tensor([1.0]))
    finally:
        release.set()
        helper.join(timeout=60)
    assert not helper.is_alive()
    assert seen["active"] is seen["tape"] and len(seen["tape"]) == 0
