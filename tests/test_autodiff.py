import gc
import weakref

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sedmtl import autodiff as ad
from sedmtl.errors import ArgumentError, DimensionError


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
        return ad.tensor(rng.uniform(-scale, scale, size=(r, c)))

    def b(c):
        return ad.tensor(rng.uniform(-scale, scale, size=c))

    return ad.GRUCell(
        w_update=w(n_in, units), w_reset=w(n_in, units), w_cand=w(n_in, units),
        u_update=w(units, units), u_reset=w(units, units), u_cand=w(units, units),
        b_update=b(units), b_reset=b(units), b_cand=b(units),
    )


class TestMatmul:
    def test_identity(self):
        out = ad.matmul(ad.tensor([[1.0, 0.0], [0.0, 1.0]]), ad.tensor([[3.0], [4.0]]))
        assert_allclose(out.values, [[3.0], [4.0]])

    def test_hand_arithmetic(self):
        out = ad.matmul(ad.tensor([[1.0, 2.0]]), ad.tensor([[3.0], [4.0]]))
        assert_allclose(out.values, [[11.0]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 2\)"):
            ad.matmul(ad.tensor(np.zeros((2, 3))), ad.tensor(np.zeros((2, 2))))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        a = ad.tensor(rng.normal(size=(3, 4)))
        b = ad.tensor(rng.normal(size=(4, 2)))
        report = ad.grad_check(ad.matmul, [a, b])
        assert report.max_rel_err < 1e-6

    def test_backward_formula(self):
        rng = np.random.default_rng(1)
        a = ad.tensor(rng.normal(size=(2, 3)))
        b = ad.tensor(rng.normal(size=(3, 2)))
        with ad.Tape() as tape:
            loss = ad.sum_all(ad.matmul(a, b))
        tape.backward(loss)
        g = np.ones((2, 2))
        assert_allclose(a.grad, g @ b.values.T)
        assert_allclose(b.grad, a.values.T @ g)


class TestConv2d:
    def test_zero_kernel_gives_constant_bias(self):
        x = ad.tensor(np.random.default_rng(2).normal(size=(2, 4, 5)))
        k = ad.tensor(np.zeros((3, 2, 3, 3)))
        b = ad.tensor([1.0, -2.0, 0.5])
        out = ad.conv2d(x, k, b)
        for c, v in enumerate([1.0, -2.0, 0.5]):
            assert_allclose(out.values[c], v)

    def test_identity_kernel(self):
        x = ad.tensor(np.random.default_rng(3).normal(size=(1, 5, 6)))
        k = np.zeros((1, 1, 3, 3))
        k[0, 0, 1, 1] = 1.0
        out = ad.conv2d(x, ad.tensor(k), ad.tensor([0.0]))
        assert_allclose(out.values, x.values)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(1, 4, 4))
        k = rng.normal(size=(2, 1, 3, 3))
        b = rng.normal(size=2)
        out = ad.conv2d(ad.tensor(x.transpose(0, 2, 1)), ad.tensor(k), ad.tensor(b))
        expected = brute_force_conv2d(x, k, b).transpose(0, 2, 1)
        assert_allclose(out.values, expected, rtol=0, atol=1e-12)

    def test_channel_mismatch(self):
        with pytest.raises(DimensionError, match="channel mismatch"):
            ad.conv2d(
                ad.tensor(np.zeros((2, 4, 4))),
                ad.tensor(np.zeros((1, 3, 3, 3))),
                ad.tensor(np.zeros(1)),
            )

    def test_non_3x3_kernel_rejected(self):
        with pytest.raises(ArgumentError, match="3x3"):
            ad.conv2d(
                ad.tensor(np.zeros((1, 4, 4))),
                ad.tensor(np.zeros((1, 1, 5, 5))),
                ad.tensor(np.zeros(1)),
            )

    @pytest.mark.parametrize(
        "c_in, h, w, c_out",
        [(1, 1, 1, 1), (1, 1, 1, 3), (1, 4, 4, 2), (2, 1, 5, 3), (3, 5, 1, 2), (2, 3, 7, 4)],
    )
    def test_backward_matches_brute_force(self, c_in, h, w, c_out):
        rng = np.random.default_rng(100 + 7 * c_in + h + 3 * w)
        xv = rng.normal(size=(c_in, h, w))
        x = ad.tensor(xv.transpose(0, 2, 1))
        k = ad.tensor(rng.normal(size=(c_out, c_in, 3, 3)))
        b = ad.tensor(rng.normal(size=c_out))
        g = rng.normal(size=(c_out, h, w))
        with ad.Tape() as tape:
            loss = ad.sum_all(ad.mul(ad.conv2d(x, k, b), ad.tensor(g.transpose(0, 2, 1))))
        tape.backward(loss)
        dx, dk, db = brute_force_conv2d_backward(xv, k.values, g)
        assert_allclose(x.grad, dx.transpose(0, 2, 1), rtol=0, atol=1e-12)
        assert_allclose(k.grad, dk, rtol=0, atol=1e-12)
        assert_allclose(b.grad, db, rtol=0, atol=1e-12)

    def test_constant_input_gets_no_gradient(self):
        rng = np.random.default_rng(19)
        xv = rng.normal(size=(2, 4, 5))
        x = ad.Tensor(xv.transpose(0, 2, 1), constant=True)
        k = ad.tensor(rng.normal(size=(3, 2, 3, 3)))
        b = ad.tensor(rng.normal(size=3))
        with ad.Tape() as tape:
            loss = ad.sum_all(ad.conv2d(x, k, b))
        tape.backward(loss)
        assert x.grad is None
        _, dk, db = brute_force_conv2d_backward(xv, k.values, np.ones((3, 4, 5)))
        assert_allclose(k.grad, dk, rtol=0, atol=1e-12)
        assert_allclose(b.grad, db, rtol=0, atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        x = ad.tensor(rng.normal(size=(2, 4, 5)))
        k = ad.tensor(rng.normal(size=(3, 2, 3, 3)))
        b = ad.tensor(rng.normal(size=3))
        report = ad.grad_check(ad.conv2d, [x, k, b])
        assert report.max_rel_err < 1e-6


class TestMaxPool2d:
    def test_pool_1x1_is_identity(self):
        x = ad.tensor(np.random.default_rng(6).normal(size=(2, 3, 4)))
        out = ad.maxpool2d(x, 1, 1)
        assert_allclose(out.values, x.values)

    def test_2x2(self):
        out = ad.maxpool2d(ad.tensor([[[1.0, 2.0], [3.0, 4.0]]]), 2, 2)
        assert_allclose(out.values, [[[4.0]]])

    def test_band_axis_64_to_1(self):
        # 64 bands pooled by 8, then 4, then 2 collapse to a single band.
        x = ad.tensor(np.random.default_rng(7).normal(size=(1, 5, 64)).transpose(0, 2, 1))
        out = ad.maxpool2d(ad.maxpool2d(ad.maxpool2d(x, 1, 8), 1, 4), 1, 2)
        assert out.values.shape == (1, 1, 5)

    def test_partial_final_window(self):
        x = ad.tensor(np.arange(5.0).reshape(1, 1, 5).transpose(0, 2, 1))
        out = ad.maxpool2d(x, 1, 2)
        assert_allclose(out.values, np.transpose([[[1.0, 3.0, 4.0]]], (0, 2, 1)))

    def test_invalid_pool_dims(self):
        with pytest.raises(ArgumentError):
            ad.maxpool2d(ad.tensor(np.zeros((1, 2, 2))), 0, 1)

    def test_gradient_routes_to_first_max_on_ties(self):
        x = ad.tensor([[[2.0, 2.0], [1.0, 2.0]]])
        with ad.Tape() as tape:
            loss = ad.sum_all(ad.maxpool2d(x, 2, 2))
        tape.backward(loss)
        assert_allclose(x.grad, [[[1.0, 0.0], [0.0, 0.0]]])

    def test_first_max_routing_with_partial_windows_on_both_axes(self):
        # 5 x 7 pooled by 2 x 3: the last window row and column are partial;
        # values from {0, 1, 2} make ties common.
        rng = np.random.default_rng(9)
        for _ in range(20):
            vals = rng.integers(0, 3, size=(2, 5, 7)).astype(float)
            x = ad.tensor(vals.transpose(0, 2, 1))
            g = rng.normal(size=(2, 3, 3))
            with ad.Tape() as tape:
                pooled = ad.maxpool2d(x, 2, 3)
                loss = ad.sum_all(ad.mul(pooled, ad.tensor(g.transpose(0, 2, 1))))
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
        x = ad.tensor(vals.transpose(0, 2, 1))
        with ad.Tape() as tape:
            pooled = ad.maxpool2d(x, *pool)
            g = rng.normal(size=pooled.shape)
            loss = ad.sum_all(ad.mul(pooled, ad.tensor(g)))
        tape.backward(loss)
        expected = brute_force_maxpool2d_grad(vals, *pool, g.transpose(0, 2, 1))
        assert np.array_equal(x.grad, expected.transpose(0, 2, 1))

    def test_taped_pool_does_not_keep_its_input(self):
        x = ad.tensor(np.random.default_rng(21).normal(size=(2, 6, 16)).transpose(0, 2, 1))
        alive = weakref.ref(x.values)
        with ad.Tape() as tape:
            loss = ad.sum_all(ad.maxpool2d(x, 2, 8))
        x.values = None
        gc.collect()
        assert alive() is None
        tape.backward(loss)
        assert x.grad.shape == (2, 16, 6)
        assert x.grad.sum() == 2 * 3 * 2  # one routed 1.0 per window

    def test_forward_identical_with_and_without_tape(self):
        x = ad.tensor(np.random.default_rng(10).normal(size=(3, 9, 10)))
        bare = ad.maxpool2d(x, 2, 4).values
        with ad.Tape():
            taped = ad.maxpool2d(x, 2, 4).values
        assert bare.tobytes() == taped.tobytes()

    def test_nan_propagates(self):
        vals = np.arange(2.0 * 5 * 7).reshape(2, 5, 7)
        nan_at = [(0, 0, 0), (0, 2, 4), (1, 1, 5), (1, 4, 6)]  # first, middle, last, partial
        for idx in nan_at:
            vals[idx] = np.nan
        out = ad.maxpool2d(ad.tensor(vals.transpose(0, 2, 1)), 2, 3).values.transpose(0, 2, 1)
        expected = {(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 2, 2)}
        for idx in np.ndindex(out.shape):
            assert np.isnan(out[idx]) == (idx in expected)

    def test_gradient_matches_finite_differences(self):
        # Well-separated values so the finite-difference step cannot flip windows.
        rng = np.random.default_rng(8)
        vals = rng.permutation(np.linspace(-1.0, 1.0, 2 * 5 * 7)).reshape(2, 5, 7)
        x = ad.tensor(vals)
        report = ad.grad_check(lambda t: ad.maxpool2d(t, 2, 3), [x])
        assert report.max_rel_err < 1e-6


class TestSigmoid:
    def test_zero(self):
        assert_allclose(ad.sigmoid(ad.tensor([0.0])).values, [0.5])

    def test_saturation_no_overflow(self):
        out = ad.sigmoid(ad.tensor([1e4])).values
        assert 1.0 - 1e-9 < out[0] <= 1.0
        out = ad.sigmoid(ad.tensor([-1e4])).values
        assert 0.0 <= out[0] < 1e-9

    def test_value_at_one(self):
        assert_allclose(ad.sigmoid(ad.tensor([1.0])).values, [0.7310585786300049])

    def test_gradient_at_zero(self):
        report = ad.grad_check(ad.sigmoid, [ad.tensor([0.0])], eps=1e-5)
        assert report.max_rel_err < 1e-8


class TestSoftmaxTemperature:
    def test_uniform(self):
        for temperature in (0.5, 1.0, 3.0):
            out = ad.softmax_temperature(ad.tensor([0.0, 0.0, 0.0]), temperature)
            assert_allclose(out.values, np.full(3, 1.0 / 3.0))

    def test_two_logits_t1(self):
        out = ad.softmax_temperature(ad.tensor([1.0, 2.0]), 1.0)
        assert_allclose(out.values, [0.2689414213699951, 0.7310585786300049], atol=1e-12)

    def test_two_logits_t2(self):
        out = ad.softmax_temperature(ad.tensor([1.0, 2.0]), 2.0)
        assert_allclose(out.values, [0.3775406687981454, 0.6224593312018546], atol=1e-12)

    def test_invalid_temperature(self):
        with pytest.raises(ArgumentError):
            ad.softmax_temperature(ad.tensor([1.0]), 0.0)

    def test_empty_vector(self):
        with pytest.raises(ArgumentError):
            ad.softmax_temperature(ad.tensor(np.zeros(0)), 1.0)

    def test_sums_to_one_and_shift_invariance(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            logits = rng.normal(scale=3.0, size=rng.integers(2, 8))
            temperature = float(rng.uniform(0.3, 5.0))
            p = ad.softmax_temperature(ad.tensor(logits), temperature).values
            assert np.all(p >= 0.0)
            assert abs(p.sum() - 1.0) < 1e-12
            shifted = ad.softmax_temperature(
                ad.tensor(logits + 17.5), temperature
            ).values
            assert np.abs(p - shifted).max() < 1e-12

    def test_entropy_nondecreasing_in_temperature(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            logits = ad.tensor(rng.normal(scale=4.0, size=6))
            entropies = []
            for temperature in (0.5, 1.0, 2.0, 4.0, 8.0):
                p = ad.softmax_temperature(logits, temperature).values
                entropies.append(float(-(p * np.log(p + 1e-300)).sum()))
            assert all(
                b >= a - 1e-12 for a, b in zip(entropies, entropies[1:])
            )

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        logits = ad.tensor(rng.normal(size=5))
        report = ad.grad_check(lambda t: ad.softmax_temperature(t, 2.0), [logits])
        assert report.max_rel_err < 1e-6


class TestBiGRU:
    def test_zero_weights_and_input(self):
        rng = np.random.default_rng(12)
        cell_f = random_gru_cell(rng, 3, 2, scale=0.0)
        cell_b = random_gru_cell(rng, 3, 2, scale=0.0)
        out = ad.bigru_forward(ad.tensor(np.zeros((4, 3))), cell_f, cell_b)
        assert_allclose(out.values, np.zeros((4, 4)))

    def test_single_frame_is_concat_of_single_steps(self):
        rng = np.random.default_rng(13)
        cell_f = random_gru_cell(rng, 3, 2)
        cell_b = random_gru_cell(rng, 3, 2)
        x = rng.normal(size=(1, 3))
        out = ad.bigru_forward(ad.tensor(x), cell_f, cell_b).values

        def one_step(cell, xt):
            z = 1.0 / (1.0 + np.exp(-(xt @ cell.w_update.values + cell.b_update.values)))
            c = np.tanh(xt @ cell.w_cand.values + cell.b_cand.values)
            return (1.0 - z) * c  # zero initial state

        expected = np.concatenate([one_step(cell_f, x[0]), one_step(cell_b, x[0])])
        assert_allclose(out[0], expected, atol=1e-12)

    def test_empty_sequence(self):
        rng = np.random.default_rng(14)
        cell = random_gru_cell(rng, 3, 2)
        with pytest.raises(ArgumentError):
            ad.bigru_forward(ad.tensor(np.zeros((0, 3))), cell, cell)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(15)
        cell_f = random_gru_cell(rng, 2, 2)
        cell_b = random_gru_cell(rng, 2, 2)
        x = ad.tensor(rng.normal(size=(3, 2)))
        inputs = [x] + cell_f.tensors() + cell_b.tensors()

        def fn(xt, *weights):
            return ad.bigru_forward(xt, cell_f, cell_b)

        report = ad.grad_check(fn, inputs)
        assert report.max_rel_err < 1e-4

    def test_batched_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(23)
        cell_f = random_gru_cell(rng, 2, 2)
        cell_b = random_gru_cell(rng, 2, 2)
        x = ad.tensor(rng.normal(size=(3, 2, 2)))  # (N, B, F)
        inputs = [x] + cell_f.tensors() + cell_b.tensors()

        def fn(xt, *weights):
            return ad.bigru_forward(xt, cell_f, cell_b)

        report = ad.grad_check(fn, inputs)
        assert report.max_rel_err < 1e-4

    def test_batch_of_one_is_bit_identical(self):
        rng = np.random.default_rng(24)
        cell_f = random_gru_cell(rng, 5, 4)
        cell_b = random_gru_cell(rng, 5, 4)
        x = rng.normal(size=(9, 5))
        single = ad.bigru_forward(ad.tensor(x), cell_f, cell_b).values
        batched = ad.bigru_forward(ad.tensor(x[:, None, :]), cell_f, cell_b).values
        assert batched.shape == (9, 1, 8)
        assert batched[:, 0].tobytes() == single.tobytes()

    def test_batch_columns_match_single_sequences(self):
        rng = np.random.default_rng(25)
        cell_f = random_gru_cell(rng, 3, 4)
        cell_b = random_gru_cell(rng, 3, 4)
        x = rng.normal(size=(6, 3, 3))
        batched = ad.bigru_forward(ad.tensor(x), cell_f, cell_b).values
        assert batched.shape == (6, 3, 8)
        for i in range(3):
            single = ad.bigru_forward(ad.tensor(x[:, i]), cell_f, cell_b).values
            assert_allclose(batched[:, i], single, rtol=0, atol=1e-13)


class TestStack:
    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(26)
        a = ad.tensor(rng.normal(size=(3, 2)))
        b = ad.tensor(rng.normal(size=(3, 2)))
        report = ad.grad_check(lambda s, t: ad.stack([s, t], axis=1), [a, b])
        assert report.max_rel_err < 1e-6


class TestDense:
    def test_vector_and_matrix_inputs(self):
        w = ad.tensor([[1.0, 0.0], [0.0, 2.0]])
        b = ad.tensor([1.0, 1.0])
        out = ad.dense(ad.tensor([3.0, 4.0]), w, b)
        assert_allclose(out.values, [4.0, 9.0])
        out = ad.dense(ad.tensor([[3.0, 4.0], [1.0, 1.0]]), w, b)
        assert_allclose(out.values, [[4.0, 9.0], [2.0, 3.0]])

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(16)
        x = ad.tensor(rng.normal(size=(4, 3)))
        w = ad.tensor(rng.normal(size=(3, 2)))
        b = ad.tensor(rng.normal(size=2))
        report = ad.grad_check(ad.dense, [x, w, b])
        assert report.max_rel_err < 1e-6


class TestGradCheckSuite:
    """Randomized-shape gradient checks for every primitive."""

    def test_eps_domain(self):
        with pytest.raises(ArgumentError):
            ad.grad_check(ad.sigmoid, [ad.tensor([0.0])], eps=1e-2)

    @pytest.mark.parametrize("trial", range(10))
    def test_composed_ops(self, trial):
        rng = np.random.default_rng(100 + trial)
        h = int(rng.integers(2, 5))
        w = int(rng.integers(2, 5))
        x = ad.tensor(rng.normal(size=(2, h, w)))
        k = ad.tensor(rng.normal(size=(2, 2, 3, 3)) * 0.5)
        b = ad.tensor(rng.normal(size=2))

        def fn(xt, kt, bt):
            y = ad.relu(ad.conv2d(xt, kt, bt))
            return ad.mean_axis(ad.reshape(y, (2, h * w)), 1)

        report = ad.grad_check(fn, [x, k, b], seed=trial)
        assert report.max_rel_err < 1e-6


class TestTapeSemantics:
    def test_backward_is_deterministic(self):
        rng = np.random.default_rng(17)
        xv = rng.normal(size=(3, 4))
        wv = rng.normal(size=(4, 2))

        def run():
            x, w = ad.tensor(xv), ad.tensor(wv)
            with ad.Tape() as tape:
                out = ad.sigmoid(ad.matmul(x, w))
                loss = ad.sum_all(ad.mul(out, out))
            tape.backward(loss)
            return x.grad.copy(), w.grad.copy()

        gx1, gw1 = run()
        gx2, gw2 = run()
        assert np.array_equal(gx1, gx2)
        assert np.array_equal(gw1, gw2)

    def test_untouched_branch_gets_no_gradient(self):
        x = ad.tensor([1.0, 2.0])
        y = ad.tensor([3.0, 4.0])
        with ad.Tape() as tape:
            used = ad.sum_all(ad.mul(x, x))
            ad.sum_all(y)  # recorded but not part of the loss
            loss = used
        tape.backward(loss)
        assert x.grad is not None
        assert y.grad is None

    def test_nested_tape_rejected(self):
        with ad.Tape():
            with pytest.raises(RuntimeError):
                with ad.Tape():
                    pass

    def test_backward_needs_scalar(self):
        x = ad.tensor([1.0, 2.0])
        with ad.Tape() as tape:
            out = ad.mul(x, x)
        with pytest.raises(ArgumentError):
            tape.backward(out)

    def test_forward_values_always_finite(self):
        rng = np.random.default_rng(18)
        for _ in range(20):
            x = ad.tensor(rng.uniform(-10, 10, size=(2, 4, 4)))
            out = ad.sigmoid(
                ad.maxpool2d(
                    ad.conv2d(
                        x,
                        ad.tensor(rng.normal(size=(3, 2, 3, 3))),
                        ad.tensor(rng.normal(size=3)),
                    ),
                    2,
                    2,
                )
            )
            assert np.all(np.isfinite(out.values))
