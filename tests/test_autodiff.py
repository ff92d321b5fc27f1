import numpy as np
import numpy.testing as npt
import pytest

from pctl import autodiff
from pctl.autodiff import (
    Tensor,
    absolute,
    clamp,
    batch_norm,
    concat,
    conv3d,
    cumprod,
    exp,
    fresh_tape,
    log,
    matmul,
    no_grad,
    power,
    reduce_mean,
    reduce_sum,
    relu,
    reshape,
    sigmoid,
    softplus,
    transpose,
)
from pctl.errors import ContractError, DimensionError, DomainError
from pctl.gradcheck import fd_check


class TestMatmul:
    def test_identity(self):
        a = Tensor(np.eye(2))
        b = Tensor([[1.0, 2.0], [3.0, 4.0]])
        npt.assert_array_equal(matmul(a, b).data, b.data)

    def test_selector_row(self):
        out = matmul(Tensor([[1.0, 0.0]]), Tensor([[5.0], [7.0]]))
        npt.assert_array_equal(out.data, [[5.0]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 2\)"):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        a = Tensor(rng.standard_normal((3, 4)))
        b = Tensor(rng.standard_normal((4, 2)))
        assert fd_check(lambda: reduce_sum(matmul(a, b) * Tensor(rng_fixed(7, (3, 2)))),
                        [a, b]) < 1e-6


def rng_fixed(seed, shape):
    return np.random.default_rng(seed).standard_normal(shape)


class TestElementwise:
    def test_add(self):
        npt.assert_array_equal((Tensor([1.0, 2.0]) + Tensor([3.0, 4.0])).data, [4.0, 6.0])

    def test_pow_scalar(self):
        npt.assert_allclose(power(Tensor([4.0]), 0.5).data, [2.0])

    def test_mul_gradient(self):
        rng = np.random.default_rng(11)
        a = Tensor(rng.standard_normal((2, 3)))
        b = Tensor(rng.standard_normal((2, 3)))
        assert fd_check(lambda: reduce_sum(a * b), [a, b]) < 1e-6

    def test_div_by_zero_rejected(self):
        with pytest.raises(DomainError):
            Tensor([1.0]) / Tensor([0.0])

    def test_log_of_nonpositive_rejected(self):
        with pytest.raises(DomainError):
            log(Tensor([1.0, 0.0]))

    def test_broadcast_row_gradient(self):
        rng = np.random.default_rng(3)
        a = Tensor(rng.standard_normal((4, 3)))
        row = Tensor(rng.standard_normal((1, 3)))
        assert fd_check(lambda: reduce_sum(a * row + row), [a, row]) < 1e-6

    def test_tensor_exponent_gradient(self):
        rng = np.random.default_rng(5)
        base = Tensor(rng.uniform(0.2, 0.9, (3, 4)))
        expo = Tensor(rng.uniform(0.5, 2.0, (1, 4)))
        assert fd_check(lambda: reduce_sum(power(base, expo)), [base, expo]) < 1e-6

    def test_abs_and_clamp_gradients(self):
        a = Tensor(np.array([-2.0, -0.5, 0.7, 3.0]))
        assert fd_check(lambda: reduce_sum(absolute(a) * a), [a]) < 1e-6
        b = Tensor(np.array([-2.0, 0.3, 0.9, 4.0]))
        assert fd_check(lambda: reduce_sum(clamp(b, 0.0, 1.0) * b), [b]) < 1e-6


class TestSigmoidSoftplus:
    def test_sigmoid_at_zero(self):
        assert sigmoid(Tensor([0.0])).item() == 0.5

    def test_sigmoid_saturation(self):
        assert abs(sigmoid(Tensor([50.0])).item() - 1.0) < 1e-15

    @pytest.mark.parametrize("x", [-2.0, 0.0, 3.0])
    def test_sigmoid_gradient(self, x):
        t = Tensor([x])
        assert fd_check(lambda: reduce_sum(sigmoid(t)), [t]) < 1e-6

    def test_softplus_at_zero(self):
        npt.assert_allclose(softplus(Tensor([0.0])).item(), np.log(2.0), rtol=1e-12)

    def test_softplus_large_input_is_stable(self):
        assert abs(softplus(Tensor([100.0])).item() - 100.0) < 1e-12

    def test_softplus_gradient_is_sigmoid(self):
        t = Tensor([1.5], requires_grad=True)
        with fresh_tape():
            reduce_sum(softplus(t)).backward()
        expected = 1.0 / (1.0 + np.exp(-1.5))
        assert abs(t.grad[0] - expected) < 1e-8


class TestConv3d:
    def test_counting_case(self):
        x = Tensor(np.ones((1, 1, 3, 3, 3)))
        k = Tensor(np.ones((1, 1, 3, 3, 3)))
        out = conv3d(x, k)
        assert out.shape == (1, 1, 1, 1, 1)
        npt.assert_allclose(out.data.reshape(1, 1), [[27.0]])

    def test_zero_kernel(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((1, 2, 4, 5, 5)))
        k = Tensor(np.zeros((3, 2, 3, 3, 3)))
        npt.assert_array_equal(conv3d(x, k).data, 0.0)

    def test_kernel_larger_than_padded_input(self):
        with pytest.raises(DimensionError):
            conv3d(Tensor(np.ones((1, 1, 2, 2, 2))), Tensor(np.ones((1, 1, 3, 3, 3))))

    def test_four_d_input_rejected(self):
        with pytest.raises(DimensionError, match="5-D"):
            conv3d(Tensor(np.ones((1, 3, 3, 3))), Tensor(np.ones((1, 1, 3, 3, 3))))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(21)
        x = Tensor(rng.standard_normal((1, 2, 4, 5, 5)))
        k = Tensor(rng.standard_normal((3, 2, 3, 3, 3)))
        w = rng.standard_normal((1, 3, 4, 3, 3))

        def loss():
            return reduce_sum(conv3d(x, k, padding=(1, 0, 0)) * Tensor(w))

        assert fd_check(loss, [x, k]) < 1e-5

    def test_padded_batch(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.standard_normal((2, 2, 5, 6, 6)))
        k = Tensor(rng.standard_normal((3, 2, 3, 3, 3)))
        out = conv3d(x, k, padding=1)
        assert out.shape == (2, 3, 5, 6, 6)
        w = rng.standard_normal(out.shape)
        assert fd_check(lambda: reduce_sum(conv3d(x, k, padding=1) * Tensor(w)),
                        [x, k]) < 1e-5

    # The classifier's kernels: 3x5x5 and 3x1x1 with same padding, and 2x3x3,
    # whose same padding is asymmetric along depth (abundance_dim = 2).
    CLASSIFIER_KERNELS = [
        ((3, 5, 5), ((1, 1), (2, 2), (2, 2))),
        ((3, 1, 1), ((1, 1), (0, 0), (0, 0))),
        ((2, 3, 3), ((0, 1), (1, 1), (1, 1))),
    ]

    @pytest.mark.parametrize("kernel,padding", CLASSIFIER_KERNELS)
    def test_gradient_at_classifier_kernels(self, kernel, padding):
        rng = np.random.default_rng(5)
        x = Tensor(rng.standard_normal((2, 2, 4, 5, 5)))
        k = Tensor(rng.standard_normal((3, 2) + kernel))
        out = conv3d(x, k, padding=padding)
        assert out.shape == (2, 3, 4, 5, 5)
        w = rng.standard_normal(out.shape)
        assert fd_check(lambda: reduce_sum(conv3d(x, k, padding=padding) * Tensor(w)),
                        [x, k]) < 1e-5

    @pytest.mark.parametrize("kernel,padding", CLASSIFIER_KERNELS)
    def test_forward_matches_nested_loops(self, kernel, padding):
        rng = np.random.default_rng(6)
        self.check_against_loops(rng.standard_normal((2, 3, 4, 5, 5)),
                                 rng.standard_normal((2, 3) + kernel), padding, 6)

    @staticmethod
    def check_against_loops(x, k, padding, seed):
        """conv3d's forward and both gradients of sum(out * w) against nested
        loops over the output voxels, then against finite differences."""
        rng = np.random.default_rng(seed)
        kd, kh, kw = k.shape[2:]
        xp = np.pad(x, ((0, 0), (0, 0)) + padding)
        dims = [p - kk + 1 for p, kk in zip(xp.shape[2:], k.shape[2:])]
        w = rng.standard_normal((x.shape[0], k.shape[0], *dims))
        want, dxp, dk = np.zeros(w.shape), np.zeros(xp.shape), np.zeros(k.shape)
        for d, h, v in np.ndindex(*dims):
            window = xp[:, :, d:d + kd, h:h + kh, v:v + kw]
            want[:, :, d, h, v] = np.einsum("ncijl,ocijl->no", window, k)
            dk += np.einsum("ncijl,no->ocijl", window, w[:, :, d, h, v])
            dxp[:, :, d:d + kd, h:h + kh, v:v + kw] += np.einsum(
                "ocijl,no->ncijl", k, w[:, :, d, h, v])
        (dl, _), (hl, _), (wl, _) = padding
        D, H, W = x.shape[2:]
        xt, kt = Tensor(x, requires_grad=True), Tensor(k, requires_grad=True)
        with fresh_tape():
            out = conv3d(xt, kt, padding=padding)
            reduce_sum(out * Tensor(w)).backward()
        npt.assert_allclose(out.data, want, rtol=0, atol=1e-12)
        npt.assert_allclose(xt.grad, dxp[:, :, dl:dl + D, hl:hl + H, wl:wl + W],
                            rtol=0, atol=1e-12)
        npt.assert_allclose(kt.grad, dk, rtol=0, atol=1e-12)
        assert fd_check(lambda: reduce_sum(conv3d(xt, kt, padding=padding) * Tensor(w)),
                        [xt, kt]) < 1e-5

    # Column-tile budgets (values, rows) for a batch of 3 at kernel 3x5x5 over
    # a 4x5x5 volume of 3 channels, and the sample spans of the tiles of one
    # run (planes, rows). Planes 1:3 with row 2:3 read all 3x5 taps, 2*1*5
    # input columns (rows) * 3*5*3 values = 450 per sample; plane 0 with row
    # 0 reads D taps 1:3 and H taps 2:5, 5 rows * 2*3*3 values = 90.
    TILE_PLANS = {
        "uneven_batch_tiles": (900, 1, (1, 3, 2, 3), [(0, 2), (2, 3)]),
        "one_sample_per_tile_above_budget": (100, 1, (1, 3, 2, 3), [(0, 1), (1, 2), (2, 3)]),
        "one_plane_and_one_row": (100, 15, (0, 1, 0, 1), [(0, 3)]),
    }

    @pytest.mark.parametrize("plan", sorted(TILE_PLANS))
    def test_tiled_forward_and_gradient(self, plan, monkeypatch):
        """Every way the column tiles of a run can split (uneven batch tiles,
        one sample per tile above the budget, whole samples to reach the
        fewest rows) gives the nested-loop forward and gradients."""
        budget, rows, (d0, d1, h0, h1), spans = self.TILE_PLANS[plan]
        monkeypatch.setattr(autodiff, "TILE_ELEMENTS", budget)
        monkeypatch.setattr(autodiff, "TILE_ROWS", rows)
        calls, tiles = [], autodiff._tiles

        def recorded(*args):
            calls.append([])
            for index, taps, tile in tiles(*args):
                calls[-1].append((index, taps, tile.shape))
                yield index, taps, tile

        monkeypatch.setattr(autodiff, "_tiles", recorded)
        rng = np.random.default_rng(8)
        self.check_against_loops(rng.standard_normal((3, 3, 4, 5, 5)),
                                 rng.standard_normal((2, 3, 3, 5, 5)),
                                 ((1, 1), (2, 2), (2, 2)), 9)
        run = [(n.start, n.stop, shape) for (n, d, h), _, shape in calls[0]
               if (d.start, d.stop, h.start, h.stop) == (d0, d1, h0, h1)]
        assert [(n0, n1) for n0, n1, _ in run] == spans
        per_sample = (d1 - d0) * (h1 - h0) * 5
        assert [shape[0] for _, _, shape in run] == [(n1 - n0) * per_sample for n0, n1 in spans]

    def test_tiles_hold_only_the_in_range_taps(self, monkeypatch):
        """One forward copies N*W*c_in values per in-range (D tap, H tap) of
        each output plane and row, and none for the zero padding: at kernel
        3x5x5 on 6x5x5, 0.676 of what a D/H-padded input would give."""
        n, c, (D, H, W), (kd, kh, kw) = 2, 3, (6, 5, 5), (3, 5, 5)
        padding = ((1, 1), (2, 2), (2, 2))
        sizes, tiles = [], autodiff._tiles

        def counted(*args):
            for item in tiles(*args):
                sizes.append(item[-1].size)
                yield item

        monkeypatch.setattr(autodiff, "_tiles", counted)
        rng = np.random.default_rng(12)
        with no_grad():
            conv3d(Tensor(rng.standard_normal((n, c, D, H, W))),
                   Tensor(rng.standard_normal((4, c, kd, kh, kw))), padding=padding)
        taps_d = [sum(0 <= od + i - 1 < D for i in range(kd)) for od in range(D)]
        taps_h = [sum(0 <= oh + j - 2 < H for j in range(kh)) for oh in range(H)]
        in_range = n * W * c * sum(taps_d) * sum(taps_h)
        assert sum(sizes) == in_range
        assert in_range / (n * W * c * D * H * kd * kh) == pytest.approx(0.676, abs=5e-4)

    # W padding reaches the output only through the range of columns each
    # tap adds into: uneven either way, and wide enough that some taps miss
    # the input entirely. At kw = 1 the GEMM writes straight into the output.
    EDGE_CASES = {
        "w_padding_lo_below_hi": ((2, 2, 4, 5, 5), (3, 3, 3, ((1, 1), (1, 1), (0, 2)))),
        "w_padding_lo_above_hi": ((2, 2, 4, 5, 5), (3, 3, 3, ((1, 1), (1, 1), (2, 0)))),
        "taps_that_miss_the_input": ((2, 2, 3, 2, 1), (2, 2, 3, ((0, 1), (1, 0), (2, 0)))),
        "kw_1_direct": ((2, 2, 4, 5, 5), (3, 1, 1, ((1, 1), (0, 0), (0, 0)))),
    }

    @pytest.mark.parametrize("case", sorted(EDGE_CASES))
    @pytest.mark.parametrize("budget", [autodiff.TILE_ELEMENTS, 1])
    def test_padding_edges_forward_and_gradient(self, case, budget, monkeypatch):
        shape, (kd, kh, kw, padding) = self.EDGE_CASES[case]
        monkeypatch.setattr(autodiff, "TILE_ELEMENTS", budget)
        monkeypatch.setattr(autodiff, "TILE_ROWS", 1)
        rng = np.random.default_rng(10)
        self.check_against_loops(rng.standard_normal(shape),
                                 rng.standard_normal((3, shape[1], kd, kh, kw)), padding, 11)

    @pytest.mark.parametrize("padding", [3, -1, ((0, 0), (0, 0), (0, 3))])
    def test_padding_outside_zero_to_k_minus_one_rejected(self, padding):
        with pytest.raises(DimensionError, match="padding"):
            conv3d(Tensor(np.ones((1, 1, 4, 4, 4))), Tensor(np.ones((1, 1, 3, 3, 3))),
                   padding=padding)

    # the last dense block of the classifier (69 -> 30 channels) at patches
    # 3, 5 and 11, with its kernel and same padding
    LAST_BLOCKS = {
        "patch3": (3, (3, 3, 3), ((1, 1), (1, 1), (1, 1))),
        "patch5": (5, (3, 5, 5), ((1, 1), (2, 2), (2, 2))),
        "patch11": (11, (3, 7, 7), ((1, 1), (3, 3), (3, 3))),
    }

    @pytest.mark.parametrize("block", sorted(LAST_BLOCKS))
    def test_memory_stays_near_the_activations(self, block):
        """Forward and backward at the classifier's last dense block allocate
        no im2col matrix: the traced peak stays below 8 times input + output
        + kernel."""
        import tracemalloc

        patch, kernel, padding = self.LAST_BLOCKS[block]
        rng = np.random.default_rng(7)
        x = Tensor(rng.standard_normal((2, 69, 6, patch, patch)), requires_grad=True)
        k = Tensor(rng.standard_normal((30, 69) + kernel), requires_grad=True)
        tracemalloc.start()
        try:
            with fresh_tape():
                out = conv3d(x, k, padding=padding)
                reduce_sum(out * out).backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert x.grad.shape == x.shape and k.grad.shape == k.shape
        operands = x.data.nbytes + k.data.nbytes + out.data.nbytes
        assert peak < 8 * operands, (peak, operands)

    def test_channel_prefix_input_matches_a_contiguous_one(self):
        """An input whose channels are adjacent but not contiguous, a channel
        prefix of a channels-last buffer, gives the same output and gradients
        as its contiguous copy; output and input gradient keep the shape."""
        rng = np.random.default_rng(23)
        buf = rng.standard_normal((2, 4, 5, 5, 7)).transpose(0, 4, 1, 2, 3)
        k = rng.standard_normal((3, 4, 3, 3, 3))
        g = rng.standard_normal((2, 3, 4, 5, 5))
        grads = []
        for data in (buf[:, :4], np.ascontiguousarray(buf[:, :4])):
            x, kt = Tensor(data, requires_grad=True), Tensor(k.copy(), requires_grad=True)
            with fresh_tape():
                out = conv3d(x, kt, padding=1)
                reduce_sum(out * Tensor(g)).backward()
            grads.append((out.data, x.grad, kt.grad))
        for a, b in zip(*grads):
            assert a.shape == b.shape
            npt.assert_array_equal(a, b)


class TestReductions:
    def test_cumprod_exclusive_prefix(self):
        out = cumprod(Tensor([0.5, 0.5, 0.5]))
        npt.assert_array_equal(out.data, [1.0, 0.5, 0.25])

    def test_cumprod_exclusive_head_is_exactly_one(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            v = rng.standard_normal((4, 6))
            out = cumprod(Tensor(v))
            assert np.all(out.data[:, 0] == 1.0)

    def test_sum_axis(self):
        npt.assert_array_equal(
            reduce_sum(Tensor([[1.0, 2.0], [3.0, 4.0]]), axis=1).data, [3.0, 7.0])

    def test_mean_keepdims(self):
        out = reduce_mean(Tensor([[1.0, 3.0], [5.0, 7.0]]), axis=0, keepdims=True)
        npt.assert_array_equal(out.data, [[3.0, 5.0]])

    def test_cumprod_gradient_with_zero_entry(self):
        x = np.array([[0.3, 0.0, 0.8, 0.5], [0.2, 0.9, 0.0, 0.1]])
        w = np.random.default_rng(13).standard_normal(x.shape)
        t = Tensor(x.copy())
        assert fd_check(lambda: reduce_sum(cumprod(t) * Tensor(w)), [t]) < 1e-5

    def test_cumprod_matches_numpy(self):
        # along the last axis, numpy's inclusive products shifted by one place
        rng = np.random.default_rng(2)
        x = rng.uniform(0.1, 1.0, (2, 3, 5))
        out = cumprod(Tensor(x)).data
        assert np.all(out[..., 0] == 1.0)
        npt.assert_allclose(out[..., 1:], np.cumprod(x, axis=-1)[..., :-1])


class TestShapeOps:
    def test_reshape_transpose_concat_gradients(self):
        rng = np.random.default_rng(17)
        a = Tensor(rng.standard_normal((2, 3, 4)))
        b = Tensor(rng.standard_normal((2, 3, 4)))
        w = rng.standard_normal((2, 4, 6))

        def loss():
            joined = concat([a, b])
            moved = transpose(joined, (0, 2, 1))
            return reduce_sum(moved * Tensor(w))

        assert fd_check(loss, [a, b]) < 1e-6
        c = Tensor(rng.standard_normal((6, 4)))
        w2 = Tensor(w[0].reshape(2, 12))
        assert fd_check(lambda: reduce_sum(reshape(c, (2, 12)) * w2), [c]) < 1e-6

    def test_concat_without_out_joins_into_a_fresh_array(self):
        rng = np.random.default_rng(23)
        a = Tensor(rng.standard_normal((2, 1, 3)))
        b = Tensor(rng.standard_normal((2, 2, 3)))
        joined = concat([a, b])
        npt.assert_array_equal(joined.data, np.concatenate([a.data, b.data], axis=1))
        assert joined.data.flags.c_contiguous
        assert not np.shares_memory(joined.data, a.data)

    def test_concat_copies_only_what_is_not_in_place(self):
        rng = np.random.default_rng(19)
        buf = np.full((2, 3, 6), np.nan).transpose(0, 2, 1)  # [2, 6, 3], channels-last
        a = Tensor(rng.standard_normal((2, 2, 3)))
        head = concat([a], buf[:, :2])
        assert head.data.base is buf.base
        npt.assert_array_equal(buf[:, :2], a.data)
        buf[:, :2] += 1.0  # a piece found in place is not copied again
        b = Tensor(rng.standard_normal((2, 3, 3)))
        both = concat([head, b], buf[:, :5])
        npt.assert_array_equal(both.data, np.concatenate([a.data + 1.0, b.data], axis=1))
        assert np.isnan(buf[:, 5]).all()

    def test_concat_gradient_splits_by_channel(self):
        rng = np.random.default_rng(21)
        a = Tensor(rng.standard_normal((2, 2, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal((2, 1, 3)), requires_grad=True)
        w = rng.standard_normal((2, 3, 3))
        with fresh_tape():
            reduce_sum(concat([a, b], np.empty((2, 3, 3))) * Tensor(w)).backward()
        npt.assert_array_equal(a.grad, w[:, :2])
        npt.assert_array_equal(b.grad, w[:, 2:])

    @pytest.mark.parametrize("shapes, out", [
        ([(2, 2, 3), (2, 1, 4)], (2, 3, 3)),
        ([(2, 2, 3), (1, 1, 3)], (2, 3, 3)),
        ([(2, 2, 3)], (2, 3, 3)),
    ])
    def test_concat_rejects_pieces_that_do_not_fill_out(self, shapes, out):
        with pytest.raises(DimensionError, match="concat"):
            concat([Tensor(np.ones(s)) for s in shapes], np.empty(out))


class TestOverwrite:
    """relu and batch_norm reuse their input's memory only when asked to and
    when no node records the op."""

    def cases(self):
        rng = np.random.default_rng(29)
        x = rng.standard_normal((3, 2, 2, 2, 2))
        gamma, beta = Tensor(rng.uniform(0.5, 2.0, 2)), Tensor(rng.standard_normal(2))
        moments = (rng.standard_normal(2), rng.uniform(0.5, 2.0, 2))
        yield x, lambda t, **kw: relu(t, **kw)
        yield x, lambda t, **kw: batch_norm(t, gamma, beta, 1e-5, **kw)[0]
        yield x, lambda t, **kw: batch_norm(t, gamma, beta, 1e-5, moments, **kw)[0]

    def test_overwrite_without_recording_gives_the_same_values_in_place(self):
        for x, op in self.cases():
            expected = op(Tensor(x.copy())).data
            t = Tensor(x.copy())
            with no_grad():
                out = op(t, overwrite=True)
            assert out.data is t.data
            npt.assert_array_equal(out.data, expected)

    def test_overwrite_leaves_a_recorded_input_alone(self):
        for x, op in self.cases():
            t = Tensor(x.copy(), requires_grad=True)
            with fresh_tape():
                out = op(t, overwrite=True)
            assert out.node_id is not None
            npt.assert_array_equal(t.data, x)


class TestBackward:
    def test_sum_gives_ones(self):
        w = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        with fresh_tape():
            reduce_sum(w).backward()
        npt.assert_array_equal(w.grad, [1.0, 1.0, 1.0])

    def test_quadratic_gradient(self):
        w = Tensor([1.0, -2.0], requires_grad=True)
        with fresh_tape():
            reduce_sum(w * w).backward()
        npt.assert_array_equal(w.grad, [2.0, -4.0])

    def test_non_scalar_loss_rejected(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        with fresh_tape():
            out = w * w
            with pytest.raises(ContractError):
                out.backward()

    def test_loss_not_on_tape_rejected(self):
        w = Tensor([2.0], requires_grad=True)
        with fresh_tape():
            with no_grad():
                out = reduce_sum(w * w)
            with pytest.raises(ContractError):
                out.backward()

    def test_unreachable_leaf_keeps_no_grad(self):
        w = Tensor([1.0], requires_grad=True)
        u = Tensor([5.0], requires_grad=True)
        with fresh_tape():
            _side = u * u
            reduce_sum(w * w).backward()
        assert u.grad is None
        npt.assert_array_equal(w.grad, [2.0])

    def test_accumulation_matches_joint_backward(self):
        rng = np.random.default_rng(23)
        data = rng.standard_normal(5)
        w = Tensor(data.copy(), requires_grad=True)
        with fresh_tape():
            l1 = reduce_sum(w * w)
            l2 = reduce_sum(exp(w))
            (l1 + l2).backward()
        joint = w.grad.copy()

        w.zero_grad()
        with fresh_tape():
            reduce_sum(w * w).backward()
        with fresh_tape():
            reduce_sum(exp(w)).backward()
        npt.assert_allclose(w.grad, joint, atol=1e-12)

    def test_repeated_backward_is_bit_identical(self):
        rng = np.random.default_rng(31)
        data = rng.standard_normal((4, 3))

        def run():
            t = Tensor(data.copy(), requires_grad=True)
            with fresh_tape():
                loss = reduce_sum(sigmoid(matmul(t, transpose(t, (1, 0)))))
                loss.backward()
            return t.grad.copy()

        g1, g2 = run(), run()
        assert np.array_equal(g1, g2)

    def test_topological_tape_order(self):
        a = Tensor([1.0], requires_grad=True)
        with fresh_tape() as tape:
            b = a * a
            c = b + a
            _d = reduce_sum(c * b)
            for nid, node in enumerate(tape.nodes):
                for parent in node.parents:
                    assert parent.node_id is None or parent.node_id < nid


class TestNoGrad:
    def test_no_recording(self):
        w = Tensor([1.0], requires_grad=True)
        with fresh_tape() as tape:
            with no_grad():
                out = w * w
            assert out.node_id is None and not out.requires_grad
            assert len(tape.nodes) == 0


class TestRandomizedGradients:
    """Finite-difference agreement across a basket of ops on 10 seeds."""

    @pytest.mark.parametrize("seed", range(10))
    def test_mixed_expression(self, seed):
        rng = np.random.default_rng(100 + seed)
        a = Tensor(rng.uniform(0.2, 2.0, (3, 4)))
        b = Tensor(rng.standard_normal((4, 3)))

        def loss():
            z = matmul(a, b)
            z = sigmoid(z) + softplus(z) * 0.5
            z = z * relu(z) + exp(clamp(z, -2.0, 2.0))
            return reduce_mean(z) + reduce_sum(log(a)) * 0.1

        assert fd_check(loss, [a, b]) < 1e-4
