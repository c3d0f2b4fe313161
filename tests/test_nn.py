import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scesep import nn
from scesep.errors import NoForwardRecorded, ShapeMismatch
from scesep.seeding import rng_for

from oracles import (
    accum_copy_oracle,
    adam_step_oracle,
    affine_add_matmul_oracle,
    blstm_unrolled_oracle,
    log_sigmoid_two_pass_oracle,
    lstm_unrolled_oracle,
    sigmoid,
    softmax_reduce_oracle,
    tanh,
    unbroadcast_sum_oracle,
)


def grad_of(build, value):
    """Backward a scalar built from a Parameter and return its grad."""
    p = nn.Parameter(np.asarray(value, dtype=float), "p")
    p.zero_grad()
    out = build(p)
    out.backward()
    return p, out, p.grad


class TestElementwiseOps:
    def test_add_broadcast(self):
        a = nn.Parameter(np.zeros((2, 3)), "a")
        b = nn.Parameter(np.zeros(3), "b")
        a.zero_grad(), b.zero_grad()
        nn.tsum(nn.add(a, b)).backward()
        np.testing.assert_array_equal(a.grad, np.ones((2, 3)))
        np.testing.assert_array_equal(b.grad, np.full(3, 2.0))

    def test_mul_grad(self):
        _, _, g = grad_of(lambda p: nn.tsum(nn.mul(p, p)), [1.0, -2.0, 3.0])
        np.testing.assert_allclose(g, [2.0, -4.0, 6.0])

    def test_sub_grad(self):
        a = nn.Parameter(np.array([5.0]), "a")
        b = nn.Parameter(np.array([3.0]), "b")
        a.zero_grad(), b.zero_grad()
        nn.tsum(nn.sub(a, b)).backward()
        assert a.grad[0] == 1.0 and b.grad[0] == -1.0

    def test_sigmoid_value_and_grad(self):
        _, out, g = grad_of(lambda p: nn.tsum(sigmoid(p)), [0.0])
        assert out.data == pytest.approx(0.5)
        assert g[0] == pytest.approx(0.25)

    def test_tanh_grad(self):
        _, _, g = grad_of(lambda p: nn.tsum(tanh(p)), [0.7])
        assert g[0] == pytest.approx(1.0 - np.tanh(0.7) ** 2)

    def test_log_sigmoid_matches_log_of_sigmoid(self):
        x = np.linspace(-30, 30, 101)
        out = nn.log_sigmoid(nn.Tensor(x)).data
        with np.errstate(over="ignore"):
            ref = np.log(1.0 / (1.0 + np.exp(-x)))
        np.testing.assert_allclose(out, ref, atol=1e-12)

    def test_log_sigmoid_stable_extremes(self):
        out = nn.log_sigmoid(nn.Tensor(np.array([-1000.0, 1000.0]))).data
        assert np.all(np.isfinite(out))
        assert out[0] == pytest.approx(-1000.0)
        assert out[1] == pytest.approx(0.0, abs=1e-12)

    def test_log_sigmoid_backward_at_extremes_warns_nothing(self):
        p = nn.Tensor(np.array([800.0, -800.0]), requires_grad=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            nn.tsum(nn.log_sigmoid(p)).backward()
        np.testing.assert_array_equal(p.grad, [0.0, 1.0])

    def test_softmax_rows_sum_to_one(self):
        x = np.random.default_rng(0).standard_normal((4, 5))
        s = nn.softmax(nn.Tensor(x)).data
        np.testing.assert_allclose(s.sum(axis=-1), 1.0)

    def test_softmax_shift_invariant(self):
        x = np.random.default_rng(1).standard_normal((3, 4))
        a = nn.softmax(nn.Tensor(x)).data
        b = nn.softmax(nn.Tensor(x + 100.0)).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_softmax_grad_orthogonal_to_constant(self):
        # d softmax / dx applied to a constant upstream grad is zero
        p = nn.Parameter(np.array([0.3, -1.2, 2.0]), "p")
        p.zero_grad()
        nn.tsum(nn.softmax(p)).backward()
        np.testing.assert_allclose(p.grad, 0.0, atol=1e-12)


class TestShapeOps:
    def test_matmul_batched(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((4, 2, 3))
        b = rng.standard_normal((4, 3, 5))
        out = nn.matmul(nn.Tensor(a), nn.Tensor(b)).data
        np.testing.assert_allclose(out, a @ b)

    def test_matmul_grad(self):
        a = nn.Parameter(np.array([[1.0, 2.0]]), "a")
        b = nn.Parameter(np.array([[3.0], [4.0]]), "b")
        a.zero_grad(), b.zero_grad()
        nn.tsum(nn.matmul(a, b)).backward()
        np.testing.assert_allclose(a.grad, [[3.0, 4.0]])
        np.testing.assert_allclose(b.grad, [[1.0], [2.0]])

    def test_reshape_round_trip_grad(self):
        p = nn.Parameter(np.arange(6.0).reshape(2, 3), "p")
        p.zero_grad()
        nn.tsum(nn.mul(nn.reshape(p, (3, 2)), 2.0)).backward()
        np.testing.assert_array_equal(p.grad, np.full((2, 3), 2.0))

    def test_swap_last(self):
        x = np.random.default_rng(3).standard_normal((2, 3, 4))
        out = nn.swap_last(nn.Tensor(x)).data
        np.testing.assert_array_equal(out, np.swapaxes(x, -1, -2))

    def test_gather_rows_fan_in(self):
        table = nn.Parameter(np.zeros((4, 2)), "table")
        table.zero_grad()
        nn.tsum(nn.gather_rows(table, [1, 1, 3])).backward()
        np.testing.assert_array_equal(table.grad, [[0, 0], [2, 2], [0, 0], [1, 1]])

    def test_backward_without_graph(self):
        with pytest.raises(NoForwardRecorded):
            nn.Tensor(np.ones(3)).backward()


class TestTapeRelease:
    """backward drops interior node data; a backward holds what it reads."""

    def test_unread_operand_freed_read_operand_kept_until_tape_dropped(self):
        x = nn.Parameter(np.arange(3.0), "x")
        w = nn.Parameter(np.array([1.0, -2.0, 0.5]), "w")
        unread = nn.add(x, x)  # mul by a constant reads only the constant
        read = nn.add(x, x)  # mul by w reads it for w's gradient
        refs = [weakref.ref(unread.data), weakref.ref(read.data)]
        loss = nn.tsum(nn.add(nn.mul(unread, 2.0), nn.mul(read, w)))
        loss.backward()
        assert refs[0]() is None and refs[1]() is not None
        assert unread.data is None and read.data is None
        assert unread.shape == read.shape == (3,)
        assert float(loss.data) == 12.0 - 2.0  # the output keeps its value
        np.testing.assert_array_equal(x.data, [0.0, 1.0, 2.0])  # leaves keep their values
        np.testing.assert_array_equal(w.grad, 2.0 * x.data)
        np.testing.assert_array_equal(x.grad, 2.0 * (2.0 + w.data))
        del loss
        assert refs[1]() is None

    def test_tape_is_walked_once(self):
        x = nn.Tensor(np.ones(2), requires_grad=True)
        scaled = nn.mul(tanh(x), 2.0)
        loss = nn.tsum(scaled)
        loss.backward()
        for node in (loss, scaled):
            with pytest.raises(NoForwardRecorded, match="already walked"):
                node.backward()

    def test_op_on_constants_records_nothing(self):
        # No gradient flows through it, so it holds neither operands nor a
        # backward function, and there is no tape to walk.
        a, w, b = np.arange(6.0).reshape(2, 3), np.ones((3, 2)), np.ones(2)
        for out in (nn.mul(a, 2.0), nn.affine(a, w, b), nn.softmax(nn.Tensor(a))):
            assert not out.requires_grad
            assert out._parents == () and out._backward_fn is None
            with pytest.raises(NoForwardRecorded):
                out.backward()


class TestReductionOps:
    def test_tmean(self):
        _, out, g = grad_of(lambda p: nn.tmean(p), [2.0, 4.0, 6.0, 8.0])
        assert out.data == pytest.approx(5.0)
        np.testing.assert_allclose(g, 0.25)

    def test_diamond_graph_accumulates(self):
        # y = p*p + p : dy/dp = 2p + 1, reached through two paths
        _, _, g = grad_of(lambda p: nn.tsum(nn.add(nn.mul(p, p), p)), [3.0])
        assert g[0] == pytest.approx(7.0)


class TestMatchesReductionOracles:
    """The fast ops keep the reduction-based ops' arithmetic bit for bit."""

    @staticmethod
    def value_and_grad(op, x, weight):
        p = nn.Parameter(x, "p")
        p.zero_grad()
        out = op(p)
        value = out.data  # backward drops an interior node's data
        nn.tsum(nn.mul(out, weight)).backward()
        return value, p.grad

    @pytest.mark.parametrize("shape", [(1000, 2), (3, 7, 2), (5, 1, 2)])
    def test_softmax_two_way(self, shape):
        rng = rng_for(11, f"softmax-{shape}")
        x, weight = rng.standard_normal(shape) * 4.0, rng.standard_normal(shape)
        out, grad = self.value_and_grad(nn.softmax, x, weight)
        ref_out, ref_grad = self.value_and_grad(softmax_reduce_oracle, x, weight)
        np.testing.assert_array_equal(out, ref_out)
        np.testing.assert_array_equal(grad, ref_grad)

    def test_softmax_three_way_and_first_axis(self):
        rng = rng_for(12, "softmax-3")
        x, weight = rng.standard_normal((400, 3)) * 4.0, rng.standard_normal((400, 3))
        out, grad = self.value_and_grad(nn.softmax, x, weight)
        ref_out, ref_grad = self.value_and_grad(softmax_reduce_oracle, x, weight)
        np.testing.assert_allclose(out, ref_out, rtol=0, atol=1e-15)
        np.testing.assert_allclose(grad, ref_grad, rtol=0, atol=1e-15)
        first = nn.softmax(nn.Tensor(x.T), axis=0).data
        np.testing.assert_allclose(first, ref_out.T, rtol=0, atol=1e-15)

    def test_log_sigmoid(self):
        rng = rng_for(13, "log-sigmoid")
        x = np.concatenate([rng.standard_normal(500) * 20.0, [-700.0, -40.0, -0.0, 0.0, 40.0, 700.0]])
        weight = rng.standard_normal(x.shape)
        out, grad = self.value_and_grad(nn.log_sigmoid, x, weight)
        ref_out, ref_grad = self.value_and_grad(log_sigmoid_two_pass_oracle, x, weight)
        np.testing.assert_array_equal(out, ref_out)
        np.testing.assert_array_equal(grad, ref_grad)

    @pytest.mark.parametrize("g_shape,shape", [
        ((320, 2), (2,)), ((312, 2056), (2056,)), ((9, 1), (1,)), ((4, 6, 3), (3,)),
        ((4, 6, 3), (6, 3)), ((4, 6, 3), (1, 3)), ((4, 6, 3), ()), ((2, 9, 1), (9, 1)),
    ])
    def test_unbroadcast(self, g_shape, shape):
        g = rng_for(14, f"unbroadcast-{g_shape}").standard_normal(g_shape) * 100.0
        np.testing.assert_array_equal(nn._unbroadcast(g, shape), unbroadcast_sum_oracle(g, shape))
        gf = np.asfortranarray(g)
        np.testing.assert_array_equal(nn._unbroadcast(gf, shape), unbroadcast_sum_oracle(gf, shape))


class TestGradientOwnership:
    """A first gradient handed over without a copy must not alias another's."""

    # name -> (leaf shapes, graph); every leaf is a tensor that needs a gradient
    CASES = {
        "add-self": ([(3, 4)], lambda x: nn.tsum(nn.mul(nn.add(x, x), np.arange(12.0).reshape(3, 4)))),
        "mul-self": ([(3, 4)], lambda x: nn.tsum(nn.mul(x, x))),
        "sub-self": ([(3, 4)], lambda x: nn.tsum(tanh(nn.sub(x, nn.mul(x, 0.5))))),
        "two-consumers": ([(3, 4)], lambda x: nn.tsum(nn.add(
            nn.mul(nn.reshape(tanh(x), (4, 3)), 2.0),
            nn.reshape(nn.mul(tanh(x), tanh(x)), (4, 3)),
        ))),
        "shared-add-then-more": ([(3, 4), (3, 4)], lambda a, b: nn.add(
            nn.tsum(nn.mul(nn.add(a, b), 3.0)), nn.tsum(nn.mul(a, a)),
        )),
        # swap_last hands on a transposed view; kept as is, it would reach
        # the bias sum in Fortran order, which numpy adds pairwise.
        "transposed-view": ([(400, 3), (3,)], lambda x, b: nn.tsum(nn.mul(
            nn.swap_last(nn.add(x, b)), rng_for(17, "weights").standard_normal((3, 400)),
        ))),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_matches_copying_accum(self, case, monkeypatch):
        shapes, build = self.CASES[case]

        def grads():
            rng = rng_for(15, f"ownership-{case}")
            leaves = [nn.Tensor(rng.standard_normal(shape), requires_grad=True) for shape in shapes]
            build(*leaves).backward()
            return [leaf.grad for leaf in leaves]

        fast = grads()
        monkeypatch.setattr(nn.Tensor, "_accum", accum_copy_oracle)
        for g, ref in zip(fast, grads()):
            np.testing.assert_array_equal(g, ref)

    def test_add_copies_for_second_parent(self):
        # add hands g to both operands; a's later += (from a * a) must not
        # reach b, and the released interior gradient is not kept.
        rng = rng_for(16, "add-shared")
        a = nn.Tensor(rng.standard_normal(5), requires_grad=True)
        b = nn.Tensor(rng.standard_normal(5), requires_grad=True)
        s = nn.add(a, b)
        nn.add(nn.tsum(nn.mul(s, 3.0)), nn.tsum(nn.mul(a, a))).backward()
        np.testing.assert_array_equal(b.grad, np.full(5, 3.0))
        np.testing.assert_array_equal(a.grad, 3.0 + 2.0 * a.data)
        assert a.grad is not b.grad and not np.shares_memory(a.grad, b.grad)
        assert s.grad is None

    def test_int8_constant_kept_as_is(self):
        labels = np.array([[1, -1], [-1, 1]], dtype=np.int8)
        assert nn.Tensor(labels).data is labels
        assert nn.Tensor(labels, requires_grad=True).data.dtype == np.float64
        p = nn.Parameter(np.array([[0.5, -2.0], [3.0, 1e300]]), "p")
        p.zero_grad()
        out = nn.mul(p, labels)
        np.testing.assert_array_equal(out.data, p.data * labels.astype(np.float64))
        assert out.data.dtype == np.float64
        nn.tsum(out).backward()
        np.testing.assert_array_equal(p.grad, labels.astype(np.float64))
        assert p.grad.dtype == np.float64

    def test_constants_get_no_gradient(self):
        p = nn.Parameter(np.array([1.0, -2.0]), "p")
        p.zero_grad()
        labels, scale, target = (nn.Tensor(np.array(v)) for v in ([3.0, 5.0], [[2.0, 0.5]], [1.0]))
        nn.tsum(nn.sub(nn.matmul(scale, nn.mul(p, labels)), target)).backward()
        np.testing.assert_array_equal(p.grad, [6.0, 2.5])
        assert labels.grad is None and scale.grad is None and target.grad is None


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
@example(1136850433)  # the two-point estimate's rounding error was 1.8e-5 here
def test_random_expression_matches_finite_difference(seed):
    rng = np.random.default_rng(seed)
    p = nn.Parameter(rng.standard_normal((3, 4)), "p")
    w = nn.Parameter(rng.standard_normal((4, 2)), "w")

    def loss():
        h = tanh(nn.matmul(p, w))
        return nn.tsum(nn.mul(nn.softmax(h), sigmoid(h)))

    assert nn.finite_difference_check(loss, [p, w]) < 1e-5


def _same_both_directions(w, b):
    """The layer with its reversed-time LSTM set to the forward-time one."""
    w.data[:, 1] = w.data[:, 0]
    b.data[:, 1] = b.data[:, 0]
    return w, b


class TestLstm:
    def test_output_shape(self):
        rng = rng_for(0, "t")
        w, b = nn.init_blstm_params(3, 4, rng, "cell")
        x = nn.Tensor(rng.standard_normal((2, 5, 3)))
        assert nn.blstm_layer(x, w, b).shape == (2, 5, 8)

    def test_forget_bias_initialized_to_one(self):
        _, b = nn.init_blstm_params(3, 4, rng_for(0, "t"), "cell")
        assert b.shape == (4, 2, 4)
        np.testing.assert_array_equal(b.data[1], np.ones((2, 4)))
        np.testing.assert_array_equal(b.data[[0, 2, 3]], np.zeros((3, 2, 4)))

    def test_weights_are_consecutive_per_gate_draws(self):
        # w[k, d] is the (4d + k)-th (D + H, H) draw of the stream: direction
        # by direction, gate by gate in the order input, forget, output,
        # candidate, so the layout keeps one draw per gate.
        D, H = 3, 4
        w, _ = nn.init_blstm_params(D, H, rng_for(0, "t"), "cell")
        assert w.shape == (4, 2, D + H, H) and w.data.flags.c_contiguous
        rng = rng_for(0, "t")
        bound = 1.0 / np.sqrt(D + H)
        draws = [rng.uniform(-bound, bound, (D + H, H)) for _ in range(8)]
        for d in range(2):
            for k in range(4):
                np.testing.assert_array_equal(w.data[k, d], draws[4 * d + k], err_msg=f"gate {k}, direction {d}")

    def test_direction_is_time_reversal(self):
        rng = rng_for(1, "t")
        w, b = _same_both_directions(*nn.init_blstm_params(3, 4, rng, "cell"))
        x = rng.standard_normal((1, 6, 3))
        fwd_rev = nn.blstm_layer(nn.Tensor(x[:, ::-1]), w, b).data[:, ::-1, :4]
        bwd = nn.blstm_layer(nn.Tensor(x), w, b).data[..., 4:]
        np.testing.assert_allclose(bwd, fwd_rev, atol=1e-12)

    def test_causality(self):
        # forward features at time t must not depend on inputs after t, and
        # backward features not on inputs before t
        rng = rng_for(2, "t")
        w, b = nn.init_blstm_params(3, 4, rng, "cell")
        x = rng.standard_normal((1, 6, 3))
        late, early = x.copy(), x.copy()
        late[:, 4:] += 10.0
        early[:, :2] += 10.0
        a = nn.blstm_layer(nn.Tensor(x), w, b).data
        b_late = nn.blstm_layer(nn.Tensor(late), w, b).data
        c = nn.blstm_layer(nn.Tensor(early), w, b).data
        np.testing.assert_array_equal(a[:, :4, :4], b_late[:, :4, :4])
        assert np.abs(a[:, 4:, :4] - b_late[:, 4:, :4]).max() > 1e-6
        np.testing.assert_array_equal(a[:, 2:, 4:], c[:, 2:, 4:])
        assert np.abs(a[:, :2, 4:] - c[:, :2, 4:]).max() > 1e-6

    def test_blstm_concat(self):
        rng = rng_for(3, "t")
        w, b = nn.init_blstm_params(3, 4, rng, "cell")
        x = nn.Tensor(rng.standard_normal((2, 5, 3)))
        out = nn.blstm_layer(x, w, b)
        assert out.shape == (2, 5, 8)
        np.testing.assert_allclose(out.data[..., :4], lstm_unrolled_oracle(x, w, b, 0).data, atol=1e-12)
        np.testing.assert_allclose(out.data[..., 4:], lstm_unrolled_oracle(x, w, b, 1).data, atol=1e-12)

    def test_bad_rank(self):
        w, b = nn.init_blstm_params(2, 2, rng_for(5, "t"), "cell")
        with pytest.raises(ShapeMismatch):
            nn.blstm_layer(nn.Tensor(np.zeros((2, 2))), w, b)

    def test_input_width_mismatch(self):
        w, b = nn.init_blstm_params(3, 2, rng_for(5, "t"), "cell")
        with pytest.raises(ShapeMismatch):
            nn.blstm_layer(nn.Tensor(np.zeros((1, 2, 4))), w, b)

    # (B, T, D, H): D != H, a single step and a single clip (the last batch
    # of an epoch can hold one), and a larger batch
    @pytest.mark.parametrize("shape", [(2, 5, 3, 4), (1, 1, 3, 2), (1, 6, 9, 3), (4, 6, 9, 3)])
    def test_matches_unrolled_oracle(self, shape):
        # The fused layer keeps the tape's per-gate products and summation
        # order, so outputs and gradients equal the unrolled LSTM's exactly
        # and a trained model follows the same trajectory. Two layers, so the
        # upper layer's input gradient reaches the lower layer's weights.
        B, T, D, H = shape
        rng = rng_for(7, f"oracle-{shape}")
        lower = nn.init_blstm_params(D, H, rng, "blstm0")
        upper = nn.init_blstm_params(2 * H, H, rng, "blstm1")
        x = nn.Parameter(rng.standard_normal((B, T, D)), "x")
        weight = rng.standard_normal((B, T, 2 * H))
        params = [x, *lower, *upper]

        def run(layer):
            for p in params:
                p.zero_grad()
            out = layer(layer(x, *lower), *upper)
            value = out.data  # backward drops an interior node's data
            nn.tsum(nn.mul(out, weight)).backward()
            return value, [p.grad.copy() for p in params]

        out, grads = run(nn.blstm_layer)
        ref_out, ref_grads = run(blstm_unrolled_oracle)
        np.testing.assert_array_equal(out, ref_out)
        assert np.abs(ref_grads[0]).max() > 0
        for p, ref in zip(params[1:], ref_grads[1:]):
            for k in range(4):
                for d in range(2):
                    # with one step the forget gate only ever sees the zero initial cell
                    assert np.abs(ref[k, d]).max() > 0 or (T == 1 and k == 1), (p.name, k, d)
        for p, g, ref in zip(params, grads, ref_grads):
            np.testing.assert_array_equal(g, ref, err_msg=p.name)

    # (B, T, D, H): one clip, as denoise runs it; a batch; a single step
    @pytest.mark.parametrize("shape", [(1, 7, 5, 3), (4, 7, 5, 3), (1, 1, 5, 3), (4, 1, 5, 3)])
    def test_without_gradient_matches_gradient_path_byte_for_byte(self, shape):
        B, T, D, H = shape
        rng = rng_for(12, f"nograd-{shape}")
        w, b = nn.init_blstm_params(D, H, rng, "blstm0")
        x = rng.standard_normal((B, T, D))
        taped = nn.blstm_layer(nn.Tensor(x), w, b)
        bare = nn.blstm_layer(nn.Tensor(x), nn.Tensor(w.data), nn.Tensor(b.data))
        assert taped._backward_fn is not None
        assert not bare.requires_grad
        assert bare._parents == () and bare._backward_fn is None
        assert bare.data.tobytes() == taped.data.tobytes()

    def test_without_gradient_keeps_no_cache(self):
        # With a gradient, each step's [h | x_t], gates, c and tanh(c) are
        # kept; without one, the layer's memory grows with T only by the
        # hidden outputs and the returned array.
        rng = rng_for(13, "nograd-memory")
        w, b = nn.init_blstm_params(64, 8, rng, "blstm0")
        consts = nn.Tensor(w.data), nn.Tensor(b.data)

        def peak(T, params):
            x = nn.Tensor(rng.standard_normal((1, T, 64)))
            tracemalloc.start()
            try:
                out = nn.blstm_layer(x, *params)
                return tracemalloc.get_traced_memory()[1], out.data.nbytes
            finally:
                tracemalloc.stop()

        (taped_short, out_short), (taped_long, out_long) = peak(100, (w, b)), peak(800, (w, b))
        (bare_short, _), (bare_long, _) = peak(100, consts), peak(800, consts)
        grown = out_long - out_short
        assert taped_long - taped_short > 10 * grown
        assert bare_long - bare_short <= 2 * grown + 1024  # allocator rounding

    def test_tape_nodes_independent_of_length(self):
        rng = rng_for(8, "t")
        w, b = nn.init_blstm_params(3, 4, rng, "cell")

        def tape_nodes(T):
            out = nn.blstm_layer(nn.Tensor(rng.standard_normal((2, T, 3))), w, b)
            seen, stack = set(), [out]
            while stack:
                node = stack.pop()
                if id(node) not in seen:
                    seen.add(id(node))
                    stack.extend(node._parents)
            return len(seen)

        assert tape_nodes(1) == tape_nodes(3) == tape_nodes(40)


class TestAffine:
    @staticmethod
    def value_and_grads(op, data, weight, needs_grad=(True, True, True)):
        leaves = [nn.Tensor(d, requires_grad=r) for d, r in zip(data, needs_grad)]
        out = op(*leaves)
        value = out.data  # backward drops an interior node's data
        nn.tsum(nn.mul(out, weight)).backward()
        return value, [leaf.grad for leaf in leaves]

    # The embedding layer's (B*T, 2H) @ (2H, F*E) and the MI head's
    # (B*T*F, E) @ (E, M) at the default model and batch sizes.
    @pytest.mark.parametrize("x_shape,w_shape", [((312, 32), (32, 2056)), ((80184, 8), (8, 2))])
    def test_matches_add_of_matmul_bit_for_bit(self, x_shape, w_shape):
        rng = rng_for(20, f"affine-{x_shape}")
        data = [rng.standard_normal(s) for s in (x_shape, w_shape, w_shape[1:])]
        weight = rng.standard_normal((x_shape[0], w_shape[1]))
        out, grads = self.value_and_grads(nn.affine, data, weight)
        ref_out, ref_grads = self.value_and_grads(affine_add_matmul_oracle, data, weight)
        np.testing.assert_array_equal(out, ref_out)
        for g, ref in zip(grads, ref_grads, strict=True):
            assert g is not None
            np.testing.assert_array_equal(g, ref)

    def test_one_tape_node(self):
        x, w, b = (nn.Tensor(np.ones(s), requires_grad=True) for s in ((3, 2), (2, 4), (4,)))
        out = nn.affine(x, w, b)
        assert out._parents == (x, w, b)

    def test_constants_get_no_gradient(self):
        rng = rng_for(21, "affine-constants")
        data = [rng.standard_normal(s) for s in ((5, 3), (3, 2), (2,))]
        _, grads = self.value_and_grads(nn.affine, data, np.ones((5, 2)), (False, True, False))
        assert grads[0] is None and grads[2] is None
        np.testing.assert_array_equal(grads[1], data[0].T @ np.ones((5, 2)))


class TestAdam:
    def test_first_step_is_lr_sized(self):
        p = nn.Parameter(np.array([1.0]), "p")
        opt = nn.Adam([p], lr=0.1)
        p.zero_grad()
        p.grad[:] = 123.0
        opt.step()
        # bias-corrected first step is lr * g/|g| regardless of magnitude
        assert p.data[0] == pytest.approx(1.0 - 0.1, abs=1e-6)

    def test_converges_on_quadratic(self):
        p = nn.Parameter(np.array([5.0, -3.0]), "p")
        opt = nn.Adam([p], lr=0.2)
        for _ in range(200):
            p.zero_grad()
            p.grad[:] = 2.0 * p.data
            opt.step()
        assert np.abs(p.data).max() < 1e-3

    def test_matches_fresh_temporaries_bit_for_bit(self, monkeypatch):
        # Parameters of several shapes, gradients over twelve orders of
        # magnitude, and one step where a parameter has no gradient.
        shapes = [(32, 2056), (2056,), (4, 2, 48, 16), (3,)]

        def run():
            rng = rng_for(22, "adam")
            params = [nn.Parameter(rng.standard_normal(s), f"p{i}") for i, s in enumerate(shapes)]
            opt = nn.Adam(params, lr=0.01)
            for step in range(6):
                for p in params:
                    p.grad = rng.standard_normal(p.shape) * 10.0 ** rng.integers(-6, 6, p.shape)
                if step == 3:
                    params[2].grad = None
                opt.step()
            return [p.data for p in params] + opt.m + opt.v

        fast = run()
        monkeypatch.setattr(nn.Adam, "step", adam_step_oracle)
        for a, ref in zip(fast, run(), strict=True):
            np.testing.assert_array_equal(a, ref)

    def test_deterministic(self):
        def run():
            p = nn.Parameter(np.array([1.0, 2.0]), "p")
            opt = nn.Adam([p], lr=0.05)
            for i in range(10):
                p.zero_grad()
                p.grad[:] = np.sin(p.data + i)
                opt.step()
            return p.data.copy()

        np.testing.assert_array_equal(run(), run())


class TestClipGlobalNorm:
    def test_no_clip_below_threshold(self):
        p = nn.Parameter(np.zeros(3), "p")
        p.grad = np.array([1.0, 2.0, 2.0])
        total = nn.clip_global_norm([p], max_norm=5.0)
        assert total == pytest.approx(3.0)
        np.testing.assert_array_equal(p.grad, [1.0, 2.0, 2.0])

    def test_clips_to_max_norm(self):
        p = nn.Parameter(np.zeros(2), "p")
        p.grad = np.array([30.0, 40.0])
        nn.clip_global_norm([p], max_norm=5.0)
        assert np.linalg.norm(p.grad) == pytest.approx(5.0)
        # direction preserved
        assert p.grad[1] / p.grad[0] == pytest.approx(4.0 / 3.0)

    def test_joint_norm_across_params(self):
        a = nn.Parameter(np.zeros(1), "a")
        b = nn.Parameter(np.zeros(1), "b")
        a.grad, b.grad = np.array([3.0]), np.array([4.0])
        nn.clip_global_norm([a, b], max_norm=1.0)
        joint = np.sqrt(a.grad[0] ** 2 + b.grad[0] ** 2)
        assert joint == pytest.approx(1.0)


def test_finite_difference_detects_wrong_gradient():
    p = nn.Parameter(np.array([1.0, 2.0]), "p")

    def bad_loss():
        out = nn.tsum(nn.mul(p, p))
        orig = out._backward_fn

        out._backward_fn = lambda g: orig(g * 1.5)  # corrupt the gradient
        return out

    assert nn.finite_difference_check(bad_loss, [p]) > 0.1
