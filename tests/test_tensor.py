"""Autodiff engine: forward values, analytic gradients, tape behavior."""

import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import smearssl.tensor as T
from oracles import (grad_check, reference_attention, reference_gelu, reference_layernorm,
                     reference_softmax, traced_memory)
from smearssl.objective import softmax_np


def t64(arr, grad=True):
    return T.Tensor(np.asarray(arr, dtype=np.float64), requires_grad=grad)


class TestForwardValues:
    def test_matmul_2x2(self):
        a = t64([[1.0, 2.0], [3.0, 4.0]])
        b = t64([[5.0, 6.0], [7.0, 8.0]])
        out = T.matmul(a, b)
        np.testing.assert_allclose(out.data, [[19.0, 22.0], [43.0, 50.0]])

    def test_layernorm_three_values(self):
        x = t64([[1.0, 2.0, 3.0]])
        gain = t64(np.ones(3))
        bias = t64(np.zeros(3))
        out = T.layernorm(x, gain, bias)
        np.testing.assert_allclose(
            out.data[0], [-1.22474487, 0.0, 1.22474487], atol=1e-6)

    def test_softmax_rows_sum_to_one(self, rng):
        x = t64(rng.normal(size=(4, 7)))
        out = reference_softmax(x)
        np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(4), atol=1e-12)

    def test_softmax_shift_invariance(self, rng):
        x = rng.normal(size=(3, 5))
        a = reference_softmax(t64(x)).data
        b = reference_softmax(t64(x + 17.3)).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_log_softmax_matches_log_of_softmax(self, rng):
        x = rng.normal(size=(3, 6))
        direct = T.log_softmax(t64(x)).data
        composed = np.log(softmax_np(x))
        np.testing.assert_allclose(direct, composed, atol=1e-10)

    def test_l2_normalize_unit_rows(self):
        out = T.l2_normalize(t64([[3.0, 4.0]]))
        np.testing.assert_allclose(out.data[0], [0.6, 0.8], atol=1e-12)

    def test_gelu_fixpoints(self):
        out = T.gelu(t64([0.0, 100.0, -100.0]))
        assert out.data[0] == 0.0
        np.testing.assert_allclose(out.data[1], 100.0, atol=1e-6)
        np.testing.assert_allclose(out.data[2], 0.0, atol=1e-6)

    def test_gelu_float32_matches_float64(self):
        x32 = np.linspace(-8.0, 8.0, 4001).astype(np.float32)
        results = []
        for x in (x32.astype(np.float64), x32):
            xt = T.Tensor(x, requires_grad=True)
            with T.Tape() as tape:
                y = T.gelu(xt)
                tape.backward(y)
            assert y.data.dtype == x.dtype and xt.grad.dtype == x.dtype
            results.append((y.data, xt.grad))
        (want_y, want_g), (got_y, got_g) = results
        np.testing.assert_allclose(got_y, want_y, rtol=0, atol=1e-6)
        np.testing.assert_allclose(got_g, want_g, rtol=0, atol=1e-6)
        fix = T.gelu(T.Tensor(np.array([0.0, 100.0, -100.0], dtype=np.float32))).data
        assert fix.dtype == np.float32
        assert fix[0] == 0.0 and fix[1] == 100.0 and fix[2] == 0.0

    def test_concat_narrow_roundtrip(self, rng):
        a = rng.normal(size=(2, 3))
        b = rng.normal(size=(4, 3))
        cat = T.concat([t64(a), t64(b)], axis=0)
        back = T.narrow(cat, 0, 2, 4)
        np.testing.assert_array_equal(back.data, b)

    def test_gather_rows(self):
        x = t64([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        out = T.gather_rows(x, np.array([2, 0]))
        np.testing.assert_array_equal(out.data, [[5.0, 6.0], [1.0, 2.0]])


class TestGradients:
    """Spot checks per primitive; the exhaustive sweep lives in the
    acceptance suite."""

    def test_matmul_grad(self, rng):
        a = t64(rng.normal(size=(3, 4)))
        b = t64(rng.normal(size=(4, 5)))
        err = grad_check(lambda ts: T.tensor_sum(T.mul(T.matmul(ts[0], ts[1]),
                                                       T.matmul(ts[0], ts[1]))),
                         [a, b])
        assert err < 1e-6

    def test_broadcast_add_grad(self, rng):
        a = t64(rng.normal(size=(4, 3)))
        b = t64(rng.normal(size=(3,)))
        err = grad_check(lambda ts: T.tensor_sum(T.gelu(T.add(ts[0], ts[1]))),
                         [a, b])
        assert err < 1e-6

    def test_layernorm_grad_all_inputs(self, rng):
        x = t64(rng.normal(size=(2, 6)))
        g = t64(rng.uniform(0.5, 1.5, size=6))
        b = t64(rng.normal(size=6) * 0.1)
        err = grad_check(
            lambda ts: T.tensor_sum(T.mul(T.layernorm(ts[0], ts[1], ts[2]),
                                          T.layernorm(ts[0], ts[1], ts[2]))),
            [x, g, b])
        assert err < 1e-5

    def test_softmax_grad(self, rng):
        x = t64(rng.normal(size=(2, 5)))
        w = rng.normal(size=(2, 5))
        err = grad_check(
            lambda ts: T.tensor_sum(T.mul(reference_softmax(ts[0]), T.Tensor(w))), [x])
        assert err < 1e-5

    def test_log_softmax_grad(self, rng):
        x = t64(rng.normal(size=(3, 4)))
        w = rng.normal(size=(3, 4))
        err = grad_check(
            lambda ts: T.tensor_sum(T.mul(T.log_softmax(ts[0]), T.Tensor(w))),
            [x])
        assert err < 1e-5

    def test_l2_normalize_grad(self, rng):
        x = t64(rng.normal(size=(3, 4)) + 0.5)
        w = rng.normal(size=(3, 4))
        err = grad_check(
            lambda ts: T.tensor_sum(T.mul(T.l2_normalize(ts[0]), T.Tensor(w))),
            [x])
        assert err < 1e-5

    def test_shared_subexpression_accumulates(self):
        # y = x*x + x: dy/dx = 2x + 1; the same tensor feeds two records.
        x = t64([3.0])
        with T.Tape() as tape:
            y = T.tensor_sum(T.add(T.mul(x, x), x))
            tape.backward(y)
        np.testing.assert_allclose(x.grad, [7.0], atol=1e-12)

    def test_same_tensor_twice_in_add(self, rng):
        x = t64(rng.normal(size=(3, 4)))
        g = rng.normal(size=(3, 4))
        with T.Tape() as tape:
            y = T.add(x, x)
            y.grad = g.copy()
            tape.backward(y)
        np.testing.assert_array_equal(x.grad, 2.0 * g)
        np.testing.assert_array_equal(y.grad, g)

    def test_first_gradient_is_a_copy_in_tensor_dtype(self):
        x = T.Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
        g = np.array([1.0, 2.0, 3.0])
        x.cell.accumulate(g)
        g[:] = 7.0
        assert x.grad.dtype == np.float32
        np.testing.assert_array_equal(x.grad, [1.0, 2.0, 3.0])

    def test_owned_first_gradient_is_kept_unless_it_needs_a_cast(self):
        x = T.Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
        g = np.array([1.0, 2.0, 3.0], dtype=np.float32)
        x.cell.accumulate(g, owned=True)
        assert x.grad is g
        x.cell.accumulate(g.copy(), owned=True)
        np.testing.assert_array_equal(x.grad, [2.0, 4.0, 6.0])
        y = T.Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
        y.cell.accumulate(np.array([1.0, 2.0, 3.0]), owned=True)
        assert y.grad.dtype == np.float32

    @pytest.mark.parametrize("other_path", [False, True])
    def test_narrow_slices_covering_axis_give_full_grad(self, rng, other_path):
        # three slices covering one axis, as the per-view split does; with
        # other_path, a gradient reaches the input before the slices' do
        x = t64(rng.normal(size=(3, 2, 4)))
        w = rng.normal(size=(3, 2, 4))
        with T.Tape() as tape:
            terms = [T.tensor_sum(T.mul(T.narrow(x, 0, i, 1), T.Tensor(w[i:i + 1])))
                     for i in range(3)]
            if other_path:
                terms.append(T.tensor_sum(x))
            y = terms[0]
            for term in terms[1:]:
                y = T.add(y, term)
            tape.backward(y)
        np.testing.assert_array_equal(x.grad, w + 1.0 if other_path else w)

    def test_grad_none_without_tape(self):
        x = t64([1.0, 2.0])
        out = T.gelu(x)
        assert out.grad is None and x.grad is None

    def test_no_grad_into_constants(self, rng):
        x = t64(rng.normal(size=(2, 2)))
        c = T.Tensor(rng.normal(size=(2, 2)))  # requires_grad=False
        with T.Tape() as tape:
            y = T.tensor_sum(T.mul(x, c))
            tape.backward(y)
        assert x.grad is not None
        assert c.grad is None


def _forward_backward(fn, inputs, upstream):
    """Runs ``fn(inputs)`` on a tape seeded with ``upstream``; returns the
    output values and every input's gradient."""
    for t in inputs:
        t.grad = None
    with T.Tape() as tape:
        out = fn(inputs)
        out.grad = upstream
        tape.backward(out)
    return [out.data] + [t.grad for t in inputs]


def _attention_inputs(rng, dtype, d, heads, b=2, t=5):
    shapes = [(b, t, d), (d, 3 * d), (3 * d,), (d, d), (d,)]
    return [T.Tensor(rng.normal(0.0, 0.5, size=s).astype(dtype), requires_grad=True)
            for s in shapes]


class TestFusedOps:
    """``linear``, ``attention`` and ``gelu`` are fused, in-place forms of
    compositions of the generic primitives; they must give the same bits."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("d,heads", [(16, 1), (16, 2), (16, 4), (48, 4)])
    def test_attention_block_matches_reference_bitwise(self, rng, dtype, d, heads):
        # (48, 4): head width 12, so 1/sqrt(dh) is no power of two and its
        # cast to the tensor dtype decides the bits
        inputs = _attention_inputs(rng, dtype, d, heads)
        upstream = rng.normal(size=(2, 5, d)).astype(dtype)

        def fused(ts):
            qkv = T.linear(ts[0], ts[1], ts[2])
            return T.linear(T.attention(qkv, heads), ts[3], ts[4])

        want = _forward_backward(lambda ts: reference_attention(*ts, heads),
                                 inputs, upstream.copy())
        got = _forward_backward(fused, inputs, upstream.copy())
        for w, g in zip(want, got):
            assert g.dtype == dtype and g.shape == w.shape
            assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("d,heads", [(16, 2), (48, 4)])
    @pytest.mark.parametrize("queries", [1, 3])
    def test_attention_with_fewer_queries_matches_reference_bitwise(
            self, rng, dtype, d, heads, queries):
        # q from the first tokens only, k and v from all five; the q
        # gradient of the other tokens is exactly 0
        inputs = _attention_inputs(rng, dtype, d, heads)
        upstream = rng.normal(size=(2, queries, d)).astype(dtype)

        def fused(ts):
            qkv = T.linear(ts[0], ts[1], ts[2])
            return T.linear(T.attention(qkv, heads, queries), ts[3], ts[4])

        want = _forward_backward(lambda ts: reference_attention(*ts, heads, queries),
                                 inputs, upstream.copy())
        got = _forward_backward(fused, inputs, upstream.copy())
        for w, g in zip(want, got):
            assert g.dtype == dtype and g.shape == w.shape
            assert g.tobytes() == w.tobytes()
        qkv = T.Tensor(rng.normal(size=(2, 5, 3 * d)).astype(dtype), requires_grad=True)
        _forward_backward(lambda ts: T.attention(ts[0], heads, queries), [qkv],
                          upstream.copy())
        assert not qkv.grad[:, queries:, :d].any()
        assert qkv.grad[:, :, d:].all()

    @pytest.mark.parametrize("queries", [0, 6])
    def test_attention_rejects_queries_outside_tokens(self, queries):
        with pytest.raises(T.DimensionError, match="queries"):
            T.attention(T.Tensor(np.zeros((1, 5, 12))), 2, queries)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("x_shape", [(6, 4), (2, 3, 4)])
    def test_linear_matches_matmul_plus_bias_bitwise(self, rng, dtype, x_shape):
        inputs = [T.Tensor(rng.normal(size=s).astype(dtype), requires_grad=True)
                  for s in (x_shape, (4, 5), (5,))]
        upstream = rng.normal(size=x_shape[:-1] + (5,)).astype(dtype)
        want = _forward_backward(lambda ts: T.matmul(ts[0], ts[1]) + ts[2],
                                 inputs, upstream.copy())
        got = _forward_backward(lambda ts: T.linear(*ts), inputs, upstream.copy())
        for w, g in zip(want, got):
            assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gelu_matches_written_out_formula_bitwise(self, rng, dtype):
        x = np.concatenate([np.linspace(-9.0, 9.0, 2001),
                            rng.normal(0.0, 3.0, size=999)]).astype(dtype)
        upstream = rng.normal(size=x.shape).astype(dtype)
        want = reference_gelu(x, upstream)
        got = _forward_backward(lambda ts: T.gelu(ts[0]),
                                [T.Tensor(x, requires_grad=True)], upstream.copy())
        for w, g in zip(want, got):
            assert g.dtype == dtype and g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("strided", [False, True])
    def test_gelu_across_blocks_matches_written_out_formula_bitwise(
            self, rng, dtype, strided):
        # several whole blocks and a ragged last one; a strided input is
        # read through a contiguous copy
        n = 3 * T._BLOCK + 1234
        wide = rng.normal(0.0, 3.0, size=(n, 2 if strided else 1)).astype(dtype)
        x = wide[:, 0] if strided else wide.reshape(n)
        assert x.flags.c_contiguous is not strided
        upstream = rng.normal(size=n).astype(dtype)
        want = reference_gelu(x, upstream)
        got = _forward_backward(lambda ts: T.gelu(ts[0]),
                                [T.Tensor(x, requires_grad=True)], upstream.copy())
        for w, g in zip(want, got):
            assert g.dtype == dtype and g.tobytes() == w.tobytes()

    def test_gelu_record_keeps_only_its_output(self, rng):
        # the backward recomputes the tanh argument and 1 + tanh, so the
        # forward leaves one new array alive: its output
        x = T.Tensor(rng.normal(size=1 << 18).astype(np.float32), requires_grad=True)
        with T.Tape() as tape:
            out, kept, _ = traced_memory(lambda: T.gelu(x))
        assert len(tape) == 1 and out.data.nbytes == x.data.nbytes
        assert x.data.nbytes <= kept < 1.5 * x.data.nbytes

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_layernorm_matches_written_out_formula_bitwise(self, rng, dtype):
        # 7 x 333 = 2331 rows, a multiple of neither 8 nor 16; each
        # direction allocates two full-size arrays
        shape = (7, 333, 64)
        x = rng.normal(1.0, 2.0, size=shape).astype(dtype)
        gain = rng.uniform(0.5, 1.5, size=64).astype(dtype)
        bias = rng.normal(size=64).astype(dtype)
        upstream = rng.normal(size=shape).astype(dtype)
        want = reference_layernorm(x, gain, bias, upstream)
        inputs = [T.Tensor(a.copy(), requires_grad=True) for a in (x, gain, bias)]
        with T.Tape() as tape:
            out, _, fwd_peak = traced_memory(lambda: T.layernorm(*inputs))
            out.grad = upstream.copy()
            _, _, bwd_peak = traced_memory(lambda: tape.backward(out))
        got = [out.data] + [t.grad for t in inputs]
        for w, g in zip(want, got):
            assert g.dtype == dtype and g.shape == w.shape
            assert g.tobytes() == w.tobytes()
        assert fwd_peak < 2.5 * x.nbytes and bwd_peak < 2.5 * x.nbytes

    @pytest.mark.parametrize("op", ["gelu", "linear2d", "linear3d", "attention",
                                    "attention1"])
    def test_inputs_and_upstream_grad_stay_untouched(self, rng, op):
        # in-place work may touch only the buffers an op allocates itself
        if op == "gelu":
            shapes, fn = [(3, 7)], lambda ts: T.gelu(ts[0])
        elif op.startswith("attention"):
            queries = 1 if op == "attention1" else None
            shapes, fn = [(2, 5, 24)], lambda ts: T.attention(ts[0], 2, queries)
        else:
            x_shape = (6, 4) if op == "linear2d" else (2, 3, 4)
            shapes, fn = [x_shape, (4, 5), (5,)], lambda ts: T.linear(*ts)
        inputs = [T.Tensor(rng.normal(size=s).astype(np.float32), requires_grad=True)
                  for s in shapes]
        before = [t.data.copy() for t in inputs]
        upstream = rng.normal(size=fn(inputs).shape).astype(np.float32)
        kept = upstream.copy()
        _, *grads = _forward_backward(fn, inputs, upstream)
        assert upstream.tobytes() == kept.tobytes()
        for t, b, g in zip(inputs, before, grads):
            assert t.data.tobytes() == b.tobytes()
            assert not np.shares_memory(g, upstream) and not np.shares_memory(g, t.data)

    def test_attention_rejects_width_not_split_by_heads(self):
        with pytest.raises(T.DimensionError):
            T.attention(T.Tensor(np.zeros((1, 2, 12))), 3)

    def test_linear_rejects_mismatched_bias(self):
        with pytest.raises(T.DimensionError):
            T.linear(T.Tensor(np.zeros((2, 4))), T.Tensor(np.zeros((4, 5))),
                     T.Tensor(np.zeros(4)))


class TestTapeMechanics:
    def test_nested_tapes_are_rejected_or_isolated(self):
        # the active tape is a stack; inner tape should not leak records out
        x = t64([2.0])
        with T.Tape() as outer:
            y = T.mul(x, x)
            with T.Tape() as inner:
                z = T.mul(x, x)
                inner.backward(T.tensor_sum(z))
            inner_grad = x.grad.copy()
            x.grad = None
            outer.backward(T.tensor_sum(y))
        np.testing.assert_allclose(inner_grad, x.grad)

    def test_tape_records_only_ops_of_its_own_thread(self):
        x = t64([2.0])
        out = {}

        def on_other_thread():
            out["other"] = T.active_tape()
            out["y"] = T.mul(x, x)
            with T.Tape() as own:
                T.mul(x, x)
            out["own"] = len(own)

        with T.Tape() as tape:
            worker = threading.Thread(target=on_other_thread)
            worker.start()
            worker.join()
            assert T.active_tape() is tape
        assert len(tape) == 0
        assert out["other"] is None and out["y"].requires_grad is False
        assert out["own"] == 1

    def test_unreached_record_never_runs(self, rng):
        # the tape hands a closure its output's gradient, and skips a record
        # that no gradient reached; its input's grad stays None
        x, y = t64(rng.normal(size=3)), t64(rng.uniform(1.0, 2.0, size=3))
        calls = []
        with T.Tape() as tape:
            T._maybe_record(T.Tensor(x.data.copy()), (x,), lambda g: calls.append("unused"))
            used = T._maybe_record(T.Tensor(x.data.copy()), (x,), calls.append)
            T.log(y)
            tape.backward(T.tensor_sum(used))
        assert len(calls) == 1
        np.testing.assert_array_equal(calls[0], np.ones(3))
        assert x.grad is None and y.grad is None

    @pytest.mark.parametrize("op", [
        T.neg, lambda a: T.transpose(a, (2, 1, 0)), lambda a: T.reshape(a, (6, 12)),
        lambda a: T.narrow(a, 1, 0, 2), lambda a: T.gather_rows(a, [1, 0, 1]),
        T.tensor_sum, T.mean, T.log, T.sqrt, T.gelu, lambda a: T.attention(a, 2),
        T.log_softmax, T.l2_normalize,
    ])
    def test_one_input_op_on_constant_records_nothing(self, rng, op):
        x = t64(rng.uniform(0.5, 1.5, size=(2, 3, 12)), grad=False)
        with T.Tape() as tape:
            out = op(x)
        assert len(tape) == 0 and out.requires_grad is False

    def test_backward_frees_each_record_once_it_has_run(self, rng):
        # eight elementwise records over 1 MB; only x and the root are held,
        # so each intermediate and its gradient go as soon as their records
        # have run, and the backward never holds more than a few arrays
        x = T.Tensor(rng.normal(size=1 << 18).astype(np.float32), requires_grad=True)
        with T.Tape() as tape:
            h = x
            for i in range(8):
                h = T.neg(h) if i % 2 else T.mul(h, 1.5)
            root = T.tensor_sum(h)
            del h
        assert len(tape) == 9
        _, kept, peak = traced_memory(lambda: tape.backward(root))
        assert len(tape) == 0
        assert kept < 1.5 * x.data.nbytes  # x.grad alone
        assert peak < 4 * x.data.nbytes
        np.testing.assert_array_equal(x.grad, np.full(x.shape, 1.5**4, np.float32))

    def test_large_weight_gradient_waits_for_the_last_record(self, rng):
        # w [64, 64] holds more elements than x [2, 64] and g [2, 64] together,
        # so its product runs after the first record, once the tape is empty
        x = T.Tensor(rng.normal(size=(2, 64)).astype(np.float32), requires_grad=True)
        w, b = (T.Tensor(rng.normal(size=s).astype(np.float32), requires_grad=True)
                for s in ((64, 64), (64,)))
        upstream = rng.normal(size=(2, 64)).astype(np.float32)
        seen = []

        def first_record(g):
            seen.append((len(tape), w.grad))
            x.cell.accumulate(g)

        with T.Tape() as tape:
            h = T._maybe_record(T.Tensor(x.data.copy()), (x,), first_record)
            out = T.linear(h, w, b)
            out.grad = upstream.copy()
            tape.backward(out)
        assert seen == [(0, None)]
        assert w.grad.tobytes() == (h.data.T @ upstream).tobytes()
        assert x.grad.tobytes() == (upstream @ w.data.T).tobytes()

    def test_waiting_weight_gradient_reaches_the_op_that_computed_the_weight(self, rng):
        # w = reshape(p) is a record's output: its waiting product must be
        # added before that record runs, or p gets no gradient
        p = T.Tensor(rng.normal(size=64 * 64).astype(np.float32), requires_grad=True)
        x = T.Tensor(rng.normal(size=(2, 64)).astype(np.float32))
        b = T.Tensor(np.zeros(64, np.float32))
        upstream = rng.normal(size=(2, 64)).astype(np.float32)
        with T.Tape() as tape:
            out = T.linear(x, T.reshape(p, (64, 64)), b)
            out.grad = upstream.copy()
            tape.backward(out)
        assert p.grad.tobytes() == (x.data.T @ upstream).tobytes()

    @pytest.mark.parametrize("rows", [(2, 40, 3), (2, 3, 1)])
    def test_weight_shared_by_three_records_sums_in_recording_order(self, rng, rows):
        # w [32, 32]: a 40-row input takes its product at once, the others
        # wait; either way the three products add up in today's order, the
        # last record's first, and float32 addition is not associative
        w = T.Tensor(rng.normal(size=(32, 32)).astype(np.float32), requires_grad=True)
        b = T.Tensor(np.zeros(32, np.float32), requires_grad=True)
        xs = [T.Tensor(rng.normal(size=(r, 32)).astype(np.float32)) for r in rows]
        ups = [rng.normal(size=(r, 32)).astype(np.float32) for r in rows]
        with T.Tape() as tape:
            outs = [T.linear(x, w, b) for x in xs]
            root = T.tensor_sum(T.mul(outs[0], ups[0]))
            for out, up in zip(outs[1:], ups[1:]):
                root = T.add(root, T.tensor_sum(T.mul(out, up)))
            tape.backward(root)
        p1, p2, p3 = (x.data.T @ up for x, up in zip(xs, ups))
        want = p3.copy()
        want += p2
        want += p1
        assert w.grad.tobytes() == want.tobytes()
        assert ((p1 + p2) + p3).tobytes() != want.tobytes()

    @pytest.mark.parametrize("op", ["add", "sub", "neg", "reshape", "transpose", "concat",
                                    "narrow", "tensor_sum", "mean", "layernorm",
                                    "attention"])
    def test_output_no_backward_reads_is_freed_during_the_forward(self, rng, op):
        # a linear output whose one consumer reads no input data dies as
        # soon as the caller drops it, before backward; the gradients are
        # those of a run that holds it
        arrays = [rng.normal(size=s).astype(np.float32)
                  for s in ((2, 5, 8), (8, 24), (24,), (2, 5, 24), (24,), (24,))]
        consumers = {
            "add": lambda h, o, ga, bi: T.add(h, o),
            "sub": lambda h, o, ga, bi: T.sub(h, o),
            "neg": lambda h, o, ga, bi: T.neg(h),
            "reshape": lambda h, o, ga, bi: T.reshape(h, (10, 24)),
            "transpose": lambda h, o, ga, bi: T.transpose(h, (2, 0, 1)),
            "concat": lambda h, o, ga, bi: T.concat([h, o], axis=1),
            "narrow": lambda h, o, ga, bi: T.narrow(h, 1, 1, 3),
            "tensor_sum": lambda h, o, ga, bi: T.tensor_sum(h, axis=-1),
            "mean": lambda h, o, ga, bi: T.mean(h, axis=-1),
            "layernorm": lambda h, o, ga, bi: T.layernorm(h, ga, bi),
            "attention": lambda h, o, ga, bi: T.attention(h, 2),
        }

        def run(hold):
            x, w, b, other, gain, bias = (T.Tensor(a.copy(), requires_grad=True)
                                          for a in arrays)
            with T.Tape() as tape:
                h = T.linear(x, w, b)
                alive = weakref.ref(h.data)
                y = consumers[op](h, other, gain, bias)
                if not hold:
                    del h
                c = np.linspace(-1.0, 1.0, y.data.size, dtype=np.float32)
                root = T.tensor_sum(T.mul(y, c.reshape(y.shape)))
                del y
                freed = alive() is None
                tape.backward(root)
            return freed, [t.grad for t in (x, w, b, other, gain, bias)]

        freed, grads = run(hold=False)
        held, want = run(hold=True)
        assert freed and not held
        for g, wg in zip(grads, want):
            assert (g is None) == (wg is None)
            assert g is None or g.tobytes() == wg.tobytes()

    def test_backward_consumes_the_tape(self, rng):
        # a held tensor keeps its gradient; a second backward runs no record
        x = t64(rng.normal(size=3))
        with T.Tape() as tape:
            y = T.mul(x, x)
            root = T.tensor_sum(y)
            tape.backward(root)
            tape.backward(root)
        assert len(tape) == 0
        np.testing.assert_array_equal(y.grad, np.ones(3))
        np.testing.assert_array_equal(x.grad, 2.0 * x.data)

    def test_backward_on_nonscalar_seeds_ones(self, rng):
        x = t64(rng.normal(size=(2, 2)))
        with T.Tape() as tape:
            y = T.mul(x, x)
            tape.backward(y)
        np.testing.assert_allclose(x.grad, 2.0 * x.data, atol=1e-12)

    def test_check_finite_raises_on_nan(self):
        x = T.Tensor(np.array([np.nan, 1.0]))
        with pytest.raises(T.NumericError):
            x.check_finite("probe")

    def test_accumulate_grad_shape_mismatch(self):
        x = t64(np.zeros((2, 3)))
        with pytest.raises(T.DimensionError):
            x.cell.accumulate(np.zeros((3, 2)))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-30, 30), min_size=2, max_size=8))
def test_softmax_is_distribution(vals):
    out = reference_softmax(T.Tensor(np.array([vals], dtype=np.float64))).data
    assert np.all(out >= 0)
    assert abs(out.sum() - 1.0) < 1e-9


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 2 ** 31 - 1))
def test_transpose_involution(rows, cols, seed):
    g = np.random.Generator(np.random.PCG64(seed))
    x = T.Tensor(g.normal(size=(rows, cols)))
    back = T.transpose(T.transpose(x, (1, 0)), (1, 0))
    np.testing.assert_array_equal(back.data, x.data)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 6), st.integers(0, 2 ** 31 - 1))
def test_reshape_preserves_sum(n, seed):
    g = np.random.Generator(np.random.PCG64(seed))
    x = T.Tensor(g.normal(size=(n, 4)))
    flat = T.reshape(x, (n * 4,))
    assert abs(float(T.tensor_sum(flat).item())
               - float(T.tensor_sum(x).item())) < 1e-9
