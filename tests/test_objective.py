"""Distillation objective: teacher target production, view-pair loss,
spread regularizer, head plumbing."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import smearssl.tensor as T
from oracles import finite_diff_grad, naive_sinkhorn, reference_dino_loss, rel_err
from smearssl.errors import ParameterError
from smearssl.objective import (
    CenteringState,
    SslConfig,
    dino_loss,
    ema_targets,
    head_forward,
    init_head_params,
    koleo_loss,
    marginal_deviation,
    mean_assignment_entropy,
    renormalize_prototypes,
    sinkhorn_targets,
    teacher_targets_multiview,
    total_loss,
)

SMALL = SslConfig(head_hidden=16, bottleneck=8, num_prototypes=8)


class TestSinkhorn:
    def test_equal_logits_exactly_uniform(self):
        for iters in (1, 3, 10):
            q = sinkhorn_targets(np.full((4, 8), 3.7), temp=0.5, iters=iters)
            np.testing.assert_array_equal(q, np.full((4, 8), 1.0 / 8))

    def test_two_by_two_near_identity(self):
        logits = np.array([[10.0, 0.0], [0.0, 10.0]])
        q = sinkhorn_targets(logits, temp=1.0, iters=3)
        np.testing.assert_allclose(q, np.eye(2), atol=1e-4)
        np.testing.assert_allclose(q.sum(axis=0), [1.0, 1.0], atol=1e-9)

    def test_matches_naive_oracle(self, rng):
        logits = rng.normal(size=(6, 5))
        for iters in (1, 2, 3, 7):
            q = sinkhorn_targets(logits, temp=0.7, iters=iters)
            np.testing.assert_allclose(q, naive_sinkhorn(logits, 0.7, iters),
                                       atol=1e-12)

    def test_shift_invariance(self, rng):
        logits = rng.normal(size=(5, 6))
        a = sinkhorn_targets(logits, 0.3, 3)
        b = sinkhorn_targets(logits + 11.25, 0.3, 3)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_rows_are_distributions(self, rng):
        q = sinkhorn_targets(rng.normal(size=(9, 13)) * 4.0, 0.1, 3)
        np.testing.assert_allclose(q.sum(axis=1), np.ones(9), atol=1e-6)
        assert np.all(q >= 0)

    def test_columns_converge_to_balanced(self, rng):
        b, k = 12, 6
        q = sinkhorn_targets(rng.normal(size=(b, k)), temp=1.0, iters=50)
        np.testing.assert_allclose(q.sum(axis=0), np.full(k, b / k), atol=1e-3)

    def test_large_logits_no_overflow(self):
        q = sinkhorn_targets(np.array([[900.0, -900.0], [880.0, -910.0]]), 1.0, 3)
        assert np.all(np.isfinite(q))

    def test_rejects_zero_iters(self):
        with pytest.raises(ParameterError):
            sinkhorn_targets(np.zeros((2, 2)), 1.0, 0)


class TestEmaCentering:
    def test_zero_center_equal_logits_uniform(self):
        p = ema_targets(np.full((3, 5), 2.0), np.zeros(5), temp=0.04)
        np.testing.assert_allclose(p, np.full((3, 5), 0.2), atol=1e-12)

    def test_two_prototype_example(self):
        p = ema_targets(np.array([[0.0, np.log(2.0)]]), np.zeros(2), temp=1.0)
        np.testing.assert_allclose(p[0], [1.0 / 3.0, 2.0 / 3.0], atol=1e-12)

    def test_center_update_is_convex(self):
        st8 = CenteringState.fresh(3)
        logits = np.array([[3.0, 0.0, -3.0], [1.0, 2.0, 3.0]])
        mu = logits.mean(axis=0)
        st8.update(logits, 0.9)
        assert st8.center.dtype == np.float32
        np.testing.assert_array_equal(st8.center, np.float32((1 - 0.9) * mu))
        # second update stays between old center and the new batch mean
        old = st8.center.copy()
        logits2 = np.array([[5.0, 5.0, 5.0], [-1.0, 0.0, 1.0]])
        mu2 = logits2.mean(axis=0)
        st8.update(logits2, 0.9)
        lo = np.minimum(old, mu2) - 1e-6
        hi = np.maximum(old, mu2) + 1e-6
        assert np.all(st8.center >= lo) and np.all(st8.center <= hi)

    def test_rows_are_distributions(self, rng):
        p = ema_targets(rng.normal(size=(7, 11)), rng.normal(size=11), 0.04)
        np.testing.assert_allclose(p.sum(axis=1), np.ones(7), atol=1e-9)
        assert np.all(p >= 0)

    def test_multiview_updates_center_once(self, rng):
        cfg = SslConfig(head_hidden=8, bottleneck=4, num_prototypes=4,
                        centering="ema")
        state = CenteringState.fresh(4)
        logits = rng.normal(size=(6, 4))
        out = teacher_targets_multiview(logits, cfg, state)
        assert out.shape == (6, 4)
        expected = (1 - cfg.center_momentum) * logits.mean(axis=0)
        np.testing.assert_array_equal(state.center, expected.astype(np.float32))
        # both views were produced with the pre-update (zero) center
        np.testing.assert_allclose(
            out[:3], ema_targets(logits[:3], np.zeros(4), cfg.teacher_temp))

    def test_sinkhorn_balances_each_view_on_its_own(self, rng):
        logits = rng.normal(size=(6, 4))
        out = teacher_targets_multiview(logits, SMALL, CenteringState.fresh(4))
        for half in (slice(0, 3), slice(3, 6)):
            np.testing.assert_array_equal(
                out[half], sinkhorn_targets(logits[half], SMALL.teacher_temp,
                                            SMALL.sinkhorn_iters))


class TestViewRows:
    # logits and targets hold two views of a batch of >= 2 images, [2B, K];
    # other row counts are refused before the ema center moves
    @pytest.mark.parametrize("centering", ["ema", "sinkhorn", "none"])
    @pytest.mark.parametrize("rows", [2, 3, 5])
    def test_teacher_targets_refuse_bad_rows(self, rng, centering, rows):
        cfg = SslConfig(head_hidden=16, bottleneck=8, num_prototypes=8,
                        centering=centering)
        state = CenteringState(rng.normal(size=8).astype(np.float32))
        before = state.center.copy()
        with pytest.raises(ParameterError, match="rows"):
            teacher_targets_multiview(rng.normal(size=(rows, 8)), cfg, state)
        assert state.center.tobytes() == before.tobytes()

    @pytest.mark.parametrize("rows", [2, 3, 5])
    def test_dino_loss_refuses_bad_rows(self, rng, rows):
        logits = T.Tensor(rng.normal(size=(rows, 8)), requires_grad=True)
        targets = np.full((rows, 8), 1 / 8)
        with pytest.raises(ParameterError, match="rows"):
            dino_loss(logits, targets, SMALL.student_temp)


def _per_view(t: T.Tensor, b: int) -> list[T.Tensor]:
    return [T.narrow(t, 0, 0, b), T.narrow(t, 0, b, b)]


def _loss_and_grads(fn, logits: np.ndarray, z: np.ndarray):
    """fn(logits, z) on fresh leaves; the loss and both gradients."""
    lg = T.Tensor(logits.copy(), requires_grad=True)
    zt = T.Tensor(z.copy(), requires_grad=True)
    with T.Tape() as tape:
        loss = fn(lg, zt)
        tape.backward(loss)
    return loss.data, lg.grad, zt.grad


def _assert_same_bits(got, want):
    for g, w in zip(got, want):
        assert (g is None) == (w is None)
        if g is not None:
            assert g.dtype == w.dtype and g.shape == w.shape
            assert g.tobytes() == w.tobytes()


class TestDinoLoss:
    def test_uniform_student_one_hot_teacher_ln4(self):
        b, k = 3, 4
        onehot = np.zeros((b, k))
        onehot[np.arange(b), [0, 2, 1]] = 1.0
        logits = T.Tensor(np.zeros((2 * b, k)))
        loss = dino_loss(logits, np.concatenate([onehot, onehot]), student_temp=0.1)
        np.testing.assert_allclose(loss.item(), np.log(4.0), atol=1e-9)

    def test_matched_distributions_give_entropy(self):
        p = np.tile([0.2, 0.3, 0.5], (4, 1))  # two views of two images
        temp = 0.1
        loss = dino_loss(T.Tensor(temp * np.log(p)), p, student_temp=temp)
        entropy = -(p[0] * np.log(p[0])).sum()
        np.testing.assert_allclose(loss.item(), entropy, atol=1e-9)

    def test_two_views_average_two_ordered_pairs(self, rng):
        b, k = 2, 5
        s = T.Tensor(rng.normal(size=(2 * b, k)))
        t = np.concatenate([sinkhorn_targets(rng.normal(size=(b, k)), 1.0, 3)
                            for _ in range(2)])
        loss = dino_loss(s, t, student_temp=0.2)

        def ce(tgt, slog):
            lp = np.log(np.exp(slog / 0.2)
                        / np.exp(slog / 0.2).sum(axis=1, keepdims=True))
            return float(-(tgt * lp).sum(axis=1).mean())

        want = 0.5 * (ce(t[:b], s.data[b:]) + ce(t[b:], s.data[:b]))
        np.testing.assert_allclose(loss.item(), want, atol=1e-8)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_per_view_reference_bitwise(self, rng, dtype):
        b, k = 5, 7
        logits = (rng.normal(size=(2 * b, k)) * 3).astype(dtype)
        t = np.concatenate([sinkhorn_targets(rng.normal(size=(b, k)), 0.5, 3)
                            for _ in range(2)])
        z = np.zeros((2 * b, 1), dtype=dtype)
        got = _loss_and_grads(lambda lg, _: dino_loss(lg, t, 0.1), logits, z)
        want = _loss_and_grads(lambda lg, _: reference_dino_loss(
            _per_view(lg, b), [t[:b], t[b:]], 0.1), logits, z)
        assert got[0].dtype == dtype
        _assert_same_bits(got, want)

    def test_nonnegative(self, rng):
        for _ in range(10):
            s = T.Tensor(rng.normal(size=(6, 6)) * 3)
            t = np.concatenate([sinkhorn_targets(rng.normal(size=(3, 6)), 0.5, 3)
                                for _ in range(2)])
            assert dino_loss(s, t, 0.1).item() >= 0.0

    def test_gradient_against_finite_differences(self, rng):
        b, k = 3, 4
        t = np.concatenate([sinkhorn_targets(rng.normal(size=(b, k)), 1.0, 3)
                            for _ in range(2)])
        s = T.Tensor(rng.normal(size=(2 * b, k)), requires_grad=True)

        def fn(ts):
            return dino_loss(ts[0], t, student_temp=0.3)

        with T.Tape() as tape:
            tape.backward(fn([s]))
        assert rel_err(s.grad, finite_diff_grad(fn, [s])[0]) < 1e-6


class TestKoleo:
    def test_antipodal_pair(self):
        z = T.Tensor(np.array([[1.0, 0.0], [-1.0, 0.0]]))
        loss = koleo_loss(z, eps=0.0)
        np.testing.assert_allclose(loss.item(), -np.log(2.0), atol=1e-6)

    def test_duplicate_points_finite_and_large(self):
        z = T.Tensor(np.array([[0.6, 0.8], [0.6, 0.8], [0.0, 1.0]]))
        loss = koleo_loss(z, eps=1e-8)
        assert np.isfinite(loss.item())
        assert loss.item() > 5.0

    def test_scale_invariance_power_of_two_bit_exact(self, rng):
        z = rng.normal(size=(6, 5))
        a = koleo_loss(T.Tensor(z), eps=1e-8).item()
        b = koleo_loss(T.Tensor(4.0 * z), eps=1e-8).item()
        assert a == b

    def test_scale_invariance_factor_five(self, rng):
        z = rng.normal(size=(6, 5))
        a = koleo_loss(T.Tensor(z), eps=1e-8).item()
        b = koleo_loss(T.Tensor(5.0 * z), eps=1e-8).item()
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_rotation_invariance(self, rng):
        z = rng.normal(size=(5, 4))
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        a = koleo_loss(T.Tensor(z), eps=1e-8).item()
        b = koleo_loss(T.Tensor(z @ q), eps=1e-8).item()
        np.testing.assert_allclose(a, b, atol=1e-9)

    def test_batch_of_one_rejected(self):
        with pytest.raises(ParameterError):
            koleo_loss(T.Tensor(np.ones((1, 3))))

    def test_gradient_spreads_points(self, rng):
        # two nearby points: the gradient should push them apart
        z = T.Tensor(np.array([[1.0, 0.01], [1.0, -0.01]]),
                     requires_grad=True)
        with T.Tape() as tape:
            tape.backward(koleo_loss(z, eps=1e-8))
        assert z.grad is not None
        # loss falls when the angular gap grows: grads on the second
        # coordinate have opposite signs
        assert z.grad[0, 1] * z.grad[1, 1] < 0


class TestTotalLoss:
    def _setup(self, rng, b=4, k=6):
        t = np.concatenate([sinkhorn_targets(rng.normal(size=(b, k)), 1.0, 3)
                            for _ in range(2)])
        s = T.Tensor(rng.normal(size=(2 * b, k)), requires_grad=True)
        z = T.Tensor(rng.normal(size=(2 * b, 5)), requires_grad=True)
        return s, t, z

    def test_disabled_koleo_equals_dino_exactly(self, rng):
        s, t, z = self._setup(rng)
        cfg = SslConfig(head_hidden=8, bottleneck=4, num_prototypes=6)
        assert cfg.koleo_weight == 0.0
        total = total_loss(s, t, cfg, student_z=z)
        plain = dino_loss(s, t, cfg.student_temp)
        assert total.item() == plain.item()

    def test_zero_weight_matches_disabled(self, rng):
        # weight 0 is the off switch: the regularizer never reaches the tape,
        # so the gradients are the bare cross-entropy's, bit for bit, and the
        # bottlenecks get none
        s, t, z = self._setup(rng)
        cfg = SslConfig(head_hidden=8, bottleneck=4, num_prototypes=6,
                        koleo_weight=0.0)

        with T.Tape() as tape:
            tape.backward(dino_loss(s, t, cfg.student_temp))
        g_plain = s.grad.copy()
        s.grad = None

        with T.Tape() as tape:
            tape.backward(total_loss(s, t, cfg, student_z=z))
        np.testing.assert_array_equal(g_plain, s.grad)
        assert z.grad is None

    @pytest.mark.parametrize("koleo_weight", [0.0, 0.1])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_per_view_reference_bitwise(self, rng, dtype, koleo_weight):
        # the per-view form: each view's logits and bottleneck narrowed out
        # of the stacked rows, the reference cross-entropy, and the spread
        # term of each view averaged over the two
        b, k = 5, 6
        cfg = SslConfig(head_hidden=8, bottleneck=4, num_prototypes=k,
                        koleo_weight=koleo_weight)
        logits = (rng.normal(size=(2 * b, k)) * 3).astype(dtype)
        z = rng.normal(size=(2 * b, 4)).astype(dtype)
        t = np.concatenate([sinkhorn_targets(rng.normal(size=(b, k)), 0.5, 3)
                            for _ in range(2)])

        def reference(lg, zt):
            loss = reference_dino_loss(_per_view(lg, b), [t[:b], t[b:]],
                                       cfg.student_temp)
            if koleo_weight > 0:
                zs = _per_view(zt, b)
                reg = koleo_loss(zs[0]) + koleo_loss(zs[1])
                loss = loss + (koleo_weight / 2) * reg
            return loss

        got = _loss_and_grads(lambda lg, zt: total_loss(lg, t, cfg, zt), logits, z)
        want = _loss_and_grads(reference, logits, z)
        assert got[0].dtype == dtype and (got[2] is None) == (koleo_weight == 0)
        _assert_same_bits(got, want)

    def test_enabled_koleo_changes_value(self, rng):
        s, t, z = self._setup(rng)
        off = SslConfig(head_hidden=8, bottleneck=4, num_prototypes=6)
        on = SslConfig(head_hidden=8, bottleneck=4, num_prototypes=6,
                       koleo_weight=0.1)
        a = total_loss(s, t, off, student_z=z).item()
        b = total_loss(s, t, on, student_z=z).item()
        assert a != b

    def test_full_head_finite_difference(self, rng):
        # ten sampled parameters of a live head, 64-bit, teacher held fixed
        cfg = SslConfig(head_hidden=8, bottleneck=4, num_prototypes=6,
                        koleo_weight=0.1)
        params = {k: T.Tensor(v.data.astype(np.float64), requires_grad=True)
                  for k, v in init_head_params(cfg, 8, rng).items()}
        emb = rng.normal(size=(6, 8))
        with np.errstate(all="ignore"):
            frozen_logits = head_forward(params, T.Tensor(emb))[0].data
        targets = teacher_targets_multiview(frozen_logits, cfg,
                                            CenteringState.fresh(6))

        def fn(ts):
            logits, z = head_forward(params, T.Tensor(emb))
            return total_loss(logits, targets, cfg, student_z=z)

        subset = [params["fc1.weight"], params["fc2.weight"],
                  params["fc3.weight"], params["prototypes"],
                  params["fc1.bias"]]
        with T.Tape() as tape:
            tape.backward(fn(subset))
        numeric = finite_diff_grad(fn, subset, max_coords=2, seed=5)
        worst = 0.0
        for p, n in zip(subset, numeric):
            flat_a = p.grad.reshape(-1)
            flat_n = n.reshape(-1)
            for i in np.nonzero(flat_n != 0.0)[0]:
                worst = max(worst,
                            abs(flat_a[i] - flat_n[i]) / max(1.0, abs(flat_n[i])))
        assert worst < 1e-3


class TestHead:
    def test_forward_shapes(self, rng):
        params = init_head_params(SMALL, 12, rng)
        logits, z = head_forward(params, T.Tensor(rng.normal(size=(5, 12))))
        assert logits.shape == (5, 8)
        assert z.shape == (5, 8)

    def test_prototype_rows_unit_norm_after_renorm(self, rng):
        params = init_head_params(SMALL, 12, rng)
        params["prototypes"].data += rng.normal(size=(8, 8)).astype(np.float32)
        renormalize_prototypes(params)
        norms = np.linalg.norm(params["prototypes"].data, axis=1)
        np.testing.assert_allclose(norms, np.ones(8), atol=1e-6)

    def test_logits_bounded_by_cauchy_schwarz(self, rng):
        # unit prototypes against unit bottleneck rows: |logit| <= 1
        params = init_head_params(SMALL, 12, rng)
        logits, _ = head_forward(params, T.Tensor(rng.normal(size=(9, 12)) * 10))
        assert np.max(np.abs(logits.data)) <= 1.0 + 1e-5


class TestConfigValidation:
    def test_bad_centering_mode(self):
        with pytest.raises(ParameterError):
            SslConfig(centering="adaptive")

    def test_nonpositive_temperature(self):
        with pytest.raises(ParameterError):
            SslConfig(teacher_temp=0.0)

    def test_momentum_range(self):
        with pytest.raises(ParameterError):
            SslConfig(center_momentum=1.0)

    def test_negative_koleo_weight(self):
        with pytest.raises(ParameterError, match="koleo_weight"):
            SslConfig(koleo_weight=-0.1)

    @pytest.mark.parametrize("field, value", [
        ("koleo_weight", float("nan")), ("koleo_weight", float("inf")),
        ("teacher_temp", float("nan")), ("student_temp", float("inf")),
        ("student_temp", float("nan")), ("teacher_temp", float("inf"))])
    def test_non_finite_values_rejected(self, field, value):
        # each of these used to be accepted: a nan weight turned KoLeo off
        with pytest.raises(ParameterError, match=field):
            SslConfig(**{field: value})

    def test_entropy_extremes(self):
        k = 16
        uniform = np.full((4, k), 1.0 / k)
        assert abs(mean_assignment_entropy(uniform) - np.log(k)) < 1e-12
        onehot = np.zeros((4, k))
        onehot[:, 3] = 1.0
        assert mean_assignment_entropy(onehot) == 0.0

    def test_marginal_deviation_extremes(self):
        k = 16
        assert marginal_deviation(np.full((4, k), 1.0 / k)) == 0.0
        onehot = np.zeros((4, k))
        onehot[:, 3] = 1.0
        assert marginal_deviation(onehot) == 1.0 - 1.0 / k


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 10), st.integers(2, 12), st.integers(1, 8),
       st.integers(0, 2**31 - 1))
def test_sinkhorn_rows_always_distributions(b, k, iters, seed):
    g = np.random.Generator(np.random.PCG64(seed))
    q = sinkhorn_targets(g.normal(size=(b, k)) * 3.0, temp=0.5, iters=iters)
    assert np.all(q >= 0)
    np.testing.assert_allclose(q.sum(axis=1), np.ones(b), atol=1e-6)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 8), st.integers(2, 10), st.integers(0, 2**31 - 1))
def test_ema_targets_valid_distributions(b, k, seed):
    g = np.random.Generator(np.random.PCG64(seed))
    p = ema_targets(g.normal(size=(b, k)) * 5, g.normal(size=k), temp=0.04)
    assert np.all(p >= 0)
    np.testing.assert_allclose(p.sum(axis=1), np.ones(b), atol=1e-9)
