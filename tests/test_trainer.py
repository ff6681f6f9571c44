"""Training loop: schedules, EMA, determinism, persistence, resume."""

import dataclasses
import filecmp
import itertools
import os
import struct

import numpy as np
import pytest

import smearssl.tensor as T
import smearssl.trainer as trainer_mod
from smearssl.augment import CropSpec, multicrop
from oracles import reference_write_checkpoint, traced_memory
from smearssl.checkpoint import (_decode_config, _encode_config, read_checkpoint,
                                 write_checkpoint)
from smearssl.errors import (DimensionError, InputError, NumericError, ParameterError,
                             ValidationError)
from smearssl.objective import (CenteringState, SslConfig, head_forward,
                                teacher_targets_multiview, total_loss)
from smearssl.trainer import (
    TrainConfig,
    ema_update,
    export_teacher,
    init_train_state,
    load_encoder,
    load_train_state,
    sample_batch,
    save_train_state,
    schedule,
    steps,
    teacher_targets,
    train,
    train_step,
)
from smearssl.vit import VitConfig, VitEncoder

TINY_VIT = VitConfig(image_size=16, patch_size=8, embed_dim=8, depth=1, heads=2)
TINY_SSL = SslConfig(head_hidden=16, bottleneck=8, num_prototypes=8)
TINY_CROP = CropSpec(global_size=16, jitter_p=0.0, blur_p=0.0, solarize_p=0.0,
                     grayscale_p=0.0)


def tiny_train_cfg(**kw):
    base = dict(iterations=10, batch_size=2, base_lr=1e-3, warmup_frac=0.2,
                weight_decay=0.01, seed=3)
    base.update(kw)
    return TrainConfig(**base)


def take_steps(state, imgs, n):
    """The next n `Step`s of `state`'s run on `imgs`."""
    return list(itertools.islice(steps(state, imgs, TINY_CROP), n))


def write_log(path, records):
    """A `loss_log.csv` of these `Step`s, as `train` writes it."""
    with open(path, "w") as fh:
        fh.write("iter,loss,lr,teacher_momentum\n")
        fh.writelines(f"{r.iter},{r.loss!r},{r.lr!r},{r.teacher_momentum!r}\n"
                      for r in records)


def noise_images(n=6, size=24, seed=0):
    g = np.random.Generator(np.random.PCG64(seed))
    return [g.integers(0, 256, size=(size, size, 3), dtype=np.uint8).astype(np.uint8)
            for _ in range(n)]


class TestSchedule:
    CFG = TrainConfig(iterations=100, warmup_frac=0.1, base_lr=2e-3,
                      final_lr=1e-5, teacher_momentum_start=0.992,
                      teacher_momentum_end=1.0)

    def test_warmup_starts_at_zero(self):
        assert schedule(0, self.CFG)["lr"] == 0.0

    def test_warmup_end_hits_base_lr(self):
        assert schedule(self.CFG.warmup_iters, self.CFG)["lr"] == self.CFG.base_lr

    def test_final_iteration_endpoints(self):
        out = schedule(self.CFG.iterations - 1, self.CFG)
        assert abs(out["lr"] - self.CFG.final_lr) < 1e-9
        assert abs(out["m_t"] - self.CFG.teacher_momentum_end) < 1e-9

    def test_momentum_starts_at_start_value(self):
        assert abs(schedule(0, self.CFG)["m_t"]
                   - self.CFG.teacher_momentum_start) < 1e-12

    def test_momentum_monotone_nondecreasing(self):
        vals = [schedule(i, self.CFG)["m_t"] for i in range(100)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_lr_peak_is_base_lr(self):
        vals = [schedule(i, self.CFG)["lr"] for i in range(100)]
        assert max(vals) <= self.CFG.base_lr + 1e-15

    def test_out_of_range_rejected(self):
        with pytest.raises(ParameterError):
            schedule(100, self.CFG)
        with pytest.raises(ParameterError):
            schedule(-1, self.CFG)

    def test_no_warmup_starts_at_base(self):
        cfg = TrainConfig(iterations=50, warmup_frac=0.0, base_lr=1e-3)
        assert schedule(0, cfg)["lr"] == cfg.base_lr


class TestEmaUpdate:
    def _pair(self):
        t = {"w": T.Tensor(np.array([2.0, -1.0], dtype=np.float32))}
        s = {"w": T.Tensor(np.array([4.0, 3.0], dtype=np.float32))}
        return t, s

    def test_momentum_one_keeps_teacher_bits(self):
        t, s = self._pair()
        before = t["w"].data.copy()
        ema_update(t, s, 1.0)
        np.testing.assert_array_equal(t["w"].data, before)

    def test_momentum_zero_copies_student_bits(self):
        t, s = self._pair()
        ema_update(t, s, 0.0)
        np.testing.assert_array_equal(t["w"].data, s["w"].data)

    def test_convex_combination_value(self):
        t, s = self._pair()
        ema_update(t, s, 0.9)
        np.testing.assert_allclose(t["w"].data[0], 2.2, atol=1e-6)

    def test_shape_mismatch_rejected(self):
        t = {"w": T.Tensor(np.zeros(3))}
        s = {"w": T.Tensor(np.zeros(4))}
        with pytest.raises(DimensionError):
            ema_update(t, s, 0.5)

    def test_name_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            ema_update({"a": T.Tensor(np.zeros(2))},
                       {"b": T.Tensor(np.zeros(2))}, 0.5)

    def test_result_between_endpoints(self, rng):
        t = {"w": T.Tensor(rng.normal(size=8).astype(np.float32))}
        s = {"w": T.Tensor(rng.normal(size=8).astype(np.float32))}
        lo = np.minimum(t["w"].data, s["w"].data)
        hi = np.maximum(t["w"].data, s["w"].data)
        ema_update(t, s, 0.7)
        assert np.all(t["w"].data >= lo - 1e-7)
        assert np.all(t["w"].data <= hi + 1e-7)


    def test_float32_in_place_matches_float64_reference(self, rng):
        teacher = rng.normal(size=4096).astype(np.float32)
        student = (teacher + 0.01 * rng.normal(size=4096)).astype(np.float32)
        want = 0.996 * teacher.astype(np.float64) + 0.004 * student.astype(np.float64)
        t = {"w": T.Tensor(teacher.copy())}
        ema_update(t, {"w": T.Tensor(student)}, 0.996)
        assert t["w"].data.dtype == np.float32
        np.testing.assert_allclose(t["w"].data, want, rtol=1e-6, atol=0)

    @pytest.mark.parametrize("block", [7, None])
    @pytest.mark.parametrize("m_t", [0.996, 0.5])
    def test_blocked_update_bit_identical_to_whole_array_formula(
            self, monkeypatch, rng, block, m_t):
        if block is not None:
            monkeypatch.setattr(T, "_BLOCK", block)
        shapes = {"w": (300, 700), "b": (5,), "one": (1,), "cube": (3, 4, 9)}
        t = {k: T.Tensor(rng.normal(size=sh).astype(np.float32))
             for k, sh in shapes.items()}
        s = {k: T.Tensor(rng.normal(size=sh).astype(np.float32))
             for k, sh in shapes.items()}
        want = {k: p.data.copy() for k, p in t.items()}
        for k, w in want.items():
            w += (1 - m_t) * (s[k].data - w)
        ema_update(t, s, m_t)
        for k in shapes:
            assert t[k].data.tobytes() == want[k].tobytes(), k

    def test_zero_momentum_copy_is_not_moved_by_optimizer(self):
        state = init_train_state(TINY_VIT, TINY_SSL, tiny_train_cfg())
        ema_update(state.teacher_params(), state.student_params(), 0.0)
        before = {k: p.data.copy() for k, p in state.teacher_params().items()}
        for p in state.student_params().values():
            p.grad = np.ones_like(p.data)
        trainer_mod._adamw_step(state, 1e-2)
        for k, p in state.teacher_params().items():
            np.testing.assert_array_equal(p.data, before[k])
            assert not np.array_equal(state.student_params()[k].data, before[k]), k


def reference_adamw_step(state, lr):
    """The out-of-place AdamW formula that the in-place step reproduces."""
    b1, b2, eps = trainer_mod.ADAM_BETA1, trainer_mod.ADAM_BETA2, trainer_mod.ADAM_EPS
    t = state.iteration + 1
    bc1 = 1.0 - b1**t
    bc2 = 1.0 - b2**t
    for name, p in state.student_params().items():
        if p.grad is None:
            continue
        g = p.grad.astype(np.float32)
        m = state.moments_m[name]
        v = state.moments_v[name]
        m[:] = b1 * m + (1 - b1) * g
        v[:] = b2 * v + (1 - b2) * g * g
        update = (m / bc1) / (np.sqrt(v / bc2) + eps)
        if state.train_cfg.weight_decay > 0 and p.data.ndim >= 2:
            update = update + state.train_cfg.weight_decay * p.data
        p.data = p.data - np.float32(lr) * update


def reference_ema_update(teacher, student, m_t):
    """The whole-array EMA formula that the blocked update reproduces."""
    for name, t in teacher.items():
        t.data = t.data + (1 - m_t) * (student[name].data - t.data)


def _state_arrays(state):
    """Every array that AdamW and the EMA update, in a fixed order."""
    return ([p.data for p in state.student_params().values()]
            + [p.data for p in state.teacher_params().values()]
            + list(state.moments_m.values()) + list(state.moments_v.values()))


class TestAdamW:
    def test_in_place_step_bit_identical_to_formula(self, rng):
        self._check_against_formula(rng)

    def test_ragged_blocks_bit_identical_to_formula(self, monkeypatch, rng):
        # no tiny-config tensor size is a multiple of 7: every last block is partial
        monkeypatch.setattr(T, "_BLOCK", 7)
        self._check_against_formula(rng)

    @pytest.mark.parametrize("block", [7, None])
    def test_updates_write_into_the_state_arrays(self, monkeypatch, rng, block):
        # a flat block that were silently a copy would drop its writes
        if block is not None:
            monkeypatch.setattr(T, "_BLOCK", block)
        got, want = (init_train_state(TINY_VIT, TINY_SSL, tiny_train_cfg())
                     for _ in range(2))
        for k, p in got.student_params().items():
            p.grad = rng.normal(size=p.shape).astype(np.float32)
            want.student_params()[k].grad = p.grad.copy()
        before = _state_arrays(got)
        trainer_mod._adamw_step(got, 1e-2)
        ema_update(got.teacher_params(), got.student_params(), 0.9)
        reference_adamw_step(want, 1e-2)
        reference_ema_update(want.teacher_params(), want.student_params(), 0.9)
        after = _state_arrays(got)
        fresh = _state_arrays(init_train_state(TINY_VIT, TINY_SSL, tiny_train_cfg()))
        assert all(a is b for a, b in zip(before, after, strict=True))
        for a, b, c in zip(after, _state_arrays(want), fresh, strict=True):
            assert a.tobytes() == b.tobytes()
            assert a.tobytes() != c.tobytes()

    def _check_against_formula(self, rng):
        cfg = tiny_train_cfg(weight_decay=0.04)
        got, want = (init_train_state(TINY_VIT, TINY_SSL, cfg) for _ in range(2))
        start = {k: p.data.copy() for k, p in got.student_params().items()}
        no_grad = "encoder.cls_token"
        zero_grad = ("head.fc1.weight", "head.fc1.bias")
        for _ in range(3):
            for k, p in got.student_params().items():
                if k == no_grad:
                    continue
                scale = 0.0 if k in zero_grad else 10.0 ** rng.integers(-4, 2)
                p.grad = (scale * rng.normal(size=p.shape)).astype(np.float32)
                want.student_params()[k].grad = p.grad.copy()
            trainer_mod._adamw_step(got, 1e-2)
            reference_adamw_step(want, 1e-2)
            got.iteration += 1
            want.iteration += 1
        for k, p in got.student_params().items():
            assert np.array_equal(p.data, want.student_params()[k].data), k
            assert np.array_equal(got.moments_m[k], want.moments_m[k]), k
            assert np.array_equal(got.moments_v[k], want.moments_v[k]), k
            assert p.data.dtype == np.float32 and p.grad is None, k
        # with no gradient signal, decay moves matrices and leaves vectors
        params = got.student_params()
        assert np.array_equal(params[no_grad].data, start[no_grad])
        assert not np.any(got.moments_m[no_grad]) and not np.any(got.moments_v[no_grad])
        assert np.array_equal(params["head.fc1.bias"].data, start["head.fc1.bias"])
        assert not np.array_equal(params["head.fc1.weight"].data, start["head.fc1.weight"])


class TestSampleBatch:
    def test_deterministic_per_iteration(self):
        imgs = noise_images()
        cfg = tiny_train_cfg()
        a = sample_batch(imgs, TINY_CROP, cfg, 4)
        b = sample_batch(imgs, TINY_CROP, cfg, 4)
        assert a.shape[0] == 2 * cfg.batch_size
        np.testing.assert_array_equal(a, b)

    def test_iterations_differ(self):
        imgs = noise_images()
        cfg = tiny_train_cfg()
        a = sample_batch(imgs, TINY_CROP, cfg, 0)
        b = sample_batch(imgs, TINY_CROP, cfg, 1)
        assert not np.array_equal(a, b)

    def test_view_shapes(self):
        views = sample_batch(noise_images(), TINY_CROP, tiny_train_cfg(), 0)
        assert views.shape == (4, 16, 16, 3)
        assert views.dtype == np.float32 and views.flags.c_contiguous

    def test_halves_are_the_per_view_stacks(self):
        # rows [:B] are every image's first view, rows [B:] its second, drawn
        # from the iteration's batch and augmentation streams
        imgs = noise_images()
        cfg = tiny_train_cfg(batch_size=3)
        views = sample_batch(imgs, TINY_CROP, cfg, 2)
        idx = trainer_mod._iteration_rng(cfg.seed, 2, trainer_mod._STREAM_BATCH).choice(
            len(imgs), size=3, replace=False)
        arng = trainer_mod._iteration_rng(cfg.seed, 2, trainer_mod._STREAM_AUG)
        crops = [multicrop(imgs[int(i)], TINY_CROP, arng) for i in idx]
        np.testing.assert_array_equal(views[:3], np.stack([c[0] for c in crops]))
        np.testing.assert_array_equal(views[3:], np.stack([c[1] for c in crops]))
        assert not np.array_equal(views[:3], views[3:])

    def test_empty_dataset_rejected(self):
        with pytest.raises(InputError):
            sample_batch([], TINY_CROP, tiny_train_cfg(), 0)


class TestTrainStep:
    def test_ten_steps_bit_identical(self):
        imgs = noise_images()
        histories = []
        for _ in range(2):
            cfg = tiny_train_cfg()
            state = init_train_state(TINY_VIT, TINY_SSL, cfg)
            histories.append([record.loss for record in steps(state, imgs, TINY_CROP)])
        assert histories[0] == histories[1]
        assert len(histories[0]) == 10
        assert all(np.isfinite(histories[0]))

    def test_frozen_teacher_with_unit_momentum(self):
        imgs = noise_images()
        cfg = tiny_train_cfg(teacher_momentum_start=1.0,
                             teacher_momentum_end=1.0)
        state = init_train_state(TINY_VIT, TINY_SSL, cfg)
        before = {k: p.data.copy() for k, p in state.teacher_params().items()}
        probe = sample_batch(imgs, TINY_CROP, cfg, 0)
        out_before = state.teacher_enc.forward(probe).data.copy()
        for it in range(3):
            train_step(state, sample_batch(imgs, TINY_CROP, cfg, it))
        for k, p in state.teacher_params().items():
            np.testing.assert_array_equal(p.data, before[k])
        np.testing.assert_array_equal(
            state.teacher_enc.forward(probe).data, out_before)

    def test_student_moves_teacher_follows_convexly(self):
        imgs = noise_images()
        cfg = tiny_train_cfg()
        state = init_train_state(TINY_VIT, TINY_SSL, cfg)
        # step 0 runs at lr=0 (warmup); check the first step that moves
        train_step(state, sample_batch(imgs, TINY_CROP, cfg, 0))
        t_before = {k: p.data.copy() for k, p in state.teacher_params().items()}
        train_step(state, sample_batch(imgs, TINY_CROP, cfg, 1))
        moved = False
        for k, p in state.teacher_params().items():
            s_now = state.student_params()[k].data
            lo = np.minimum(t_before[k], s_now) - 1e-6
            hi = np.maximum(t_before[k], s_now) + 1e-6
            assert np.all(p.data >= lo) and np.all(p.data <= hi), k
            moved = moved or not np.array_equal(p.data, t_before[k])
        assert moved

    def test_stacked_step_matches_per_view_reference(self):
        imgs = noise_images()
        cfg = tiny_train_cfg()
        ssl = SslConfig(head_hidden=16, bottleneck=8, num_prototypes=8,
                        koleo_weight=0.1)
        state = init_train_state(TINY_VIT, ssl, cfg)
        views = sample_batch(imgs, TINY_CROP, cfg, 0)
        b = cfg.batch_size
        # one forward per view and tower, as two separate batches
        per_view = [views[:b], views[b:]]
        teacher_logits = np.concatenate([
            head_forward(state.teacher_head, state.teacher_enc.forward(v))[0].data
            for v in per_view])
        targets = teacher_targets_multiview(teacher_logits, ssl,
                                            CenteringState.fresh(8))
        logits, z = zip(*(head_forward(state.student_head, state.student_enc.forward(v))
                          for v in per_view))
        want = total_loss(T.concat(logits), targets, ssl, T.concat(z)).item()
        got = train_step(state, views)
        assert abs(got - want) < 1e-6
        for k, p in state.teacher_params().items():
            assert p.requires_grad is False and p.grad is None, k

    def test_default_step_peaks_below_forward_plus_largest_head_weight(self):
        # at the shipped defaults the head's fc2 weight (2048 x 2048, 16.8 MB)
        # is the largest; its gradient, and fc3's, wait until the backward
        # has freed the forward's activations instead of landing on them
        cfg = TrainConfig()
        state = init_train_state(VitConfig(), SslConfig(), cfg)
        imgs = noise_images(n=cfg.batch_size, size=64)
        train_step(state, sample_batch(imgs, CropSpec(), cfg, 0))
        views = sample_batch(imgs, CropSpec(), cfg, 1)

        def taped_forward():
            targets = teacher_targets(state, views)
            with T.Tape():
                logits, z = head_forward(state.student_head,
                                         state.student_enc.forward(views))
                total_loss(logits, targets, state.ssl_cfg, z)

        _, _, forward_peak = traced_memory(taped_forward)
        _, _, step_peak = traced_memory(lambda: train_step(state, views))
        largest = max(p.data.nbytes for p in state.student_head.values())
        assert step_peak < forward_peak + largest

    def test_tape_records_per_step(self, monkeypatch):
        # pins the fused ops, so a split back into generic primitives shows:
        # at the tiny configs the encoder's stem and tail take 7 records
        # (patch linear, CLS broadcast add, concat, position add, final
        # layernorm, CLS narrow and reshape), each block 10 (2 layernorms,
        # 4 linear, attention, gelu, 2 residual adds), the head 8 and the
        # loss 9 (scale, log_softmax, product, row sum, reshape to [2, B],
        # per-view mean, neg, sum, halving); nothing splits the [2B, K]
        # logits per view
        counts = []
        backward = T.Tape.backward

        def counting(tape, root):
            counts.append(len(tape))
            return backward(tape, root)

        monkeypatch.setattr(T.Tape, "backward", counting)
        cfg = tiny_train_cfg()
        state = init_train_state(TINY_VIT, TINY_SSL, cfg)
        train_step(state, sample_batch(noise_images(), TINY_CROP, cfg, 0))
        assert counts == [34]

    def test_each_tower_runs_once(self, monkeypatch):
        calls = {"encoder": 0, "head": 0}
        enc_forward, head = VitEncoder.forward, trainer_mod.head_forward

        def counting_forward(self, images):
            calls["encoder"] += 1
            return enc_forward(self, images)

        def counting_head(params, x):
            calls["head"] += 1
            return head(params, x)

        monkeypatch.setattr(VitEncoder, "forward", counting_forward)
        monkeypatch.setattr(trainer_mod, "head_forward", counting_head)
        cfg = tiny_train_cfg()
        state = init_train_state(TINY_VIT, TINY_SSL, cfg)
        train_step(state, sample_batch(noise_images(), TINY_CROP, cfg, 0))
        assert calls == {"encoder": 2, "head": 2}

    def test_odd_or_short_batch_refused(self):
        cfg = tiny_train_cfg()
        state = init_train_state(
            TINY_VIT, dataclasses.replace(TINY_SSL, centering="ema"), cfg)
        before = [p.data.copy() for p in (*state.student_params().values(),
                                          *state.teacher_params().values())]
        views = sample_batch(noise_images(), TINY_CROP, cfg, 0)
        for bad in (views[:3], views[:2], np.concatenate([views, views[:1]])):
            with pytest.raises(ParameterError, match="rows"):
                train_step(state, bad)
        assert state.iteration == 0
        after = [p.data for p in (*state.student_params().values(),
                                  *state.teacher_params().values())]
        assert all(np.array_equal(a, b) for a, b in zip(before, after))
        assert not any(m.any() for m in state.moments_m.values())
        assert not state.centering.center.any()

    def test_teacher_never_accumulates_grads(self):
        imgs = noise_images()
        cfg = tiny_train_cfg()
        state = init_train_state(TINY_VIT, TINY_SSL, cfg)
        train_step(state, sample_batch(imgs, TINY_CROP, cfg, 0))
        for k, p in state.teacher_params().items():
            assert p.grad is None, k

    def test_prototype_rows_stay_unit(self):
        imgs = noise_images()
        cfg = tiny_train_cfg()
        state = init_train_state(TINY_VIT, TINY_SSL, cfg)
        for it in range(3):
            train_step(state, sample_batch(imgs, TINY_CROP, cfg, it))
        norms = np.linalg.norm(state.student_head["prototypes"].data, axis=1)
        np.testing.assert_allclose(norms, np.ones(8), atol=1e-5)

    def test_nan_parameters_abort_with_diagnostic(self):
        imgs = noise_images()
        cfg = tiny_train_cfg()
        state = init_train_state(TINY_VIT, TINY_SSL, cfg)
        state.student_enc.params["cls_token"].data[:] = np.nan
        with pytest.raises(NumericError):
            train_step(state, sample_batch(imgs, TINY_CROP, cfg, 0))


class TestTrainEndToEnd:
    def test_iterations_zero_checkpoint_is_initialization(self, tmp_path):
        imgs = noise_images()
        cfg = tiny_train_cfg(iterations=0)
        out = str(tmp_path / "run")
        state = train(imgs, TINY_VIT, TINY_SSL, cfg, TINY_CROP, out)
        init = init_train_state(TINY_VIT, TINY_SSL, cfg)
        for k, p in state.teacher_params().items():
            np.testing.assert_array_equal(p.data, init.teacher_params()[k].data)
        with open(os.path.join(out, "loss_log.csv")) as fh:
            lines = fh.read().splitlines()
        assert lines == ["iter,loss,lr,teacher_momentum"]

    def test_run_writes_artifacts_and_log_rows(self, tmp_path):
        imgs = noise_images()
        cfg = tiny_train_cfg(iterations=4)
        out = str(tmp_path / "run")
        train(imgs, TINY_VIT, TINY_SSL, cfg, TINY_CROP, out)
        assert os.path.exists(os.path.join(out, "checkpoint.rdck"))
        assert os.path.exists(os.path.join(out, "state.rdck"))
        with open(os.path.join(out, "loss_log.csv")) as fh:
            rows = fh.read().splitlines()
        assert rows[0] == "iter,loss,lr,teacher_momentum"
        assert len(rows) == 5
        for i, row in enumerate(rows[1:]):
            cells = row.split(",")
            assert int(cells[0]) == i
            assert np.isfinite(float(cells[1]))

    def test_two_runs_bit_identical_artifacts(self, tmp_path):
        imgs = noise_images()
        pair = []
        for tag in ("a", "b"):
            out = str(tmp_path / tag)
            train(imgs, TINY_VIT, TINY_SSL, tiny_train_cfg(iterations=3),
                  TINY_CROP, out)
            with open(os.path.join(out, "checkpoint.rdck"), "rb") as fh:
                ck = fh.read()
            with open(os.path.join(out, "loss_log.csv")) as fh:
                lg = fh.read()
            pair.append((ck, lg))
        assert pair[0] == pair[1]

    @pytest.mark.parametrize("centering", ["sinkhorn", "ema", "none"])
    def test_resume_matches_straight_run(self, tmp_path, centering):
        imgs = noise_images()
        cfg = tiny_train_cfg(iterations=6)
        ssl = dataclasses.replace(TINY_SSL, centering=centering)

        straight_dir = str(tmp_path / "straight")
        straight = train(imgs, TINY_VIT, ssl, cfg, TINY_CROP, straight_dir)

        # interrupt an identical run after 3 steps, save, then resume
        resumed_dir = str(tmp_path / "resumed")
        os.makedirs(resumed_dir)
        partial = init_train_state(TINY_VIT, ssl, cfg)
        records = take_steps(partial, imgs, 3)
        save_train_state(os.path.join(resumed_dir, "state.rdck"), partial)
        write_log(os.path.join(resumed_dir, "loss_log.csv"), records)
        resumed = train(imgs, TINY_VIT, ssl, cfg, TINY_CROP, resumed_dir,
                        resume=True)

        for k, p in straight.teacher_params().items():
            np.testing.assert_array_equal(p.data, resumed.teacher_params()[k].data)
        np.testing.assert_array_equal(straight.centering.center,
                                      resumed.centering.center)
        assert filecmp.cmp(os.path.join(straight_dir, "loss_log.csv"),
                           os.path.join(resumed_dir, "loss_log.csv"), shallow=False)

    def test_resume_without_log_writes_header(self, tmp_path):
        imgs = noise_images()
        cfg = tiny_train_cfg(iterations=6)
        straight = tmp_path / "straight"
        train(imgs, TINY_VIT, TINY_SSL, cfg, TINY_CROP, str(straight))
        resumed = tmp_path / "resumed"
        resumed.mkdir()
        partial = init_train_state(TINY_VIT, TINY_SSL, cfg)
        take_steps(partial, imgs, 3)
        save_train_state(str(resumed / "state.rdck"), partial)
        train(imgs, TINY_VIT, TINY_SSL, cfg, TINY_CROP, str(resumed), resume=True)
        want = (straight / "loss_log.csv").read_text().splitlines()
        assert (resumed / "loss_log.csv").read_text().splitlines() == want[:1] + want[4:]

    def test_resume_after_kill_drops_rows_past_the_state(self, tmp_path):
        # a run killed after writing log rows 2 and 3 but before saving its
        # state leaves the 2-iteration state.rdck beside rows 0-3
        imgs = noise_images()
        cfg = tiny_train_cfg(iterations=4)
        straight, out = tmp_path / "straight", tmp_path / "run"
        train(imgs, TINY_VIT, TINY_SSL, cfg, TINY_CROP, str(straight))
        train(imgs, TINY_VIT, TINY_SSL, cfg, TINY_CROP, str(out))
        partial = init_train_state(TINY_VIT, TINY_SSL, cfg)
        take_steps(partial, imgs, 2)
        save_train_state(str(out / "state.rdck"), partial)
        train(imgs, TINY_VIT, TINY_SSL, cfg, TINY_CROP, str(out), resume=True)
        for name in ("loss_log.csv", "state.rdck", "checkpoint.rdck"):
            assert (out / name).read_bytes() == (straight / name).read_bytes(), name
        assert not (out / "loss_log.csv.tmp").exists()

    def test_resume_without_state_rejected(self, tmp_path):
        with pytest.raises(InputError):
            train(noise_images(), TINY_VIT, TINY_SSL, tiny_train_cfg(),
                  TINY_CROP, str(tmp_path / "missing"), resume=True)
        assert not (tmp_path / "missing").exists()

    def test_crop_side_other_than_encoder_refused_before_writing(self, tmp_path):
        crop = dataclasses.replace(TINY_CROP, global_size=32)
        with pytest.raises(ValidationError, match="crop side 32 is not "
                           "vit.image_size 16"):
            train(noise_images(), TINY_VIT, TINY_SSL, tiny_train_cfg(), crop,
                  str(tmp_path / "run"))
        assert not (tmp_path / "run").exists()

    def test_resume_past_requested_iterations_refused(self, tmp_path):
        out = tmp_path / "run"
        train(noise_images(), TINY_VIT, TINY_SSL, tiny_train_cfg(iterations=3),
              TINY_CROP, str(out))
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        with pytest.raises(ParameterError, match="saved state is at iteration 3, "
                           "past the requested 2"):
            train(noise_images(), TINY_VIT, TINY_SSL, tiny_train_cfg(iterations=2),
                  TINY_CROP, str(out), resume=True)
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_resume_with_another_encoder_refused(self, tmp_path):
        out = tmp_path / "run"
        cfg = tiny_train_cfg(iterations=2)
        train(noise_images(), TINY_VIT, TINY_SSL, cfg, TINY_CROP, str(out))
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        deeper = dataclasses.replace(TINY_VIT, depth=2, heads=4)
        with pytest.raises(InputError, match="vit.depth is 1 there, 2 here; "
                           "vit.heads is 2 there, 4 here"):
            train(noise_images(), deeper, TINY_SSL, tiny_train_cfg(iterations=4),
                  TINY_CROP, str(out), resume=True)
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before


class TestPersistence:
    def test_state_roundtrip_bits(self, tmp_path):
        imgs = noise_images()
        cfg = tiny_train_cfg(iterations=5)
        state = init_train_state(TINY_VIT, TINY_SSL, cfg)
        take_steps(state, imgs, 2)
        path = str(tmp_path / "state.rdck")
        save_train_state(path, state)
        back = load_train_state(path, TINY_SSL, cfg)
        assert back.iteration == 2
        for k, p in state.student_params().items():
            np.testing.assert_array_equal(p.data, back.student_params()[k].data)
        for k in state.moments_m:
            np.testing.assert_array_equal(state.moments_m[k], back.moments_m[k])

    def test_load_draws_nothing_and_resaves_the_same_bytes(self, tmp_path, monkeypatch):
        imgs = noise_images()
        cfg = tiny_train_cfg(iterations=5)
        state = init_train_state(TINY_VIT, TINY_SSL, cfg)
        train_step(state, sample_batch(imgs, TINY_CROP, cfg, 0))
        path, again = str(tmp_path / "state.rdck"), str(tmp_path / "again.rdck")
        save_train_state(path, state)

        def no_draw(*args):
            raise AssertionError("load_train_state drew a random initialisation")

        monkeypatch.setattr(trainer_mod, "init_vit_params", no_draw)
        monkeypatch.setattr(trainer_mod, "init_head_params", no_draw)
        save_train_state(again, load_train_state(path, TINY_SSL, cfg))
        assert filecmp.cmp(path, again, shallow=False)

    def test_load_reads_each_array_once(self, tmp_path):
        # each blob is read straight into the array the state adopts: no
        # whole-file buffer, no second copy, no zero fill
        cfg = tiny_train_cfg()
        ssl = dataclasses.replace(TINY_SSL, head_hidden=512)
        path = str(tmp_path / "state.rdck")
        save_train_state(path, init_train_state(TINY_VIT, ssl, cfg))
        state, _, peak = traced_memory(lambda: load_train_state(path, ssl, cfg))
        state_bytes = sum(a.nbytes for a in trainer_mod._state_blobs(state).values())
        assert state_bytes > 4 << 20
        assert peak <= 1.1 * state_bytes

    def test_exported_teacher_reproduces_outputs(self, tmp_path):
        imgs = noise_images()
        cfg = tiny_train_cfg(iterations=3)
        state = init_train_state(TINY_VIT, TINY_SSL, cfg)
        take_steps(state, imgs, 2)
        path = str(tmp_path / "enc.rdck")
        export_teacher(path, state)
        enc = load_encoder(path)
        probe = sample_batch(imgs, TINY_CROP, cfg, 9)
        np.testing.assert_array_equal(enc.forward(probe).data,
                                      state.teacher_enc.forward(probe).data)

    def test_load_rejects_state_of_another_head(self, tmp_path):
        cfg = tiny_train_cfg()
        path = str(tmp_path / "state.rdck")
        save_train_state(path, init_train_state(TINY_VIT, TINY_SSL, cfg))
        wider = SslConfig(head_hidden=16, bottleneck=8, num_prototypes=12)
        with pytest.raises(InputError, match=r"'student\.head\.prototypes' "
                           r"has shape \(8, 8\), this config expects \(12, 8\)"):
            load_train_state(path, wider, cfg)

    def test_load_rejects_encoder_checkpoint(self, tmp_path):
        cfg = tiny_train_cfg()
        path = str(tmp_path / "state.rdck")
        export_teacher(path, init_train_state(TINY_VIT, TINY_SSL, cfg))
        with pytest.raises(InputError, match=r"not a training state.*"
                           r"'student\.encoder\.\S+' is missing"):
            load_train_state(path, TINY_SSL, cfg)

    def test_load_encoder_rejects_full_state(self, tmp_path):
        cfg = tiny_train_cfg()
        state = init_train_state(TINY_VIT, TINY_SSL, cfg)
        path = str(tmp_path / "state.rdck")
        save_train_state(path, state)
        with pytest.raises(InputError):
            load_encoder(path)


class TestStreamingWriter:
    def _same_bytes(self, tmp_path, params, cfg=TINY_VIT):
        got, want = str(tmp_path / "got.rdck"), str(tmp_path / "want.rdck")
        write_checkpoint(got, cfg, params)
        reference_write_checkpoint(want, cfg, params)
        assert filecmp.cmp(got, want, shallow=False)
        assert sorted(os.listdir(tmp_path)) == ["got.rdck", "want.rdck"]
        return read_checkpoint(got)[1]

    def test_default_state_matches_in_memory_writer(self, tmp_path):
        state = init_train_state(VitConfig(), SslConfig(), TrainConfig())
        self._same_bytes(tmp_path, trainer_mod._state_blobs(state), VitConfig())

    def test_odd_blobs_match_in_memory_writer(self, tmp_path, rng):
        wide = rng.normal(size=(6, 9)).astype(np.float32)
        params = {"zero_d": np.array(2.5, dtype=np.float32),
                  "float64": rng.normal(size=(3, 4)),
                  "strided": wide[1::2, ::3],
                  "transposed": wide.T,
                  "empty": np.zeros((0, 5), dtype=np.float32)}
        back = self._same_bytes(tmp_path, params)
        for name, arr in params.items():
            assert back[name].tobytes() == np.asarray(arr, np.float32).tobytes()

    def test_empty_dict_matches_in_memory_writer(self, tmp_path):
        assert self._same_bytes(tmp_path, {}) == {}

    def _old_file(self, tmp_path):
        path = str(tmp_path / "x.rdck")
        write_checkpoint(path, TINY_VIT, {"w": np.ones((2, 3), np.float32)})
        with open(path, "rb") as fh:
            return path, fh.read()

    def test_long_name_refused_before_writing(self, tmp_path):
        path, old = self._old_file(tmp_path)
        params = {"w": np.zeros((64, 64), np.float32), "n" * 65536: np.zeros(1)}
        with pytest.raises(InputError, match="parameter name too long"):
            write_checkpoint(path, TINY_VIT, params)
        with open(path, "rb") as fh:
            assert fh.read() == old
        assert os.listdir(tmp_path) == ["x.rdck"]

    def test_failed_write_leaves_old_file(self, tmp_path):
        # an extent of 2**32 does not fit its u32 field; the blob is empty
        path, old = self._old_file(tmp_path)
        params = {"w": np.ones((64, 64), np.float32),
                  "huge": np.zeros((2**32, 0), np.float32)}
        with pytest.raises(struct.error):
            write_checkpoint(path, TINY_VIT, params)
        with open(path, "rb") as fh:
            assert fh.read() == old
        assert os.listdir(tmp_path) == ["x.rdck"]


class TestCheckpointHeader:
    OTHER = VitConfig(image_size=96, patch_size=16, embed_dim=48, depth=3,
                      heads=6, mlp_ratio=2.5, in_channels=1)

    def test_encoded_bytes_match_golden(self):
        assert _encode_config(VitConfig()) == (
            b"image_size=64\npatch_size=8\nembed_dim=64\ndepth=2\nheads=4\n"
            b"mlp_ratio=4.0\nin_channels=3\n")
        assert _encode_config(self.OTHER) == (
            b"image_size=96\npatch_size=16\nembed_dim=48\ndepth=3\nheads=6\n"
            b"mlp_ratio=2.5\nin_channels=1\n")

    def test_decode_restores_types(self):
        back = _decode_config(_encode_config(self.OTHER))
        assert back == self.OTHER
        assert type(back.mlp_ratio) is float and type(back.depth) is int

    def test_decode_ignores_unknown_lines(self):
        raw = _encode_config(self.OTHER) + b"foo=1\n"
        assert _decode_config(raw) == self.OTHER

    def test_decode_rejects_missing_field(self):
        raw = _encode_config(self.OTHER).replace(b"depth=3\n", b"")
        with pytest.raises(InputError, match="depth"):
            _decode_config(raw)


def _rdck(cfg_bytes: bytes) -> bytes:
    """An RDCK file with this config text and no blobs."""
    return (b"RDCK" + struct.pack("<HI", 1, len(cfg_bytes)) + cfg_bytes
            + struct.pack("<I", 0))


class TestCorruptCheckpoint:
    def _read(self, tmp_path, raw):
        path = tmp_path / "bad.rdck"
        path.write_bytes(raw)
        with pytest.raises(InputError, match="bad.rdck"):
            read_checkpoint(str(path))

    def test_truncated_header(self, tmp_path):
        self._read(tmp_path, b"RDCK\x01")

    def _cut(self, tmp_path, edit, match):
        path = tmp_path / "bad.rdck"
        write_checkpoint(str(path), TINY_VIT, {"w": np.ones((2, 3), np.float32)})
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(InputError, match=match):
            read_checkpoint(str(path))

    def test_bad_magic(self, tmp_path):
        self._cut(tmp_path, lambda raw: b"RDCX" + raw[4:],
                  r"bad\.rdck: not a checkpoint file \(bad magic b'RDCX'\)")

    def test_unsupported_version(self, tmp_path):
        self._cut(tmp_path, lambda raw: raw[:4] + struct.pack("<H", 2) + raw[6:],
                  r"bad\.rdck: unsupported checkpoint version 2")

    def test_truncated_blob(self, tmp_path):
        self._cut(tmp_path, lambda raw: raw[:-1], r"bad\.rdck: truncated blob 'w'")

    def test_trailing_bytes(self, tmp_path):
        self._cut(tmp_path, lambda raw: raw + b"\0", r"bad\.rdck: 1 trailing bytes")

    def test_non_integer_config_value(self, tmp_path):
        cfg = _encode_config(VitConfig()).replace(b"image_size=64",
                                                  b"image_size=abc")
        self._read(tmp_path, _rdck(cfg))

    def test_non_utf8_config(self, tmp_path):
        self._read(tmp_path, _rdck(_encode_config(VitConfig()) + b"\xff\n"))

    def test_config_missing_field_names_file(self, tmp_path):
        path = tmp_path / "bad.rdck"
        path.write_bytes(_rdck(_encode_config(VitConfig()).replace(b"depth=2\n", b"")))
        with pytest.raises(InputError, match=r"bad\.rdck: .*missing fields: \['depth'\]"):
            read_checkpoint(str(path))

    @pytest.mark.parametrize("good,bad", [(b"image_size=64", b"image_size=0"),
                                          (b"patch_size=8", b"patch_size=0"),
                                          (b"heads=4", b"heads=0")])
    def test_config_value_out_of_range_names_file(self, tmp_path, good, bad):
        path = tmp_path / "bad.rdck"
        path.write_bytes(_rdck(_encode_config(VitConfig()).replace(good, bad)))
        field = bad.split(b"=")[0].decode()
        with pytest.raises(InputError, match=rf"bad\.rdck: {field} must be >= 1"):
            read_checkpoint(str(path))


class TestTrainConfigValidation:
    def test_negative_iterations(self):
        with pytest.raises(ParameterError):
            TrainConfig(iterations=-1)

    def test_iterations_up_to_exact_float32_counter(self):
        # the saved iteration counter is float32, exact only up to 2**24
        assert TrainConfig(iterations=2**24).iterations == 2**24
        with pytest.raises(ParameterError, match="iterations"):
            TrainConfig(iterations=2**24 + 1)

    def test_batch_of_one(self):
        with pytest.raises(ParameterError):
            TrainConfig(batch_size=1)

    def test_warmup_frac_range(self):
        with pytest.raises(ParameterError):
            TrainConfig(warmup_frac=1.0)

    def test_momentum_above_one(self):
        with pytest.raises(ParameterError):
            TrainConfig(teacher_momentum_end=1.5)

    @pytest.mark.parametrize("field, value", [
        ("weight_decay", float("nan")), ("weight_decay", -0.1),
        ("weight_decay", float("inf")), ("base_lr", float("nan")),
        ("base_lr", float("inf")), ("final_lr", float("inf")),
        ("final_lr", float("nan"))])
    def test_non_finite_or_negative_rates_rejected(self, field, value):
        # each of these used to be accepted: nan decay silently turned decay off
        with pytest.raises(ParameterError, match=field):
            TrainConfig(**{field: value})
