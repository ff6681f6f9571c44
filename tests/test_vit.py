"""Encoder: parameter arithmetic, patch extraction, forward determinism."""

import numpy as np
import pytest

import smearssl.tensor as T
from oracles import (encoder_param_count, grad_check, reference_size_configs,
                     seeded_encoder, vit_param_count)
from smearssl.errors import ParameterError
from smearssl.vit import (
    VitConfig,
    images_to_patches,
    init_vit_params,
    truncated_normal,
)

# closed-form count for the desk config, worked by hand:
#   stem 8*8*3*64+64 = 12352, pos (64+1)*64 = 4160, cls 64,
#   block 128 + 12480 + 4160 + 128 + 33088 = 49984 (x2), final ln 128
DESK_PARAMS = 116_672

# forward runs the last block on the CLS query alone, and BLAS rounds a
# one-row product differently from the same row inside a 65-row one, so it
# matches the all-token CLS row to rounding, not bit for bit. Over depths
# 1-3, seeds 0-7 and batches 1, 2, 16 and 64 the worst gaps measured were
# 1.6e-6 in float32 (about 13 ulps of 1.0) and 3.1e-15 in float64, on rows
# of magnitude up to 3; the bounds leave a margin of about 6x and 300x
CLS_ATOL = {np.float32: 1e-5, np.float64: 1e-12}

PAPER_COUNTS = {"small": 21_620_000, "base": 85_710_000, "large": 303_180_000}


class TestParameterCounts:
    def test_desk_config_exact(self):
        assert vit_param_count(VitConfig()) == DESK_PARAMS

    def test_live_encoder_matches_closed_form(self):
        enc = seeded_encoder(VitConfig())
        assert encoder_param_count(enc) == DESK_PARAMS

    @pytest.mark.parametrize("name", ["small", "base", "large"])
    def test_published_sizes_within_five_percent(self, name):
        got = vit_param_count(reference_size_configs()[name])
        want = PAPER_COUNTS[name]
        assert abs(got - want) / want < 0.05

    def test_closed_form_matches_instantiated_everywhere(self, rng):
        for _ in range(5):
            heads = int(rng.integers(1, 5))
            dim = heads * int(rng.integers(4, 17))
            patch = int(rng.choice([4, 8, 16]))
            cfg = VitConfig(image_size=patch * int(rng.integers(2, 5)),
                            patch_size=patch, embed_dim=dim,
                            depth=int(rng.integers(1, 4)), heads=heads)
            enc = seeded_encoder(cfg, 1)
            assert encoder_param_count(enc) == vit_param_count(cfg)


class TestConfigValidation:
    def test_image_size_must_divide(self):
        with pytest.raises(Exception):
            VitConfig(image_size=65, patch_size=8)

    def test_heads_must_divide_dim(self):
        with pytest.raises(Exception):
            VitConfig(embed_dim=64, heads=5)

    @pytest.mark.parametrize("ratio", [0.01, float("nan"), float("inf"), -1.0])
    def test_mlp_ratio_must_give_a_hidden_unit(self, ratio):
        with pytest.raises(ParameterError, match="mlp_ratio"):
            VitConfig(mlp_ratio=ratio)

    def test_grid_and_patch_count(self):
        cfg = VitConfig(image_size=64, patch_size=8)
        assert cfg.grid == 8
        assert cfg.num_patches == 64


class TestPatchExtraction:
    def test_shape(self):
        cfg = VitConfig()
        imgs = np.zeros((2, 64, 64, 3), dtype=np.float32)
        out = images_to_patches(imgs, cfg)
        assert out.shape == (2, 64, 8 * 8 * 3)

    def test_row_major_order(self):
        # paint patch (row 1, col 2) solid; exactly one patch row lights up
        cfg = VitConfig()
        img = np.zeros((1, 64, 64, 3), dtype=np.float32)
        img[0, 8:16, 16:24, :] = 1.0
        out = images_to_patches(img, cfg)
        hot = np.nonzero(out.sum(axis=-1)[0])[0]
        assert list(hot) == [1 * 8 + 2]
        assert np.all(out[0, 10] == 1.0)

    def test_single_pixel_touches_single_patch(self, rng):
        cfg = VitConfig()
        img = rng.normal(size=(1, 64, 64, 3)).astype(np.float32)
        base = images_to_patches(img, cfg)
        bump = img.copy()
        bump[0, 3, 60, 1] += 1.0
        diff = images_to_patches(bump, cfg) - base
        changed = np.nonzero(np.abs(diff).sum(axis=-1)[0])[0]
        assert list(changed) == [7]  # row 0, col 7


class TestForward:
    def test_output_shape(self, rng):
        enc = seeded_encoder(VitConfig())
        imgs = rng.uniform(size=(3, 64, 64, 3)).astype(np.float32)
        out = enc.forward(imgs)
        assert out.shape == (3, 64)

    def test_tokens_shape(self, rng):
        enc = seeded_encoder(VitConfig())
        imgs = rng.uniform(size=(2, 64, 64, 3)).astype(np.float32)
        assert enc.forward_tokens(imgs).shape == (2, 64, 64)

    @pytest.mark.parametrize("depth", [1, 2, 3])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_forward_matches_all_token_cls(self, rng, dtype, depth):
        enc = seeded_encoder(VitConfig(depth=depth), depth, dtype)
        imgs = rng.uniform(size=(16, 64, 64, 3)).astype(dtype)
        out = enc.forward(imgs).data
        assert out.dtype == dtype
        np.testing.assert_allclose(out, enc._tokens(imgs, cls_only=False).data[:, 0],
                                   rtol=0, atol=CLS_ATOL[dtype])

    @pytest.mark.parametrize("depth", [1, 2])
    def test_last_block_records_cls_rows_only(self, rng, depth):
        # from the last block's attention to the final layernorm every record
        # holds one row per image; only the reshape to [B, D] follows
        enc = seeded_encoder(VitConfig(depth=depth))
        imgs = rng.uniform(size=(3, 64, 64, 3)).astype(np.float32)
        with T.Tape() as tape:
            enc.forward(imgs)
        ops = [fn.__qualname__.split(".")[0] for _, fn in tape._records]
        outs = [out.shape for out, _ in tape._records]
        last = len(ops) - 1 - ops[::-1].index("attention")
        assert ops.count("attention") == depth and ops[last + 1] == "narrow"
        assert outs[last - 1] == (3, 65, 192)  # the qkv of every token
        assert all(s[:2] == (3, 1) for s in outs[last:-1])
        assert ops[-1] == "reshape" and outs[-1] == (3, 64)

    def test_forward_gradient_check_float64(self, rng):
        # finite differences through the shortened last block, with weights
        # large enough that attention is far from uniform
        cfg = VitConfig(image_size=16, patch_size=8, embed_dim=8, depth=2, heads=2)
        enc = seeded_encoder(cfg, 0, np.float64)
        for p in enc.params.values():
            p.data = rng.normal(0.0, 0.5, size=p.shape)
        imgs = rng.uniform(size=(2, 16, 16, 3))
        w = rng.normal(size=(2, 8))
        names = ["pos_embed", "cls_token", "blocks.0.attn.qkv.weight",
                 "blocks.1.attn.qkv.weight", "blocks.1.attn.qkv.bias",
                 "blocks.1.attn.proj.weight", "blocks.1.ln2.gain",
                 "blocks.1.mlp.fc1.weight", "final_ln.bias"]
        err = grad_check(lambda _: T.tensor_sum(T.mul(enc.forward(imgs), w)),
                         [enc.params[n] for n in names], max_coords=8)
        assert err < 1e-6

    def test_same_seed_bit_identical(self, rng):
        imgs = rng.uniform(size=(2, 64, 64, 3)).astype(np.float32)
        a = seeded_encoder(VitConfig(), 7).forward(imgs).data
        b = seeded_encoder(VitConfig(), 7).forward(imgs).data
        np.testing.assert_array_equal(a, b)

    def test_different_seed_differs(self, rng):
        imgs = rng.uniform(size=(1, 64, 64, 3)).astype(np.float32)
        a = seeded_encoder(VitConfig()).forward(imgs).data
        b = seeded_encoder(VitConfig(), 1).forward(imgs).data
        assert not np.array_equal(a, b)

    def test_batch_rows_independent(self, rng):
        # row i of the batch only depends on image i
        enc = seeded_encoder(VitConfig())
        imgs = rng.uniform(size=(2, 64, 64, 3)).astype(np.float32)
        both = enc.forward(imgs).data
        solo = enc.forward(imgs[1:]).data
        np.testing.assert_allclose(both[1], solo[0], atol=1e-5)

    def test_gradients_reach_all_parameters(self, rng):
        enc = seeded_encoder(VitConfig(depth=1), 0, np.float64)
        imgs = rng.uniform(size=(1, 64, 64, 3))
        for p in enc.params.values():
            p.requires_grad = True
        with T.Tape() as tape:
            out = enc.forward(imgs)
            tape.backward(T.tensor_sum(T.mul(out, out)))
        for name, p in enc.params.items():
            assert p.grad is not None, name
            assert np.all(np.isfinite(p.grad)), name

    @pytest.mark.parametrize("b", [1, 3, 64])
    def test_cls_token_gradient_matches_concat_form(self, rng, monkeypatch, b):
        # the CLS rows come from one broadcast add; its gradient must equal,
        # bit for bit in float32, the old form's: reshape, a concat of B
        # copies (B accumulations in row order), reshape
        cfg = VitConfig(image_size=16, patch_size=8, embed_dim=16, depth=1, heads=2)
        enc = seeded_encoder(cfg)
        imgs = rng.uniform(size=(b, 16, 16, 3)).astype(np.float32)
        w = T.Tensor(rng.normal(size=(b, 16)).astype(np.float32))
        concats, concat = [], T.concat

        def spy(tensors, axis=0):
            concats.append(concat(tensors, axis))
            return concats[-1]

        monkeypatch.setattr(T, "concat", spy)
        with T.Tape() as tape:
            tape.backward(T.tensor_sum(T.mul(enc.forward(imgs), w)))
        tokens = concats[0]  # [B, 1+N, D], CLS first
        cls = enc.params["cls_token"]
        assert tokens.data[:, 0].tobytes() == np.tile(cls.data, b).tobytes()

        ref = T.Tensor(cls.data, requires_grad=True)
        with T.Tape() as tape:
            rows = concat([T.reshape(ref, (1, 16))] * b, axis=0)
            full = concat([T.reshape(rows, (b, 1, 16)), T.Tensor(tokens.data[:, 1:])], axis=1)
            full.grad = tokens.grad.copy()
            tape.backward(full)
        assert ref.grad.dtype == np.float32
        assert ref.grad.tobytes() == cls.grad.tobytes()


class TestInit:
    def test_truncated_normal_bounds(self, rng):
        draws = truncated_normal(rng, (4000,), std=0.02)
        assert np.max(np.abs(draws)) <= 0.04 + 1e-9

    def test_param_names_complete(self):
        cfg = VitConfig()
        params = init_vit_params(cfg, np.random.Generator(np.random.PCG64(0)))
        assert sum(p.data.size for p in params.values()) == DESK_PARAMS
        assert "cls_token" in params and "pos_embed" in params
