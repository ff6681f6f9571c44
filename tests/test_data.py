"""Ingestion path: codecs, patch tiling, cell crops, augmentation views,
manifests, and the synthetic corpus."""

import os

import numpy as np
import pytest

import smearssl.synthetic as synthetic
from oracles import (classify_by_eccentricity, eccentricity_feature,
                     patch_count_formula, reference_render_cell,
                     reference_resize_bilinear)
from smearssl.augment import CropSpec, multicrop, resize_bilinear
from smearssl.data import (
    ManifestRecord,
    SmearImage,
    extract_cells,
    load_manifest,
    patchify,
    save_manifest,
)
from smearssl.errors import DimensionError, InputError, ParameterError
from smearssl.netpbm import read_pgm, read_ppm, write_pgm16, write_ppm
from smearssl.synthetic import (
    CLASS_NAMES,
    SynthConfig,
    gen_synthetic,
    write_dataset,
)


def smear(pixels, source="srcA", image_id="img0"):
    return SmearImage(pixels=pixels, source_id=source, image_id=image_id)


def checker(h, w, seed=0):
    g = np.random.Generator(np.random.PCG64(seed))
    return g.integers(0, 256, size=(h, w, 3), dtype=np.int64).astype(np.uint8)


class TestNetpbm:
    def test_ppm_roundtrip_bits(self, tmp_path, rng):
        img = rng.integers(0, 256, size=(13, 7, 3)).astype(np.uint8)
        p = str(tmp_path / "x.ppm")
        write_ppm(p, img)
        np.testing.assert_array_equal(read_ppm(p), img)

    def test_pgm16_roundtrip_bits(self, tmp_path, rng):
        mask = rng.integers(0, 65536, size=(9, 11)).astype(np.uint16)
        p = str(tmp_path / "m.pgm")
        write_pgm16(p, mask)
        np.testing.assert_array_equal(read_pgm(p), mask)

    def test_pgm_eight_bit_read(self, tmp_path):
        p = str(tmp_path / "small.pgm")
        body = bytes([0, 63, 127, 255])
        with open(p, "wb") as fh:
            fh.write(b"P5\n2 2\n255\n" + body)
        out = read_pgm(p)
        assert out.dtype == np.uint16
        np.testing.assert_array_equal(out, [[0, 63], [127, 255]])

    def test_header_comments_ignored(self, tmp_path):
        p = str(tmp_path / "c.ppm")
        with open(p, "wb") as fh:
            fh.write(b"P6\n# comment line\n2 1\n# another\n255\n" + bytes(6))
        assert read_ppm(p).shape == (1, 2, 3)

    def test_wrong_magic_rejected(self, tmp_path):
        p = str(tmp_path / "bad.ppm")
        with open(p, "wb") as fh:
            fh.write(b"P3\n1 1\n255\n0 0 0\n")
        with pytest.raises(InputError):
            read_ppm(p)

    def test_truncated_data_rejected(self, tmp_path):
        p = str(tmp_path / "short.ppm")
        with open(p, "wb") as fh:
            fh.write(b"P6\n4 4\n255\n" + bytes(10))
        with pytest.raises(InputError):
            read_ppm(p)

    @pytest.mark.parametrize("magic,reader", [(b"P6", read_ppm), (b"P5", read_pgm)])
    @pytest.mark.parametrize("size", [b"-1 5", b"0 5", b"5 0"])
    def test_nonpositive_size_rejected(self, tmp_path, magic, reader, size):
        p = str(tmp_path / "bad.pnm")
        with open(p, "wb") as fh:
            fh.write(magic + b"\n" + size + b"\n255\n" + bytes(105))
        with pytest.raises(InputError, match="bad image size"):
            reader(p)

    @pytest.mark.parametrize("header", [b"P6\n4 4", b"P6\n4 4 255"])
    def test_truncated_header_rejected(self, tmp_path, header):
        p = str(tmp_path / "h.ppm")
        with open(p, "wb") as fh:
            fh.write(header)
        with pytest.raises(InputError, match="^truncated netpbm header$"):
            read_ppm(p)

    def test_bad_header_token_rejected(self, tmp_path):
        p = str(tmp_path / "t.ppm")
        with open(p, "wb") as fh:
            fh.write(b"P6\n4 x4 255\n" + bytes(48))
        with pytest.raises(InputError, match=r"bad netpbm header token b'x4'"):
            read_ppm(p)

    @pytest.mark.parametrize("writer, image, message", [
        (write_ppm, np.zeros((4, 4), np.uint8),
         r"PPM writer needs \[H,W,3\], got shape \(4, 4\)"),
        (write_ppm, np.zeros((4, 4, 3), np.float32),
         "PPM writer needs uint8 pixels, got float32"),
        (write_pgm16, np.zeros((4, 4, 1), np.uint16),
         r"PGM writer needs \[H,W\], got shape \(4, 4, 1\)"),
        (write_pgm16, np.zeros((4, 4), np.uint8),
         "PGM writer needs uint16 labels, got uint8")])
    def test_writer_refuses_shape_or_dtype(self, tmp_path, writer, image, message):
        p = tmp_path / "out.pnm"
        with pytest.raises(InputError, match=message):
            writer(str(p), image)
        assert not p.exists()

    def test_ppm_maxval_other_than_255_rejected(self, tmp_path):
        p = str(tmp_path / "deep.ppm")
        with open(p, "wb") as fh:
            fh.write(b"P6\n1 1\n65535\n" + bytes(6))
        with pytest.raises(InputError, match=r"deep\.ppm: only 8-bit PPM "
                           r"supported \(maxval 65535\)"):
            read_ppm(p)

    def test_pgm_wrong_magic_rejected(self, tmp_path):
        p = str(tmp_path / "ascii.pgm")
        with open(p, "wb") as fh:
            fh.write(b"P2\n1 1\n255\n0\n")
        with pytest.raises(InputError, match=r"ascii\.pgm: not a binary PGM "
                           r"\(magic b'P2'\)"):
            read_pgm(p)

    @pytest.mark.parametrize("maxval", [b"0", b"65536"])
    def test_pgm_bad_maxval_rejected(self, tmp_path, maxval):
        p = str(tmp_path / "m.pgm")
        with open(p, "wb") as fh:
            fh.write(b"P5\n1 1\n" + maxval + b"\n" + bytes(2))
        with pytest.raises(InputError, match=rf"m\.pgm: bad maxval {int(maxval)}$"):
            read_pgm(p)

    @pytest.mark.parametrize("maxval, body", [(b"255", 3), (b"65535", 7)])
    def test_pgm_truncated_pixel_data_rejected(self, tmp_path, maxval, body):
        p = str(tmp_path / "short.pgm")
        with open(p, "wb") as fh:
            fh.write(b"P5\n2 2\n" + maxval + b"\n" + bytes(body))
        with pytest.raises(InputError, match=r"short\.pgm: truncated pixel data"):
            read_pgm(p)

    def test_sixteen_bit_is_big_endian_on_disk(self, tmp_path):
        p = str(tmp_path / "be.pgm")
        write_pgm16(p, np.array([[0x0102]], dtype=np.uint16))
        with open(p, "rb") as fh:
            raw = fh.read()
        assert raw.endswith(b"\x01\x02")


class TestPatchify:
    def test_exact_tiling_448_by_672(self):
        img = smear(checker(448, 672))
        tiles = patchify(img, 224)
        assert len(tiles) == 6
        np.testing.assert_array_equal(tiles[0], img.pixels[:224, :224])
        np.testing.assert_array_equal(tiles[5], img.pixels[224:, 448:])

    def test_identity_patch(self):
        img = smear(checker(224, 224))
        tiles = patchify(img, 224)
        assert len(tiles) == 1
        np.testing.assert_array_equal(tiles[0], img.pixels)

    def test_small_image_upscaled_100_by_300(self):
        tiles = patchify(smear(checker(100, 300)), 224)
        # scale 2.24 -> 224 x 672 -> 1 x 3 tiles
        assert len(tiles) == 3
        assert all(t.shape == (224, 224, 3) for t in tiles)

    def test_remainder_margins_discarded(self):
        img = smear(checker(300, 500))
        tiles = patchify(img, 224)
        assert len(tiles) == patch_count_formula(300, 500, 224) == 2
        np.testing.assert_array_equal(tiles[1], img.pixels[:224, 224:448])

    def test_tiles_disjoint_and_cover_grid(self):
        img = smear(checker(448, 448))
        tiles = patchify(img, 224)
        rebuilt = np.zeros_like(img.pixels)
        rebuilt[:224, :224] = tiles[0]
        rebuilt[:224, 224:] = tiles[1]
        rebuilt[224:, :224] = tiles[2]
        rebuilt[224:, 224:] = tiles[3]
        np.testing.assert_array_equal(rebuilt, img.pixels)

    def test_count_agrees_with_actual_tiles(self):
        g = np.random.Generator(np.random.PCG64(7))
        for _ in range(20):
            h = int(g.integers(40, 600))
            w = int(g.integers(40, 600))
            tiles = patchify(smear(checker(h, w, seed=h * w)), 224)
            assert len(tiles) == patch_count_formula(h, w, 224), (h, w)


class TestExtractCells:
    def _img(self, h=224, w=224):
        px = np.full((h, w, 3), 200, dtype=np.uint8)
        return smear(px)

    def test_single_blob_one_crop(self):
        img = self._img()
        mask = np.zeros((224, 224), dtype=np.uint16)
        mask[87:137, 87:137] = 1
        crops, skipped = extract_cells(img, mask, 224)
        assert len(crops) == 1 and skipped == 0
        assert crops[0].shape == (224, 224, 3)

    def test_empty_mask_no_crops(self):
        crops, skipped = extract_cells(self._img(), np.zeros((224, 224), np.uint16), 224)
        assert crops == [] and skipped == 0

    def test_two_blobs_two_crops(self):
        img = self._img()
        mask = np.zeros((224, 224), dtype=np.uint16)
        mask[10:40, 10:40] = 1
        mask[150:200, 150:190] = 2
        crops, skipped = extract_cells(img, mask, 224)
        assert len(crops) == 2 and skipped == 0

    def test_tiny_label_skipped_and_counted(self):
        img = self._img()
        mask = np.zeros((224, 224), dtype=np.uint16)
        mask[0:3, 0:3] = 1   # 9 px, below the 16-px floor
        mask[100:140, 100:140] = 2
        crops, skipped = extract_cells(img, mask, 224)
        assert len(crops) == 1 and skipped == 1

    def test_bounding_boxes_match_naive_scan(self):
        g = np.random.Generator(np.random.PCG64(3))
        px = g.integers(0, 256, size=(120, 160, 3)).astype(np.uint8)
        img = smear(px)
        mask = np.zeros((120, 160), dtype=np.uint16)
        mask[20:50, 30:55] = 1
        mask[70:110, 90:150] = 2
        crops, _ = extract_cells(img, mask, out_size=64)
        for lab in (1, 2):
            ys, xs = np.nonzero(mask == lab)
            assert (ys.min(), ys.max()) == {
                1: (20, 49), 2: (70, 109)}[lab]
            assert (xs.min(), xs.max()) == {
                1: (30, 54), 2: (90, 149)}[lab]
        assert len(crops) == 2

    def test_margin_expands_twelve_percent(self):
        # blob rows 100..139 (h=40) -> margin 5 -> rows 95..144
        img = self._img()
        img.pixels[95, 100:140] = [9, 9, 9]   # row just inside the margin
        mask = np.zeros((224, 224), dtype=np.uint16)
        mask[100:140, 100:140] = 1
        crops, _ = extract_cells(img, mask, out_size=50)
        assert np.any(crops[0] < 50)  # the dark margin row made it in

    def test_mask_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            extract_cells(self._img(), np.zeros((10, 10), np.uint16), 224)

    def test_edge_blob_clamped(self):
        img = self._img()
        mask = np.zeros((224, 224), dtype=np.uint16)
        mask[0:30, 0:30] = 1
        crops, skipped = extract_cells(img, mask, 224)
        assert len(crops) == 1 and skipped == 0


class TestMulticrop:
    def test_two_global_views_by_default(self, rng):
        img = checker(64, 64)
        spec = CropSpec(global_size=32)
        views = multicrop(img, spec, rng)
        assert len(views) == 2
        for v in views:
            assert v.shape == (32, 32, 3)

    def test_identity_pipeline_reproduces_input(self, rng):
        img = checker(48, 48)
        spec = CropSpec(global_size=48, global_scale=(1.0, 1.0), flip_p=0.0,
                        jitter_p=0.0, grayscale_p=0.0, blur_p=0.0,
                        solarize_p=0.0)
        views = multicrop(img, spec, rng)
        for v in views:
            np.testing.assert_allclose(v, img.astype(np.float32) / 255.0,
                                       atol=1e-6)

    def test_same_seed_bit_identical(self):
        img = checker(64, 64)
        spec = CropSpec(global_size=32)
        a = multicrop(img, spec, np.random.Generator(np.random.PCG64(11)))
        b = multicrop(img, spec, np.random.Generator(np.random.PCG64(11)))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_pixels_stay_in_unit_range(self, rng):
        img = checker(64, 64)
        spec = CropSpec(global_size=32, jitter_p=1.0, jitter_strength=0.5,
                        solarize_p=1.0, blur_p=1.0)
        for _ in range(5):
            for v in multicrop(img, spec, rng):
                assert v.min() >= 0.0 and v.max() <= 1.0

    def test_spec_validation(self):
        with pytest.raises(ParameterError):
            CropSpec(global_scale=(0.0, 1.0))
        with pytest.raises(ParameterError):
            CropSpec(flip_p=1.5)

    @pytest.mark.parametrize("field", ["jitter_strength", "blur_sigma",
                                       "solarize_threshold"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_spec_float_rejected(self, field, value):
        with pytest.raises(ParameterError, match=field):
            CropSpec(**{field: value})

    def test_blur_radius_must_stay_below_crop_side(self):
        # the constructor only: gaussian_blur stacks 2 * radius + 1 shifted
        # copies of a view, so a blur this wide is never run
        with pytest.raises(ParameterError, match="blur_sigma"):
            CropSpec(global_size=64, blur_sigma=63.6 / 3)  # radius 64
        CropSpec(global_size=64, blur_sigma=63.4 / 3)  # radius 63
        CropSpec(global_size=64, blur_p=0.0, blur_sigma=1e6)  # never blurs

    def test_resize_bilinear_identity(self, rng):
        # the identity branch is a fast path: it must give the interpolation's
        # bytes, which are the input's, for [0, 1] views, for the 0-255 floats
        # extract_cells resizes and for a strided crop view
        unit = rng.uniform(size=(17, 23, 3)).astype(np.float32)
        bytes255 = rng.integers(0, 256, size=(31, 9, 3)).astype(np.float32)
        view = rng.uniform(size=(40, 50, 3)).astype(np.float32)[3:37:2, 5:45:3]
        for img in (unit, bytes255, view):
            h, w = img.shape[:2]
            got = resize_bilinear(img, h, w)
            assert got.tobytes() == reference_resize_bilinear(img, h, w).tobytes()
            assert got.tobytes() == np.ascontiguousarray(img).tobytes()

    def test_separable_resize_matches_four_corner_oracle(self, rng):
        # up- and downsampling, 1-pixel sources and strided crop views
        for _ in range(300):
            h, w, out_h, out_w = (int(n) for n in rng.integers(1, 80, size=4))
            base = rng.uniform(size=(2 * h + 3, 2 * w + 3, 3)).astype(np.float32)
            y, x, step = (int(n) for n in rng.integers(1, 3, size=3))
            img = base[y:y + step * h:step, x:x + step * w:step]
            got = resize_bilinear(img, out_h, out_w)
            want = reference_resize_bilinear(img, out_h, out_w)
            assert got.dtype == np.float32 and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), (h, w, out_h, out_w, step)


class TestManifest:
    def test_roundtrip(self, tmp_path):
        d = str(tmp_path)
        for name in ("a.ppm", "b.ppm"):
            write_ppm(os.path.join(d, name), np.zeros((2, 2, 3), np.uint8))
        records = [
            ManifestRecord("a.ppm", "patch", "src0", "disc"),
            ManifestRecord("b.ppm", "patch", "src1", None),
        ]
        mpath = os.path.join(d, "manifest.csv")
        save_manifest(mpath, records)
        back = load_manifest(mpath)
        assert [os.path.basename(r.path) for r in back] == ["a.ppm", "b.ppm"]
        assert back[0].label == "disc" and back[1].label is None
        assert back[0].source_id == "src0"

    def test_missing_file_rejected(self, tmp_path):
        # an empty path names the manifest's directory, which is not a file
        mpath = str(tmp_path / "manifest.csv")
        for name in ("ghost.ppm", ""):
            save_manifest(mpath, [ManifestRecord(name, "patch", "s", None)])
            with pytest.raises(InputError, match="file not found"):
                load_manifest(mpath)

    def test_mixed_kinds_rejected(self, tmp_path):
        d = str(tmp_path)
        for name in ("a.ppm", "b.ppm"):
            write_ppm(os.path.join(d, name), np.zeros((2, 2, 3), np.uint8))
        mpath = os.path.join(d, "manifest.csv")
        save_manifest(mpath, [
            ManifestRecord("a.ppm", "patch", "s", None),
            ManifestRecord("b.ppm", "cell", "s", None),
        ])
        with pytest.raises(InputError):
            load_manifest(mpath)

    def test_bad_kind_rejected(self, tmp_path):
        write_ppm(str(tmp_path / "x.ppm"), np.zeros((2, 2, 3), np.uint8))
        mpath = str(tmp_path / "manifest.csv")
        with open(mpath, "w") as fh:
            fh.write("path,kind,source_id,label\nx.ppm,slide,s,\n")
        with pytest.raises(InputError, match="bad kind"):
            load_manifest(mpath)

    @pytest.mark.parametrize("body, match", [
        (b"x.ppm,patch\n", "line 2 does not have the 4 fields"),
        (b"x.ppm,patch,s,,extra\n", "line 2 does not have the 4 fields"),
        (b"x.ppm,patch,s,\n\xff.ppm,patch,s,\n", "line 3 is not UTF-8"),
    ], ids=["too_few_fields", "too_many_fields", "not_utf8"])
    def test_malformed_row_rejected_naming_line(self, tmp_path, body, match):
        write_ppm(str(tmp_path / "x.ppm"), np.zeros((2, 2, 3), np.uint8))
        mpath = tmp_path / "manifest.csv"
        mpath.write_bytes(b"path,kind,source_id,label\n" + body)
        with pytest.raises(InputError, match=rf"manifest\.csv: {match}"):
            load_manifest(str(mpath))

    def test_bad_header_rejected(self, tmp_path):
        mpath = str(tmp_path / "manifest.csv")
        with open(mpath, "w") as fh:
            fh.write("file,type\nx.ppm,patch\n")
        with pytest.raises(InputError):
            load_manifest(mpath)


class TestSynthetic:
    def test_fixed_seed_bit_identical(self):
        cfg = SynthConfig(n_images=6)
        a = gen_synthetic(cfg)
        b = gen_synthetic(cfg)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.image.pixels, y.image.pixels)
            np.testing.assert_array_equal(x.mask, y.mask)

    def test_zero_images_empty(self):
        assert gen_synthetic(SynthConfig(n_images=0)) == []

    def test_source_tint_separates_channel_means(self):
        cfg = SynthConfig(n_images=40, sources=2, tint_delta=0.04)
        samples = gen_synthetic(cfg)
        by_src = {s: [] for s in ("src0", "src1")}
        for smp in samples:
            by_src[smp.image.source_id].append(
                smp.image.pixels.astype(np.float64).mean(axis=(0, 1)))
        m0 = np.mean(by_src["src0"], axis=0) / 255.0
        m1 = np.mean(by_src["src1"], axis=0) / 255.0
        # green raised by 2*delta, red lowered by delta on source 1
        assert m1[1] - m0[1] >= cfg.tint_delta
        assert m0[0] - m1[0] >= 0.25 * cfg.tint_delta

    def test_sources_and_classes_cycle(self):
        samples = gen_synthetic(SynthConfig(n_images=12, sources=2, classes=3))
        assert [s.image.source_id for s in samples[:4]] == \
            ["src0", "src1", "src0", "src1"]
        assert [s.label for s in samples[:6]] == [CLASS_NAMES[i] for i in (0, 0, 1, 1, 2, 2)]

    def test_masks_label_cells_consecutively(self):
        for smp in gen_synthetic(SynthConfig(n_images=4, cells_min=2,
                                             cells_max=4)):
            labs = np.unique(smp.mask)
            labs = labs[labs > 0]
            assert labs.size >= 1
            np.testing.assert_array_equal(labs, np.arange(1, labs.size + 1))

    def test_parasite_class_gets_overlay(self):
        cfg = SynthConfig(n_images=8, classes=4)
        samples = gen_synthetic(cfg)
        for smp in samples:
            if smp.label == "parasite":
                assert smp.overlay_mask is not None
                assert smp.overlay_mask.sum() > 0
            else:
                assert smp.overlay_mask is None

    def test_eccentricity_classifier_beats_ninety_percent(self):
        samples = gen_synthetic(SynthConfig(n_images=60, classes=3))
        hits = sum(classify_by_eccentricity(s.image.pixels) == CLASS_NAMES.index(s.label)
                   for s in samples)
        assert hits / len(samples) > 0.9

    def test_eccentricity_feature_orders_classes(self):
        samples = gen_synthetic(SynthConfig(n_images=30, classes=3))
        per_class = {i: [] for i in range(3)}
        for s in samples:
            per_class[CLASS_NAMES.index(s.label)].append(eccentricity_feature(s.image.pixels))
        disc, sickle, echino = (np.mean(per_class[i]) for i in range(3))
        assert disc < echino < sickle

    def test_write_dataset_roundtrip(self, tmp_path):
        samples = gen_synthetic(SynthConfig(n_images=4))
        manifest = write_dataset(str(tmp_path), samples)
        records = load_manifest(manifest)
        assert len(records) == 4
        first = read_ppm(records[0].path)
        np.testing.assert_array_equal(first, samples[0].image.pixels)
        mask = read_pgm(os.path.join(str(tmp_path),
                                     samples[0].image.image_id + "_mask.pgm"))
        np.testing.assert_array_equal(mask, samples[0].mask)

    def test_invalid_configs_rejected(self):
        with pytest.raises(ParameterError):
            SynthConfig(classes=9)
        with pytest.raises(ParameterError):
            SynthConfig(n_images=-1)
        with pytest.raises(ParameterError):
            SynthConfig(cells_min=5, cells_max=3)
        with pytest.raises(ParameterError):
            SynthConfig(cell_radius_lo=0.0)
        with pytest.raises(ParameterError, match=r"^image_size must be >= 16, got 8$"):
            SynthConfig(image_size=8)

    @pytest.mark.parametrize("kwargs", [dict(noise_base=-1.0),
                                        dict(noise_base=0.01, noise_step=-0.02),
                                        dict(noise_step=-0.004, sources=5),
                                        dict(noise_step=float("nan"))])
    def test_negative_or_nan_noise_rejected(self, kwargs):
        with pytest.raises(ParameterError, match="noise"):
            SynthConfig(**kwargs)

    @pytest.mark.parametrize("field,value", [("tint_delta", float("nan")),
                                             ("tint_delta", float("-inf")),
                                             ("illum", float("inf")),
                                             ("illum", float("nan"))])
    def test_non_finite_tint_or_illum_rejected(self, field, value):
        with pytest.raises(ParameterError, match=field):
            SynthConfig(**{field: value})

    def test_noise_reaching_zero_accepted(self):
        cfg = SynthConfig(n_images=2, noise_base=0.008, noise_step=-0.008)
        assert len(gen_synthetic(cfg)) == 2

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("size", [16, 64, 97])
    def test_windowed_cells_match_full_frame_oracle(self, monkeypatch, size, seed):
        # all 8 classes; radii up to 0.49 so cells touch the frame edge
        cfg = SynthConfig(n_images=16, classes=8, image_size=size, cells_max=12,
                          cell_radius_lo=0.05, cell_radius_hi=0.49, seed=seed)
        got = gen_synthetic(cfg)
        monkeypatch.setattr(synthetic, "_render_cell", reference_render_cell)
        want = gen_synthetic(cfg)
        assert {s.label for s in got} == set(CLASS_NAMES)
        for g, w in zip(got, want, strict=True):
            assert g.image.pixels.tobytes() == w.image.pixels.tobytes()
            assert g.mask.tobytes() == w.mask.tobytes()
            if w.overlay_mask is None:
                assert g.overlay_mask is None
            else:
                assert g.overlay_mask.tobytes() == w.overlay_mask.tobytes()

    def test_prefix_of_longer_corpus_is_shorter_corpus(self):
        # each image depends only on (seed, index)
        cfg = SynthConfig(n_images=4, classes=8, seed=3)
        short = gen_synthetic(cfg)
        long = gen_synthetic(SynthConfig(n_images=11, classes=8, seed=3))
        for a, b in zip(short, long[:4], strict=True):
            assert (a.image.image_id, a.label) == (b.image.image_id, b.label)
            assert a.image.pixels.tobytes() == b.image.pixels.tobytes()
            assert a.mask.tobytes() == b.mask.tobytes()


class TestSmearImageValidation:
    def test_wrong_dtype_rejected(self):
        with pytest.raises(InputError):
            smear(np.zeros((4, 4, 3), dtype=np.float32))

    def test_missing_channel_rejected(self):
        with pytest.raises(InputError):
            smear(np.zeros((4, 4), dtype=np.uint8))

    def test_empty_source_rejected(self):
        with pytest.raises(InputError):
            SmearImage(np.zeros((4, 4, 3), np.uint8), source_id="",
                       image_id="x")
