"""CLI surface: help snapshots, exit codes, config plumbing, and the
thin-adapter guarantee (command output == module-op output)."""

import argparse
import io
import logging
import os
import shutil
import struct
import subprocess
import sys
from contextlib import redirect_stdout

import numpy as np
import pytest

import smearssl.cli as cli
from oracles import seeded_encoder
from smearssl.checkpoint import _encode_config, write_checkpoint
from smearssl.cli import build_parser, main
from smearssl.config import (DEFAULTS, RunConfig, apply_overrides, load_config,
                             parse_config_text)
from smearssl.data import load_manifest, save_manifest
from smearssl.embeddings import EmbeddingSet, read_embeddings, write_embeddings
from smearssl.errors import InputError, NumericError
from smearssl.netpbm import read_ppm, write_ppm
from smearssl.probes import knn, linear_probe
from smearssl.protocols import (EvalReport, SplitRecord, kfold,
                                leave_one_source_out, write_report_csv)
from smearssl.trainer import init_train_state, load_encoder
from smearssl.vit import VitConfig

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

COMMANDS = ["gen-synthetic", "patchify", "extract-cells", "train", "embed",
            "eval-linear", "eval-knn", "eval-loso", "eval-kfold", "pca-map"]

# flags every command's help must enumerate (subset; goldens pin the rest)
REQUIRED_FLAGS = {
    "gen-synthetic": ["--out", "--n-images", "--sources", "--classes", "--seed",
                      "--no-masks"],
    "patchify": ["--image", "--out", "--patch", "--source-id", "--label"],
    "extract-cells": ["--image", "--mask", "--out", "--cell-size"],
    "train": ["--manifest", "--out", "--iterations", "--batch-size", "--seed",
              "--resume"],
    "embed": ["--checkpoint", "--manifest", "--out", "--batch-size"],
    "eval-linear": ["--train-emb", "--test-emb", "--reg-lambda", "--report"],
    "eval-knn": ["--train-emb", "--test-emb", "--k", "--metric", "--report"],
    "eval-loso": ["--emb", "--classifier", "--k", "--report"],
    "eval-kfold": ["--emb", "--classifier", "--k", "--folds", "--seed",
                   "--report"],
    "pca-map": ["--checkpoint", "--image", "--out"],
}

# each command's handler, and its required flags with values that no test of
# config building reads: the config is built before the handler runs
HANDLERS = {"gen-synthetic": "cmd_gen_synthetic", "patchify": "cmd_patchify",
            "extract-cells": "cmd_extract_cells", "train": "cmd_train",
            "embed": "cmd_embed", "eval-linear": "cmd_eval_pair",
            "eval-knn": "cmd_eval_pair", "eval-loso": "cmd_eval_loso",
            "eval-kfold": "cmd_eval_kfold", "pca-map": "cmd_pca_map"}
STUB_ARGS = {
    "gen-synthetic": ["--out", "o"], "patchify": ["--image", "i", "--out", "o"],
    "extract-cells": ["--image", "i", "--mask", "m", "--out", "o"],
    "train": ["--manifest", "m", "--out", "o"],
    "embed": ["--checkpoint", "c", "--manifest", "m", "--out", "o"],
    "eval-linear": ["--train-emb", "a", "--test-emb", "b"],
    "eval-knn": ["--train-emb", "a", "--test-emb", "b"],
    "eval-loso": ["--emb", "e"], "eval-kfold": ["--emb", "e"],
    "pca-map": ["--checkpoint", "c", "--image", "i", "--out", "o"],
}

# every shortcut flag: (command, flag, text, key, value the key takes)
SHORTCUTS = [
    ("gen-synthetic", "--n-images", "7", "synth.n_images", 7),
    ("gen-synthetic", "--sources", "3", "synth.sources", 3),
    ("gen-synthetic", "--classes", "4", "synth.classes", 4),
    ("gen-synthetic", "--seed", "11", "run.seed", 11),
    ("patchify", "--patch", "32", "data.patch_size", 32),
    ("extract-cells", "--cell-size", "48", "data.cell_size", 48),
    ("train", "--iterations", "9", "train.iterations", 9),
    ("train", "--batch-size", "4", "train.batch_size", 4),
    ("train", "--seed", "12", "run.seed", 12),
    ("embed", "--batch-size", "5", "embed.batch_size", 5),
    ("eval-linear", "--reg-lambda", "0.5", "eval.reg_lambda", 0.5),
    ("eval-knn", "--k", "3", "eval.k", 3),
    ("eval-knn", "--metric", "euclidean", "eval.metric", "euclidean"),
    ("eval-loso", "--classifier", "linear", "eval.classifier", "linear"),
    ("eval-loso", "--k", "4", "eval.k", 4),
    ("eval-kfold", "--classifier", "linear", "eval.classifier", "linear"),
    ("eval-kfold", "--k", "4", "eval.k", 4),
    ("eval-kfold", "--folds", "3", "eval.folds", 3),
    ("eval-kfold", "--seed", "13", "run.seed", 13),
]

TINY_SETS = [
    "vit.embed_dim=16", "vit.depth=1", "vit.heads=2", "vit.patch_size=16",
    "ssl.head_hidden=16", "ssl.bottleneck=8", "ssl.num_prototypes=8",
]


@pytest.fixture(scope="module", autouse=True)
def _pin_log_stream():
    # Bind the root handler to the real stderr before any main() call so
    # log records never land on a capsys buffer that pytest later discards.
    logging.basicConfig(stream=sys.__stderr__, level=logging.WARNING)


def run_cli(argv, capsys):
    rc = main(argv)
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


def tiny_args(extra=()):
    args = []
    for kv in TINY_SETS:
        args += ["--set", kv]
    return args + list(extra)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    rc = main(["gen-synthetic", "--out", str(out), "--n-images", "6",
               "--seed", "0"])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def trained(tmp_path_factory, dataset):
    out = tmp_path_factory.mktemp("run")
    rc = main(["train", "--manifest", str(dataset / "manifest.csv"),
               "--out", str(out), "--iterations", "2", "--batch-size", "2",
               "--seed", "1"] + tiny_args())
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def emb_files(tmp_path_factory):
    """Two separable classes, two sources; 24 train rows and 10 test rows."""
    rng = np.random.Generator(np.random.PCG64(77))

    def build(n_per_class):
        vecs, labels, sources = [], [], []
        for ci, cls in enumerate(("a", "b")):
            center = np.zeros(8)
            center[ci] = 4.0
            for j in range(n_per_class):
                vecs.append(center + 0.05 * rng.standard_normal(8))
                labels.append(cls)
                sources.append(f"src{j % 2}")
        ids = [f"r{i}" for i in range(len(vecs))]
        return EmbeddingSet(vectors=np.array(vecs, dtype=np.float32),
                            ids=ids, sources=sources, labels=labels)

    d = tmp_path_factory.mktemp("emb")
    tr_path, te_path = str(d / "train.emb1"), str(d / "test.emb1")
    write_embeddings(tr_path, build(12))
    write_embeddings(te_path, build(5))
    return tr_path, te_path


class TestHelp:
    def _capture(self, argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            rc = main(argv)
        assert rc == 0
        return buf.getvalue()

    def test_top_help_matches_golden(self):
        with open(os.path.join(GOLDEN_DIR, "help_top.txt")) as fh:
            assert self._capture(["--help"]) == fh.read()

    @pytest.mark.parametrize("name", COMMANDS)
    def test_subcommand_help_matches_golden(self, name):
        with open(os.path.join(GOLDEN_DIR, f"help_{name}.txt")) as fh:
            assert self._capture([name, "--help"]) == fh.read()

    def test_top_help_lists_every_command(self):
        text = self._capture(["--help"])
        for name in COMMANDS:
            assert name in text

    @pytest.mark.parametrize("name", COMMANDS)
    def test_help_enumerates_flags(self, name):
        text = self._capture([name, "--help"])
        for flag in ["--config", "--set"] + REQUIRED_FLAGS[name]:
            assert flag in text, f"{name} help is missing {flag}"


class TestExitCodes:
    def test_missing_required_flag_is_usage_error(self, capsys):
        rc, _, err = run_cli(["eval-knn", "--k", "3"], capsys)
        assert rc == 1
        assert "smearssl eval-knn:" in err

    def test_unknown_command(self, capsys):
        rc, _, err = run_cli(["transmogrify"], capsys)
        assert rc == 1
        assert "smearssl:" in err

    def test_no_arguments(self, capsys):
        rc, _, _ = run_cli([], capsys)
        assert rc == 1

    def test_unknown_config_key_is_validation_error(self, tmp_path, capsys):
        rc, _, err = run_cli(["gen-synthetic", "--out", str(tmp_path / "d"),
                              "--set", "synth.banana=1"], capsys)
        assert rc == 1
        assert "error:" in err and "unknown config key" in err

    def test_malformed_set_pair(self, tmp_path, capsys):
        rc, _, err = run_cli(["gen-synthetic", "--out", str(tmp_path / "d"),
                              "--set", "synth.n_images"], capsys)
        assert rc == 1
        assert "key=value" in err

    def test_missing_config_file(self, tmp_path, capsys):
        rc, _, err = run_cli(["gen-synthetic", "--out", str(tmp_path / "d"),
                              "--config", str(tmp_path / "nope.cfg")], capsys)
        assert rc == 1
        assert "config file not found" in err

    def test_non_utf8_manifest_and_config_refused_naming_line(self, tmp_path,
                                                               capsys):
        manifest = tmp_path / "manifest.csv"
        manifest.write_bytes(b"path,kind,source_id,label\n\xff.ppm,patch,s,\n")
        config = tmp_path / "bad.cfg"
        config.write_bytes(b"synth.n_images = 3\n# \xe9\n")
        runs = [(["train", "--manifest", str(manifest), "--out", str(tmp_path / "o")],
                 f"error: {manifest}: line 2 is not UTF-8\n"),
                (["gen-synthetic", "--config", str(config), "--out", str(tmp_path / "d")],
                 f"error: {config}: line 2 is not UTF-8\n")]
        for argv, expected in runs:  # an exception escaping main() fails the test
            rc, _, err = run_cli(argv, capsys)
            assert (rc, err) == (1, expected), argv
        assert not (tmp_path / "o").exists() and not (tmp_path / "d").exists()

    def test_missing_input_file_is_io_error(self, tmp_path, capsys):
        rc, _, err = run_cli(["eval-knn",
                              "--train-emb", str(tmp_path / "a.emb1"),
                              "--test-emb", str(tmp_path / "b.emb1")], capsys)
        assert rc == 2
        assert "io error:" in err

    def test_numeric_error_maps_to_exit_2(self, emb_files, capsys, monkeypatch):
        tr, te = emb_files

        def explode(*args, **kwargs):
            raise NumericError("loss is not finite")

        monkeypatch.setattr("smearssl.protocols.run_classifier", explode)
        rc, _, err = run_cli(["eval-knn", "--train-emb", tr, "--test-emb", te],
                             capsys)
        assert rc == 2
        assert "runtime error:" in err

    def test_unknown_classifier_kind_is_validation_error(self, emb_files, capsys):
        tr, _ = emb_files
        rc, _, err = run_cli(["eval-loso", "--emb", tr,
                              "--set", "eval.classifier=svm"], capsys)
        assert rc == 1
        assert any(line.startswith("error:") and "'svm'" in line
                   for line in err.splitlines()), err

    def test_corrupt_inputs_are_validation_errors(self, emb_files, tmp_path,
                                                  capsys):
        cfg = _encode_config(VitConfig())

        def rdck(text):
            return (b"RDCK" + struct.pack("<HI", 1, len(text)) + text
                    + struct.pack("<I", 0))

        checkpoints = {"short.rdck": b"RDCK\x01",
                       "nonint.rdck": rdck(cfg.replace(b"image_size=64",
                                                       b"image_size=abc")),
                       "nonutf8.rdck": rdck(cfg + b"\xff\n"),
                       "nodepth.rdck": rdck(cfg.replace(b"depth=2\n", b"")),
                       "zero.rdck": rdck(cfg.replace(b"image_size=64",
                                                     b"image_size=0"))}
        short_emb = tmp_path / "short.emb1"
        short_emb.write_bytes(b"EMB1\x01\x00")
        with open(emb_files[0] + ".csv", "rb") as fh:
            rows = fh.read().split(b"\n")
        sidecars = {"side": b"row,name,source_id,label\n",
                    "nonutf8": b"\n".join(rows[:2] + [b"\xff" + rows[2]] + rows[3:]),
                    "short": b"\n".join(rows[:2] + [b"0"] + rows[3:])}
        bad_sides = []
        for name, body in sidecars.items():
            bad_sides.append(tmp_path / f"{name}.emb1")
            shutil.copy(emb_files[0], bad_sides[-1])
            (tmp_path / f"{name}.emb1.csv").write_bytes(body)
        runs = [["eval-knn", "--train-emb", str(p), "--test-emb", emb_files[1]]
                for p in [short_emb] + bad_sides]
        for name, raw in checkpoints.items():
            (tmp_path / name).write_bytes(raw)
            runs.append(["pca-map", "--checkpoint", str(tmp_path / name),
                         "--image", "unread.ppm", "--out", "unwritten.ppm"])
        for argv in runs:  # an exception escaping main() fails the test
            rc, _, err = run_cli(argv, capsys)
            assert rc == 1 and err.startswith("error: "), (argv, err)
            assert str(tmp_path) in err, (argv, err)

    def test_negative_noise_is_validation_error(self, tmp_path, capsys):
        rc, _, err = run_cli(["gen-synthetic", "--out", str(tmp_path / "d"),
                              "--set", "synth.noise_base=-1"], capsys)
        assert rc == 1
        assert err.startswith("error: ") and "noise" in err
        assert not (tmp_path / "d").exists()

    def test_non_finite_crop_float_is_validation_error(self, dataset, tmp_path,
                                                       capsys):
        rc, _, err = run_cli(["train", "--manifest", str(dataset / "manifest.csv"),
                              "--out", str(tmp_path / "o"),
                              "--set", "crop.blur_sigma=nan"], capsys)
        assert rc == 1
        assert err.startswith("error: ") and "blur_sigma" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("key, value", [
        ("ssl.koleo_weight", "nan"), ("ssl.teacher_temp", "nan"),
        ("ssl.student_temp", "inf"), ("train.weight_decay", "nan"),
        ("train.weight_decay", "-0.1"), ("train.base_lr", "nan"),
        ("train.final_lr", "inf"), ("vit.mlp_ratio", "0.01"),
        ("vit.mlp_ratio", "nan"), ("ssl.head_hidden", "0"),
        ("ssl.bottleneck", "0"), ("ssl.head_hidden", "-1"),
        ("ssl.bottleneck", "-1")])
    def test_bad_training_value_is_validation_error(self, dataset, tmp_path,
                                                    capsys, key, value):
        rc, _, err = run_cli(["train", "--manifest", str(dataset / "manifest.csv"),
                              "--out", str(tmp_path / "o"),
                              "--set", f"{key}={value}"], capsys)
        assert rc == 1
        assert err.startswith("error: ") and key.split(".")[1] in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, flag, text, message", [
        ("embed", "--batch-size", "0", "batch_size must be >= 1, got 0"),
        ("embed", "--batch-size", "-3", "batch_size must be >= 1, got -3"),
        ("patchify", "--patch", "0", "patch side must be >= 1, got 0"),
        ("patchify", "--patch", "-4", "patch side must be >= 1, got -4"),
        ("extract-cells", "--cell-size", "0", "crop side must be >= 1, got 0"),
        ("gen-synthetic", "--seed", "-1", "seed must be >= 0, got -1"),
        ("train", "--seed", "-1", "seed must be >= 0, got -1"),
        ("eval-kfold", "--seed", "-1", "seed must be >= 0, got -1")])
    def test_out_of_range_value_refused_before_output(
            self, dataset, trained, emb_files, tmp_path, capsys, command, flag,
            text, message):
        image = load_manifest(str(dataset / "manifest.csv"))[0].path
        inputs = {
            "embed": ["--checkpoint", str(trained / "checkpoint.rdck"),
                      "--manifest", str(dataset / "manifest.csv")],
            "patchify": ["--image", image],
            "extract-cells": ["--image", image,
                              "--mask", image.replace(".ppm", "_mask.pgm")],
            "gen-synthetic": [],
            "train": ["--manifest", str(dataset / "manifest.csv")],
            "eval-kfold": ["--emb", emb_files[0]],
        }[command]
        out = ["--report" if command == "eval-kfold" else "--out", str(tmp_path / "o")]
        rc, _, err = run_cli([command, *inputs, *out, flag, text], capsys)
        assert (rc, err) == (1, f"error: {message}\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command, flag", [("patchify", "--patch"),
                                               ("extract-cells", "--cell-size")])
    def test_crop_side_beyond_memory_refused_before_allocating(
            self, dataset, tmp_path, capsys, command, flag):
        # a 10**6-px side asks a 64 x 64 image for a 10**6 x 10**6 float32
        # resize, beyond any machine's memory
        image = load_manifest(str(dataset / "manifest.csv"))[0].path
        mask = ["--mask", image.replace(".ppm", "_mask.pgm")] if command == "extract-cells" else []
        rc, _, err = run_cli([command, "--image", image, *mask, "--out", str(tmp_path / "o"),
                              flag, "1000000"], capsys)
        assert rc == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        side = "patch" if command == "patchify" else "crop"
        assert f"{side} side 1000000 needs a 1000000 x 1000000 resize: 33527.6 GiB" in err
        assert list(tmp_path.iterdir()) == []

    def test_knn_dimension_mismatch_is_validation_error(self, emb_files,
                                                         tmp_path, capsys):
        tr, _ = emb_files
        narrow = EmbeddingSet(vectors=np.eye(4, dtype=np.float32),
                              ids=[f"r{i}" for i in range(4)],
                              sources=["src0"] * 4,
                              labels=["a", "a", "b", "b"])
        te = str(tmp_path / "narrow.emb1")
        write_embeddings(te, narrow)
        rc, _, err = run_cli(["eval-knn", "--train-emb", tr, "--test-emb", te],
                             capsys)
        assert rc == 1
        assert "error: dimension mismatch: train 8, test 4" in err

    def test_single_source_loso_is_validation_error(self, tmp_path, capsys):
        one = EmbeddingSet(vectors=np.eye(4, dtype=np.float32),
                           ids=[f"r{i}" for i in range(4)],
                           sources=["src0"] * 4,
                           labels=["a", "a", "b", "b"])
        path = str(tmp_path / "one.emb1")
        write_embeddings(path, one)
        rc, _, err = run_cli(["eval-loso", "--emb", path, "--k", "1"], capsys)
        assert rc == 1
        assert "error:" in err and "source" in err


class TestShortcutFlags:
    def test_table_lists_every_shortcut_flag(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        declared = {(name, flag) for name, p in sub.choices.items()
                    for a in p._actions if a.dest in DEFAULTS
                    for flag in a.option_strings}
        assert declared == {(c, f) for c, f, *_ in SHORTCUTS}

    @pytest.mark.parametrize("command, flag, text, key, value", SHORTCUTS)
    def test_flag_lands_on_its_key(self, monkeypatch, capsys, command, flag,
                                   text, key, value):
        seen = {}

        def capture(args, cfg):
            seen.update(cfg.values)
            return 0

        monkeypatch.setattr(cli, HANDLERS[command], capture)
        rc, _, err = run_cli([command, *STUB_ARGS[command], flag, text], capsys)
        assert rc == 0, err
        want = dict(DEFAULTS, **{key: value})
        if command in ("eval-linear", "eval-knn"):  # the subcommand's classifier
            want["eval.classifier"] = command.split("-")[1]
        assert seen == want
        assert type(seen[key]) is type(DEFAULTS[key])

    @pytest.mark.parametrize("command, flag, key, text, kind", [
        ("train", "--iterations", "train.iterations", "1e3", "int"),
        ("eval-linear", "--reg-lambda", "eval.reg_lambda", "tiny", "float"),
        ("gen-synthetic", "--seed", "run.seed", "0.5", "int")])
    def test_bad_flag_value_reads_as_bad_set_value(self, capsys, command, flag,
                                                   key, text, kind):
        line = f"error: {key}: cannot parse {text!r} as {kind}\n"
        for given in ([flag, text], ["--set", f"{key}={text}"]):
            rc, _, err = run_cli([command, *STUB_ARGS[command], *given], capsys)
            assert (rc, err) == (1, line), given


class TestConfigPlumbing:
    def test_defaults_roundtrip_through_text(self):
        cfg = RunConfig()
        back = parse_config_text(cfg.resolved_text())
        assert back.values == cfg.values

    def test_resolved_defaults_match_golden(self):
        # Pins all 54 keys and, through their formatting, their types:
        # floats print with a point.
        with open(os.path.join(GOLDEN_DIR, "config.resolved")) as fh:
            assert RunConfig().resolved_text() == fh.read()

    def test_resolved_text_groups_sections(self):
        text = RunConfig().resolved_text()
        lines = text.splitlines()
        assert lines[0].startswith("#")
        assert "" in lines  # at least one section separator
        assert "run.seed = 0" in lines

    def test_get_unknown_key(self):
        with pytest.raises(InputError):
            RunConfig().get("train.rocket_boost")

    def test_apply_overrides_in_order(self):
        cfg = RunConfig()
        apply_overrides(cfg, ["run.seed=3", "run.seed=9"])
        assert cfg.get("run.seed") == 9

    def test_flag_beats_set_beats_file(self, tmp_path, capsys):
        cfg_file = tmp_path / "base.cfg"
        cfg_file.write_text("# base\nsynth.n_images = 3\nrun.seed = 2\n")

        d1 = tmp_path / "d1"
        rc, _, _ = run_cli(["gen-synthetic", "--config", str(cfg_file),
                            "--out", str(d1)], capsys)
        assert rc == 0
        assert len(load_manifest(str(d1 / "manifest.csv"))) == 3

        d2 = tmp_path / "d2"
        rc, _, _ = run_cli(["gen-synthetic", "--config", str(cfg_file),
                            "--set", "synth.n_images=4", "--out", str(d2)],
                           capsys)
        assert rc == 0
        assert len(load_manifest(str(d2 / "manifest.csv"))) == 4

        d3 = tmp_path / "d3"
        rc, _, _ = run_cli(["gen-synthetic", "--config", str(cfg_file),
                            "--set", "synth.n_images=4", "--n-images", "5",
                            "--out", str(d3)], capsys)
        assert rc == 0
        assert len(load_manifest(str(d3 / "manifest.csv"))) == 5

        resolved = load_config(str(d3 / "config.resolved"))
        assert resolved.get("synth.n_images") == 5
        assert resolved.get("run.seed") == 2

    def test_unknown_key_in_config_file(self, tmp_path, capsys):
        # the removed multi-crop, determinism, crop-side, probe-stopping and
        # component-count keys are refused like any other unknown key, also
        # in a config.resolved written before
        cfg_file = tmp_path / "bad.cfg"
        for key in ("not.a_key", "crop.local_crops", "train.deterministic",
                    "crop.global_size", "eval.max_epochs", "eval.tol",
                    "pca.components"):
            cfg_file.write_text(f"synth.n_images = 3\n{key} = 1\n")
            rc, _, err = run_cli(["gen-synthetic", "--config", str(cfg_file),
                                  "--out", str(tmp_path / "d")], capsys)
            assert rc == 1
            assert "unknown config key" in err and "bad.cfg:2" in err, key

    def test_config_line_without_equals_refused(self):
        with pytest.raises(InputError, match="base.cfg:2: expected 'section.key = "
                           "value', got 'run.seed 3'"):
            parse_config_text("synth.n_images = 3\n  run.seed 3\n",
                              origin="base.cfg")

    def test_resolved_config_reproduces_run(self, dataset, tmp_path, capsys):
        # spec'd guarantee: a run is reproducible from its resolved dump alone
        resolved = str(dataset / "config.resolved")
        d2 = tmp_path / "again"
        rc, _, _ = run_cli(["gen-synthetic", "--config", resolved,
                            "--out", str(d2)], capsys)
        assert rc == 0
        for rec in load_manifest(str(dataset / "manifest.csv")):
            a = (dataset / os.path.basename(rec.path)).read_bytes()
            b = (d2 / os.path.basename(rec.path)).read_bytes()
            assert a == b


class TestDataCommands:
    def test_gen_synthetic_artifacts(self, dataset):
        records = load_manifest(str(dataset / "manifest.csv"))
        assert len(records) == 6
        assert all(r.kind == "patch" for r in records)
        assert (dataset / "config.resolved").is_file()
        first = read_ppm(records[0].path)
        assert first.shape == (64, 64, 3)
        mask_name = os.path.basename(records[0].path).replace(".ppm", "_mask.pgm")
        assert (dataset / mask_name).is_file()

    def test_gen_synthetic_no_masks(self, tmp_path, capsys):
        rc, _, _ = run_cli(["gen-synthetic", "--out", str(tmp_path / "nm"),
                            "--n-images", "2", "--no-masks"], capsys)
        assert rc == 0
        names = os.listdir(tmp_path / "nm")
        assert not any(n.endswith("_mask.pgm") for n in names)

    def test_patchify(self, dataset, tmp_path, capsys):
        records = load_manifest(str(dataset / "manifest.csv"))
        out = tmp_path / "patches"
        rc, _, _ = run_cli(["patchify", "--image", records[0].path,
                            "--out", str(out), "--patch", "32",
                            "--source-id", "srcX", "--label", "disc"], capsys)
        assert rc == 0
        made = load_manifest(str(out / "manifest.csv"))
        assert len(made) == 4  # 64x64 image, 32px tiles
        assert made[0].source_id == "srcX" and made[0].label == "disc"
        patch = read_ppm(made[0].path)
        assert patch.shape == (32, 32, 3)
        assert (out / "config.resolved").is_file()

    def test_default_patches_embed_with_default_encoder(self, tmp_path, capsys):
        # The default crop side is the default encoder's image side.
        rng = np.random.Generator(np.random.PCG64(5))
        image = str(tmp_path / "smear.ppm")
        write_ppm(image, rng.integers(0, 256, size=(128, 192, 3), dtype=np.uint8))
        rc, _, err = run_cli(["patchify", "--image", image,
                              "--out", str(tmp_path / "patches")], capsys)
        assert rc == 0, err
        ckpt = str(tmp_path / "enc.rdck")
        write_checkpoint(ckpt, VitConfig(), {k: p.data for k, p in
                                             seeded_encoder(VitConfig()).params.items()})
        out = str(tmp_path / "patches.emb1")
        rc, _, err = run_cli(["embed", "--checkpoint", ckpt, "--manifest",
                              str(tmp_path / "patches" / "manifest.csv"),
                              "--out", out], capsys)
        assert rc == 0, err
        assert len(read_embeddings(out)) == 6  # 128x192 in 64-px tiles

    def test_extract_cells(self, dataset, tmp_path, capsys):
        records = load_manifest(str(dataset / "manifest.csv"))
        image = records[0].path
        mask = image.replace(".ppm", "_mask.pgm")
        out = tmp_path / "cells"
        rc, _, _ = run_cli(["extract-cells", "--image", image, "--mask", mask,
                            "--out", str(out), "--cell-size", "32"], capsys)
        assert rc == 0
        made = load_manifest(str(out / "manifest.csv"))
        assert len(made) >= 1
        assert all(r.kind == "cell" for r in made)
        crop = read_ppm(made[0].path)
        assert crop.shape == (32, 32, 3)


class TestTrainCommands:
    def test_train_writes_artifacts(self, trained):
        for name in ("checkpoint.rdck", "state.rdck", "loss_log.csv",
                     "config.resolved"):
            assert (trained / name).is_file(), name

    def test_train_zero_iterations_checkpoint_equals_init(self, dataset,
                                                          tmp_path, capsys):
        out = tmp_path / "zero"
        rc, _, _ = run_cli(["train", "--manifest",
                            str(dataset / "manifest.csv"), "--out", str(out),
                            "--iterations", "0", "--seed", "5"]
                           + tiny_args(), capsys)
        assert rc == 0

        cfg = RunConfig()
        apply_overrides(cfg, list(TINY_SETS))
        cfg.set("run.seed", "5")
        cfg.set("train.iterations", "0")
        ref = init_train_state(cfg.vit_config(), cfg.ssl_config(),
                               cfg.train_config())
        enc = load_encoder(str(out / "checkpoint.rdck"))
        assert enc.params.keys() == ref.teacher_enc.params.keys()
        for name, p in enc.params.items():
            assert np.array_equal(p.data, ref.teacher_enc.params[name].data)

    def test_resume_with_another_head_is_validation_error(self, dataset,
                                                          tmp_path, capsys):
        out = tmp_path / "run"
        argv = ["train", "--manifest", str(dataset / "manifest.csv"),
                "--out", str(out), "--iterations", "2", "--batch-size", "2"]
        rc, _, _ = run_cli(argv + tiny_args(), capsys)
        assert rc == 0
        state = (out / "state.rdck").read_bytes()
        resolved = (out / "config.resolved").read_text()

        rc, _, err = run_cli(argv + tiny_args(["--resume", "--set",
                                               "ssl.num_prototypes=12"]),
                             capsys)
        assert rc == 1
        assert ("blob 'student.head.prototypes' has shape (8, 8), this config "
                "expects (12, 8)") in err
        assert (out / "state.rdck").read_bytes() == state
        assert (out / "config.resolved").read_text() == resolved

    def test_resume_with_another_encoder_is_validation_error(self, dataset,
                                                             tmp_path, capsys):
        # the state owns a resumed run's encoder; another one is refused, not
        # silently replaced and then recorded in config.resolved
        out = tmp_path / "run"
        argv = ["train", "--manifest", str(dataset / "manifest.csv"),
                "--out", str(out), "--iterations", "2", "--batch-size", "2"]
        rc, _, _ = run_cli(argv + tiny_args(), capsys)
        assert rc == 0
        state = (out / "state.rdck").read_bytes()
        resolved = (out / "config.resolved").read_text()
        log = (out / "loss_log.csv").read_text()

        rc, _, err = run_cli(argv + tiny_args(["--resume", "--set", "vit.depth=5"]),
                             capsys)
        assert rc == 1
        assert "vit.depth is 1 there, 5 here" in err
        assert (out / "state.rdck").read_bytes() == state
        assert (out / "config.resolved").read_text() == resolved
        assert (out / "loss_log.csv").read_text() == log

    def test_train_at_another_image_size(self, dataset, tmp_path, capsys):
        # crops come out at vit.image_size, so one key changes the side
        out = tmp_path / "run"
        rc, _, err = run_cli(["train", "--manifest", str(dataset / "manifest.csv"),
                              "--out", str(out), "--iterations", "2",
                              "--batch-size", "2", "--set", "vit.image_size=32"]
                             + tiny_args(), capsys)
        assert rc == 0, err
        assert load_config(str(out / "config.resolved")).get("vit.image_size") == 32
        assert load_encoder(str(out / "checkpoint.rdck")).cfg.image_size == 32
        assert len((out / "loss_log.csv").read_text().splitlines()) == 3

    def test_crop_side_key_is_gone(self, dataset, tmp_path, capsys):
        rc, _, err = run_cli(["train", "--manifest", str(dataset / "manifest.csv"),
                              "--out", str(tmp_path / "o"),
                              "--set", "crop.global_size=64"], capsys)
        assert rc == 1
        assert "unknown config key: crop.global_size" in err
        assert not (tmp_path / "o").exists()

    def test_empty_manifest_writes_nothing(self, tmp_path, capsys):
        manifest = tmp_path / "empty.csv"
        manifest.write_text("path,kind,source_id,label\n")
        rc, _, err = run_cli(["train", "--manifest", str(manifest),
                              "--out", str(tmp_path / "o")], capsys)
        assert rc == 1
        assert "empty training set" in err
        assert not (tmp_path / "o").exists()

    def test_train_missing_manifest_is_validation_error(self, tmp_path, capsys):
        rc, _, err = run_cli(["train", "--manifest",
                              str(tmp_path / "ghost.csv"),
                              "--out", str(tmp_path / "o")], capsys)
        assert rc == 1
        assert "manifest not found" in err

    def test_embed_from_checkpoint(self, dataset, trained, tmp_path, capsys):
        out = str(tmp_path / "cells.emb1")
        rc, _, _ = run_cli(["embed", "--checkpoint",
                            str(trained / "checkpoint.rdck"),
                            "--manifest", str(dataset / "manifest.csv"),
                            "--out", out], capsys)
        assert rc == 0
        emb = read_embeddings(out)
        assert len(emb) == 6
        assert emb.dim == 16
        assert os.path.isfile(out + ".csv")
        assert os.path.isfile(out + ".config")

    def test_embed_refuses_an_image_of_another_size_by_its_path(
            self, dataset, trained, tmp_path, capsys):
        records = load_manifest(str(dataset / "manifest.csv"))
        rc, _, _ = run_cli(["patchify", "--image", records[0].path,
                            "--out", str(tmp_path / "tiles"), "--patch", "32"],
                           capsys)
        assert rc == 0
        tile = load_manifest(str(tmp_path / "tiles" / "manifest.csv"))[0]
        manifest = str(tmp_path / "mixed.csv")
        save_manifest(manifest, [records[0], tile])  # 64 px, then 32 px
        out = tmp_path / "mixed.emb1"
        rc, _, err = run_cli(["embed", "--checkpoint", str(trained / "checkpoint.rdck"),
                              "--manifest", manifest, "--out", str(out)], capsys)
        assert (rc, err) == (1, f"error: {tile.path}: expected 64x64 images, got 32x32\n")
        assert not out.exists()

    def test_pca_map_output(self, dataset, trained, tmp_path, capsys):
        records = load_manifest(str(dataset / "manifest.csv"))
        out = str(tmp_path / "map.ppm")
        rc, _, err = run_cli(["pca-map", "--checkpoint",
                              str(trained / "checkpoint.rdck"),
                              "--image", records[0].path, "--out", out],
                             capsys)
        assert rc == 0
        rgb = read_ppm(out)
        assert rgb.shape == (64, 64, 3)
        assert os.path.isfile(out + ".config")


class TestAdapterTransparency:
    def test_eval_knn_matches_module_op(self, emb_files, tmp_path, capsys):
        tr_path, te_path = emb_files
        report_path = str(tmp_path / "cli.csv")
        rc, _, err = run_cli(["eval-knn", "--train-emb", tr_path,
                              "--test-emb", te_path, "--k", "20",
                              "--report", report_path], capsys)
        assert rc == 0
        assert "knn" in err  # text summary goes to stderr

        tr, te = read_embeddings(tr_path), read_embeddings(te_path)
        result = knn(tr, te, k=20, metric="cosine")
        expected = EvalReport(protocol="knn")
        expected.records.append(SplitRecord(
            train_tag=tr_path, test_tag=te_path,
            n_train=len(tr), n_test=len(te), metrics=result.metrics))
        expected_path = str(tmp_path / "direct.csv")
        write_report_csv(expected_path, expected)

        with open(report_path) as fh:
            got = fh.read()
        with open(expected_path) as fh:
            want = fh.read()
        assert got == want

    def test_eval_linear_smoke(self, emb_files, tmp_path, capsys):
        tr_path, te_path = emb_files
        report_path = str(tmp_path / "lin.csv")
        rc, _, _ = run_cli(["eval-linear", "--train-emb", tr_path,
                            "--test-emb", te_path, "--report", report_path],
                           capsys)
        assert rc == 0
        with open(report_path) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "protocol,train,test,n_train,n_test,acc,bacc,wf1"
        acc = float(lines[1].split(",")[5])
        assert acc == 1.0  # classes are linearly separable by construction

    @pytest.mark.parametrize("command, kind, other", [
        ("eval-knn", "knn", "linear"), ("eval-linear", "linear", "knn")])
    def test_eval_pair_runs_its_own_kind(self, emb_files, tmp_path, capsys,
                                         command, kind, other):
        # the subcommand names the classifier; --set eval.classifier cannot
        # swap it, and each kind runs with the config's defaults
        tr_path, te_path = emb_files
        report_path = str(tmp_path / "cli.csv")
        rc, _, _ = run_cli([command, "--train-emb", tr_path, "--test-emb", te_path,
                            "--set", f"eval.classifier={other}",
                            "--report", report_path], capsys)
        assert rc == 0
        tr, te = read_embeddings(tr_path), read_embeddings(te_path)
        if kind == "knn":
            result = knn(tr, te, k=20, metric="cosine")
        else:
            result = linear_probe(tr, te, reg_lambda=1e-4)
        expected = EvalReport(protocol=kind)
        expected.records.append(SplitRecord(
            train_tag=tr_path, test_tag=te_path,
            n_train=len(tr), n_test=len(te), metrics=result.metrics))
        expected_path = str(tmp_path / "direct.csv")
        write_report_csv(expected_path, expected)
        with open(report_path) as fh, open(expected_path) as want:
            assert fh.read() == want.read()

    def test_eval_linear_zero_reg_lambda_refused(self, emb_files, tmp_path, capsys):
        tr_path, te_path = emb_files
        report_path = str(tmp_path / "lin.csv")
        rc, _, err = run_cli(["eval-linear", "--train-emb", tr_path,
                              "--test-emb", te_path, "--reg-lambda", "0",
                              "--report", report_path], capsys)
        assert rc == 1
        assert "reg_lambda must be finite and > 0" in err
        assert not os.path.exists(report_path)

    def test_eval_loso_matches_module_op(self, emb_files, tmp_path, capsys):
        tr_path, _ = emb_files
        report_path = str(tmp_path / "loso.csv")
        rc, _, _ = run_cli(["eval-loso", "--emb", tr_path, "--k", "3",
                            "--report", report_path], capsys)
        assert rc == 0

        cfg = RunConfig()
        cfg.set("eval.k", "3")
        expected = leave_one_source_out(read_embeddings(tr_path),
                                        cfg.classifier_spec())
        expected_path = str(tmp_path / "loso_direct.csv")
        write_report_csv(expected_path, expected)
        with open(report_path) as fh:
            got = fh.read()
        with open(expected_path) as fh:
            want = fh.read()
        assert got == want

    def test_eval_kfold_matches_module_op(self, emb_files, tmp_path, capsys):
        tr_path, _ = emb_files
        report_path = str(tmp_path / "kf.csv")
        rc, _, _ = run_cli(["eval-kfold", "--emb", tr_path, "--k", "3",
                            "--folds", "3", "--seed", "0",
                            "--report", report_path], capsys)
        assert rc == 0

        cfg = RunConfig()
        cfg.set("eval.k", "3")
        expected = kfold(read_embeddings(tr_path), cfg.classifier_spec(),
                         k=3, seed=0)
        expected_path = str(tmp_path / "kf_direct.csv")
        write_report_csv(expected_path, expected)
        with open(report_path) as fh:
            got = fh.read()
        with open(expected_path) as fh:
            want = fh.read()
        assert got == want


REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def checkout_env() -> dict:
    """The environment with this checkout's `src` first on PYTHONPATH: a
    child process does not inherit the path pytest gives the tests."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(REPO, "src"), env.get("PYTHONPATH")]))
    return env


def test_module_entrypoint_runs():
    proc = subprocess.run([sys.executable, "-m", "smearssl.cli", "--help"],
                          capture_output=True, text=True, env=checkout_env())
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: smearssl")


def test_console_script_runs(tmp_path):
    # Write the launcher an installer would generate for this checkout's
    # [project.scripts] entry, so the declared entry point is what runs
    # rather than whatever `smearssl` happens to be installed on PATH.
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(REPO, "pyproject.toml"), "rb") as fh:
        entry = tomllib.load(fh)["project"]["scripts"]["smearssl"]
    module, attr = entry.split(":")
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    launcher = bin_dir / "smearssl"
    launcher.write_text(f"#!{sys.executable}\n"
                        f"import sys\n"
                        f"from {module} import {attr}\n"
                        f"sys.exit({attr}())\n")
    launcher.chmod(0o755)
    env = checkout_env()
    env["PATH"] = os.pathsep.join(
        filter(None, [str(bin_dir), env.get("PATH")]))
    proc = subprocess.run(["smearssl", "--help"], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: smearssl")


def test_demo_script_runs(tmp_path):
    # the demo calls `python3 -m smearssl.cli`; point python3 at this
    # interpreter and the package at this checkout
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    os.symlink(sys.executable, bin_dir / "python3")
    env = checkout_env()
    env["PATH"] = os.pathsep.join(filter(None, [str(bin_dir), env.get("PATH")]))
    out = tmp_path / "demo"
    proc = subprocess.run(["bash", os.path.join(REPO, "scripts", "demo.sh"),
                           str(out)], capture_output=True, text=True, env=env,
                          cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr[-2000:]
    for name in ("data/manifest.csv", "run/checkpoint.rdck", "cells.emb1",
                 "kfold.csv", "loso.csv", "pca_map.ppm"):
        assert (out / name).is_file(), name
