"""Evaluation harness: metrics, probes, split protocols, embedding I/O, and
the PCA feature map."""

import csv
import os
import threading
import tracemalloc

import numpy as np
import pytest

from oracles import (dense_pca, naive_knn, naive_metrics,
                     reference_kfold_assignments, reference_linear_probe,
                     seeded_encoder, traced_memory)
from smearssl import probes
from smearssl import tensor as T
from smearssl.data import load_images, load_manifest
from smearssl.embeddings import (
    EmbeddingSet,
    embed,
    read_embeddings,
    sidecar_path,
    write_embeddings,
)
from smearssl.errors import (
    DimensionError,
    InputError,
    NumericError,
    ParameterError,
    ProtocolError,
)
from smearssl.metrics import METRIC_NAMES, compute_metrics
from smearssl.pca import pca_map, top_components
from smearssl.probes import knn, linear_probe
from smearssl.protocols import (
    EvalReport,
    SplitRecord,
    format_report,
    kfold,
    kfold_assignments,
    leave_one_source_out,
    loso_source_means,
    run_classifier,
    write_report_csv,
)
from smearssl.objective import SslConfig
from smearssl.synthetic import SynthConfig, gen_synthetic, write_dataset
from smearssl.trainer import (TrainConfig, export_teacher, init_train_state,
                              load_encoder)
from smearssl.vit import VitConfig


def emb_set(vectors, labels, sources=None, ids=None):
    vectors = np.asarray(vectors, dtype=np.float32)
    n = vectors.shape[0]
    return EmbeddingSet(
        vectors=vectors,
        ids=ids or [f"r{i}" for i in range(n)],
        sources=sources or ["src0"] * n,
        labels=list(labels),
    )


def cluster_set(rng, n_per_class=10, classes=("a", "b", "c"), d=6,
                sources=("src0",), spread=0.05):
    """Well-separated Gaussian blobs, one per class, cycling sources."""
    vecs, labs, srcs = [], [], []
    for ci, c in enumerate(classes):
        center = np.zeros(d)
        center[ci] = 1.0
        for j in range(n_per_class):
            vecs.append(center + rng.normal(size=d) * spread)
            labs.append(c)
            srcs.append(sources[(ci * n_per_class + j) % len(sources)])
    return emb_set(np.array(vecs), labs, sources=srcs)


class TestMetrics:
    def test_hand_worked_example(self):
        out = compute_metrics([0, 0, 1], [0, 1, 1])
        np.testing.assert_allclose(out["acc"], 2 / 3)
        np.testing.assert_allclose(out["bacc"], 0.75)
        np.testing.assert_allclose(out["wf1"], 2 / 3)

    def test_perfect_predictions(self):
        out = compute_metrics(["x", "y", "z"], ["x", "y", "z"])
        assert out == {"acc": 1.0, "bacc": 1.0, "wf1": 1.0}

    def test_balanced_symmetric_errors_acc_equals_bacc(self):
        out = compute_metrics([0, 0, 1, 1], [0, 1, 1, 0])
        assert out["acc"] == out["bacc"] == 0.5

    def test_prediction_only_class_excluded_from_bacc(self):
        out = compute_metrics(["a", "a"], ["b", "b"])
        assert out == {"acc": 0.0, "bacc": 0.0, "wf1": 0.0}

    def test_hundred_random_vectors_match_oracle_exactly(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 40))
            k = int(rng.integers(1, 6))
            yt = [str(c) for c in rng.integers(0, k, size=n)]
            yp = [str(c) for c in rng.integers(0, k, size=n)]
            got = compute_metrics(yt, yp)
            want = naive_metrics(yt, yp)
            for m in METRIC_NAMES:
                assert got[m] == want[m], (m, yt, yp)

    def test_length_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            compute_metrics([1, 2], [1])

    def test_empty_rejected(self):
        with pytest.raises(DimensionError):
            compute_metrics([], [])

    def test_values_within_unit_interval(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 30))
            yt = rng.integers(0, 4, size=n).tolist()
            yp = rng.integers(0, 4, size=n).tolist()
            out = compute_metrics(yt, yp)
            assert all(0.0 <= out[m] <= 1.0 for m in METRIC_NAMES)


class TestKnn:
    def test_identical_point_k1(self, rng):
        train = cluster_set(rng)
        test = emb_set(train.vectors[7:8].copy(), [train.labels[7]])
        out = knn(train, test, k=1)
        assert out.predictions == [train.labels[7]]

    def test_k_equals_n_train_prior_vote(self, rng):
        # 3 of class a, 2 of class b: full-set vote returns the majority
        vecs = rng.normal(size=(5, 4))
        train = emb_set(vecs, ["a", "a", "a", "b", "b"])
        test = emb_set(rng.normal(size=(4, 4)), ["a"] * 4)
        out = knn(train, test, k=5)
        assert out.predictions == ["a"] * 4

    @pytest.mark.parametrize("k", [1, 20])
    @pytest.mark.parametrize("metric", ["cosine", "euclidean"])
    def test_fifty_points_match_double_loop(self, rng, k, metric):
        train = emb_set(rng.normal(size=(50, 8)),
                        [str(c) for c in rng.integers(0, 4, size=50)])
        test = emb_set(rng.normal(size=(50, 8)),
                       [str(c) for c in rng.integers(0, 4, size=50)])
        got = knn(train, test, k=k, metric=metric)
        want = naive_knn(train.vectors, train.labels, test.vectors, k, metric)
        assert got.predictions == want

    def test_vote_tie_broken_by_summed_distance(self):
        # k=2, one neighbor of each class; the closer class must win
        train = emb_set(np.array([[1.0, 0.0], [0.9, 0.1]]), ["far", "near"])
        test = emb_set(np.array([[0.85, 0.15]]), ["near"])
        out = knn(train, test, k=2)
        assert out.predictions == ["near"]

    def test_full_tie_broken_lexicographically(self):
        # two neighbors exactly equidistant from the probe
        train = emb_set(np.array([[1.0, 1.0], [1.0, -1.0]]), ["zeta", "alpha"])
        test = emb_set(np.array([[1.0, 0.0]]), ["alpha"])
        out = knn(train, test, k=2)
        assert out.predictions == ["alpha"]

    def test_common_rescaling_invariance(self, rng):
        train = cluster_set(rng)
        test = emb_set(rng.normal(size=(6, 6)), ["a"] * 6)
        base = knn(train, test, k=3).predictions
        scaled = knn(
            emb_set(train.vectors * 40.0, train.labels),
            emb_set(test.vectors * 40.0, test.labels), k=3).predictions
        assert base == scaled

    def test_k_out_of_range(self, rng):
        train = cluster_set(rng, n_per_class=2)
        test = emb_set(rng.normal(size=(1, 6)), ["a"])
        with pytest.raises(ParameterError):
            knn(train, test, k=0)
        with pytest.raises(ParameterError):
            knn(train, test, k=7)

    def test_empty_train_rejected(self):
        empty = EmbeddingSet(np.zeros((0, 3), np.float32), [], [], [])
        test = emb_set(np.zeros((1, 3)), ["a"])
        with pytest.raises(ProtocolError):
            knn(empty, test, k=1)

    def test_unknown_metric_rejected(self, rng):
        train = cluster_set(rng, n_per_class=2)
        with pytest.raises(ParameterError):
            knn(train, train, k=1, metric="manhattan")

    def test_unlabeled_row_rejected(self, rng):
        train = emb_set(rng.normal(size=(3, 4)), ["a", None, "b"])
        with pytest.raises(ProtocolError):
            knn(train, train, k=1)

    def test_dimension_mismatch_rejected(self, rng):
        train = cluster_set(rng, n_per_class=2)
        test = emb_set(rng.normal(size=(2, 5)), ["a", "b"])
        with pytest.raises(ProtocolError, match="dimension mismatch: train 6, test 5"):
            knn(train, test, k=1)


def tie_heavy_set(rng, n, pool):
    """n rows drawn with replacement from `pool`, labels from three classes."""
    rows = pool[rng.integers(0, len(pool), size=n)]
    return emb_set(rows, [str(c) for c in rng.integers(0, 3, size=n)])


def tie_heavy_pool(rng, metric):
    """A few integer vectors, so that rows repeat and distances tie.

    Under cosine each nonzero vector has 1 or 4 nonzero entries of one size,
    so its l2-normalized entries are 0, +-0.5 or +-1 and every cosine distance
    is a multiple of 0.25, exact in any summation order; the zero vector is
    always in the pool. Under euclidean, small integers make every squared
    distance an exact integer."""
    if metric == "euclidean":
        return rng.integers(-2, 3, size=(int(rng.integers(2, 7)), 3))
    pool = [np.zeros(4)]
    for _ in range(int(rng.integers(2, 6))):
        scale = int(rng.integers(1, 4))
        if rng.integers(0, 2):
            v = np.zeros(4)
            v[int(rng.integers(0, 4))] = scale * rng.choice([-1, 1])
        else:
            v = scale * rng.choice([-1, 1], size=4)
        pool.append(v)
    return np.array(pool)


class TestKnnExactTieRule:
    """The chunked k-NN against the double-loop oracle on data where equal
    distances often straddle the k-th place, at every k and at chunk sizes
    from one test row per chunk to all rows in one chunk."""

    @pytest.mark.parametrize("metric", ["cosine", "euclidean"])
    def test_tie_heavy_data_matches_oracle(self, metric, monkeypatch):
        rng = np.random.Generator(np.random.PCG64(2024))
        for _ in range(40):
            pool = tie_heavy_pool(rng, metric)
            train = tie_heavy_set(rng, int(rng.integers(1, 17)), pool)
            test = tie_heavy_set(rng, int(rng.integers(1, 11)), pool)
            for k in range(1, len(train) + 1):
                want = naive_knn(train.vectors, train.labels, test.vectors, k,
                                 metric)
                for chunk in (1, 7, 30, 1 << 22):
                    monkeypatch.setattr(probes, "_CHUNK_DISTANCES", chunk)
                    got = knn(train, test, k=k, metric=metric).predictions
                    assert got == want, (k, chunk, train.vectors, test.vectors)

    def test_nearest_matches_stable_argsort(self):
        # same neighbors as the full stable sort, and the same distances in
        # the same order, so every per-class sum adds the same terms in turn
        rng = np.random.Generator(np.random.PCG64(7))
        for _ in range(50):
            dist = rng.integers(0, 4, size=(5, int(rng.integers(1, 30)))) * 0.5
            for k in range(1, dist.shape[1] + 1):
                near = probes._nearest(dist, k)
                want = np.argsort(dist, axis=1, kind="stable")[:, :k]
                assert (np.sort(near, axis=1) == np.sort(want, axis=1)).all()
                assert (np.take_along_axis(dist, near, axis=1)
                        == np.take_along_axis(dist, want, axis=1)).all()

    def test_peak_memory_bounded_in_test_rows(self, rng, monkeypatch):
        chunk = 1 << 14
        monkeypatch.setattr(probes, "_CHUNK_DISTANCES", chunk)
        d = 8
        train = emb_set(rng.normal(size=(1000, d)),
                        [str(c) for c in rng.integers(0, 3, size=1000)])

        def peak_bytes(n_test):
            test = emb_set(rng.normal(size=(n_test, d)), ["0"] * n_test)
            tracemalloc.start()
            try:
                knn(train, test, k=20)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, big = peak_bytes(250), peak_bytes(2000)
        # the float64 and normalized copies of the extra test rows, plus
        # per-row lists and indices; a full distance matrix would add
        # 1750 * 1000 * 8 bytes = 14 MB
        extra_inputs = (2000 - 250) * (2 * d * 8 + 64)
        assert big - small <= 8 * chunk + extra_inputs, (small, big)


class TestLinearProbe:
    def test_separable_two_class(self, rng):
        train = cluster_set(rng, classes=("a", "b"), d=2, n_per_class=15)
        out = linear_probe(train, train)
        assert out.metrics["acc"] == 1.0

    def test_huge_lambda_collapses_to_prior_argmax(self, rng):
        # unbalanced: 12 of class b, 5 of a, 3 of c -> bias-only model says b
        vecs = rng.normal(size=(20, 4))
        labels = ["b"] * 12 + ["a"] * 5 + ["c"] * 3
        train = emb_set(vecs, labels)
        test = emb_set(rng.normal(size=(9, 4)), ["a"] * 9)
        out = linear_probe(train, test, reg_lambda=1e8)
        assert out.predictions == ["b"] * 9

    def test_feature_scaling_absorbed_by_standardization(self, rng):
        train = cluster_set(rng, classes=("a", "b", "c"), spread=0.3)
        test = emb_set(rng.normal(size=(8, 6)), ["a"] * 8)
        base = linear_probe(train, test).predictions
        scale = np.ones(6)
        scale[0] = 7.0
        scale[3] = 0.2
        scaled = linear_probe(
            emb_set(train.vectors * scale, train.labels,
                    sources=train.sources),
            emb_set(test.vectors * scale, test.labels)).predictions
        assert base == scaled

    def test_single_class_train_rejected(self, rng):
        train = emb_set(rng.normal(size=(5, 3)), ["only"] * 5)
        with pytest.raises(ProtocolError):
            linear_probe(train, train)

    def test_unseen_test_class_scored_wrong(self, rng):
        train = cluster_set(rng, classes=("a", "b"), d=3)
        test = emb_set(rng.normal(size=(4, 3)), ["ghost"] * 4)
        out = linear_probe(train, test)
        assert set(out.predictions) <= {"a", "b"}
        assert out.metrics["acc"] == 0.0

    def test_dimension_mismatch_rejected(self, rng):
        train = cluster_set(rng, d=4)
        test = emb_set(rng.normal(size=(2, 5)), ["a", "b"])
        with pytest.raises(ProtocolError):
            linear_probe(train, test)

    def test_converges_on_easy_data(self, rng):
        train = cluster_set(rng, classes=("a", "b"), d=2, spread=0.01)
        out = linear_probe(train, train)
        assert out.metrics["acc"] == 1.0
        assert out.epochs_run <= 30

    @pytest.mark.parametrize("name, value", [
        ("tol", float("nan")), ("tol", float("inf")), ("tol", -1e-6),
        ("reg_lambda", float("nan")), ("reg_lambda", float("inf")),
        ("reg_lambda", -1.0), ("reg_lambda", 0.0),
    ])
    def test_bad_arguments_rejected(self, rng, name, value):
        train = cluster_set(rng, classes=("a", "b"), d=2)
        with pytest.raises(ParameterError, match=name):
            linear_probe(train, train, **{name: value})

    def test_class_major_fit_matches_row_major_oracle(self, rng):
        # The fit must end at the optimum of the objective that the row-major
        # referee descends.
        eps = np.finfo(np.float64).eps
        cases = [(k, d, 1e-4, 1.5) for k in (2, 3, 5, 12, 24) for d in (2, 64)]
        cases.append((2, 2, 1e-8, None))  # separable, nearly unpenalized
        for k, d, lam, spread in cases:
            n = int(rng.integers(7, 1601))
            y = rng.permutation(n) % k
            if spread is None:
                x = 0.1 * rng.normal(size=(n, d)) + 3.0 * (2 * y[:, None] - 1)
            else:
                x = rng.normal(size=(n, d)) + spread * rng.normal(size=(k, d))[y]
            mean, std = probes._standardize_stats(x)
            x = (x - mean) / std
            w, b, iters = probes._fit_softmax(x, y, k, lam, 0.0)
            case = (k, d, lam, n, iters)
            # Each gradient entry is a mean over n rows of (p - onehot) * x,
            # with |p - onehot| <= 1 and unit-rms standardized columns (the
            # bias column is 1), so float64 rounds that sum by up to about
            # n * eps. A fit at the optimum can promise no smaller norm over
            # the k(d+1) entries.
            assert np.linalg.norm(gradient(x, y, w.T, b, lam)) <= \
                np.sqrt(k * (d + 1)) * n * eps, case
            assert iters <= 30, case
            # The referee's own gradient descent, started at the fit, finds no
            # lower objective, up to the rounding of f that the fit's own
            # stopping test allows.
            wr, br, _, _ = reference_linear_probe(x, y, k, lam, 200, 0.0, start=(w.T, b))
            f, f_ref = objective(x, y, w.T, b, lam), objective(x, y, wr, br, lam)
            assert f <= f_ref + 4 * eps * max(f_ref, 1.0), case

    def test_fit_does_not_depend_on_train_row_order(self, rng):
        # Reordering the train rows changes only the rounding of each sum; a
        # fit that ends at the optimum ends in the same place.
        for k in (2, 3, 12):
            for d in (2, 64):
                n = int(rng.integers(100, 1601))
                y = rng.permutation(n) % k
                x = rng.normal(size=(n, d)) + 1.5 * rng.normal(size=(k, d))[y]
                labels = [f"c{i:02d}" for i in y]
                train = emb_set(x, labels)
                test = emb_set(rng.normal(size=(200, d)) + x[:200], labels[:200])
                perm = rng.permutation(n)
                moved = emb_set(x[perm], [labels[i] for i in perm])
                case = (k, d, n)
                assert (linear_probe(train, test).predictions
                        == linear_probe(moved, test).predictions), case
                fits = []
                for rows in (np.arange(n), perm):
                    mean, std = probes._standardize_stats(x[rows])
                    w, b, _ = probes._fit_softmax((x[rows] - mean) / std, y[rows],
                                                  k, 1e-4, 0.0)
                    fits.append(np.hstack([w, b[:, None]]))
                scale = np.abs(fits[0]).max()
                assert np.abs(fits[0] - fits[1]).max() <= 1e-10 * scale, case


def objective(x, y, w, b, lam):
    """Mean cross-entropy plus 0.5 * lam * |w|^2, row-major: w is [d, k]."""
    z = x @ w + b
    top = z.max(axis=1, keepdims=True)
    lse = top[:, 0] + np.log(np.exp(z - top).sum(axis=1))
    return (lse - z[np.arange(len(y)), y]).mean() + 0.5 * lam * (w * w).sum()


def gradient(x, y, w, b, lam):
    """The objective's gradient in [w; b], row-major: [d + 1, k]."""
    z = x @ w + b
    p = np.exp(z - z.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    p[np.arange(len(y)), y] -= 1.0
    return np.vstack([x.T @ p / len(y) + lam * w, p.sum(axis=0) / len(y)])


def unlabeled_row_37(rng):
    """40 labeled rows over two sources, except row 37."""
    labels = ["a", "b"] * 20
    labels[37] = None
    return emb_set(rng.normal(size=(40, 4)), labels,
                   sources=[f"s{i % 2}" for i in range(40)])


class TestLoso:
    def _four_source_set(self, rng):
        return cluster_set(rng, n_per_class=12, classes=("a", "b"),
                           sources=("s1", "s2", "s3", "s4"), spread=0.2)

    def test_four_sources_twelve_records(self, rng):
        report = leave_one_source_out(self._four_source_set(rng),
                                      {"kind": "knn", "k": 1})
        assert report.protocol == "loso"
        assert len(report.records) == 12
        pairs = {(r.train_tag, r.test_tag) for r in report.records}
        assert len(pairs) == 12
        assert all(a != b for a, b in pairs)

    def test_two_sources_two_records(self, rng):
        emb = cluster_set(rng, n_per_class=8, classes=("a", "b"),
                          sources=("s1", "s2"))
        report = leave_one_source_out(emb, {"kind": "knn", "k": 1})
        assert [(r.train_tag, r.test_tag) for r in report.records] == \
            [("s1", "s2"), ("s2", "s1")]

    def test_split_metrics_match_manual_pair(self, rng):
        emb = self._four_source_set(rng)
        spec = {"kind": "knn", "k": 3}
        report = leave_one_source_out(emb, spec)
        rec = next(r for r in report.records
                   if r.train_tag == "s2" and r.test_tag == "s4")
        tr = emb.subset([i for i, s in enumerate(emb.sources) if s == "s2"])
        te = emb.subset([i for i, s in enumerate(emb.sources) if s == "s4"])
        assert rec.metrics == run_classifier(spec, tr, te)
        assert rec.n_train == len(tr) and rec.n_test == len(te)

    def test_spec_takes_its_kinds_keys_and_the_classifiers_defaults(self, rng):
        emb = cluster_set(rng, n_per_class=14, spread=0.8)
        tr, te = emb.subset(range(0, 42, 2)), emb.subset(range(1, 42, 2))
        every_key = {"k": 5, "metric": "euclidean", "reg_lambda": 1e-2, "tol": 1e-3}
        assert (run_classifier({"kind": "knn", **every_key}, tr, te)
                == knn(tr, te, k=5, metric="euclidean").metrics)
        assert (run_classifier({"kind": "linear", **every_key}, tr, te)
                == linear_probe(tr, te, reg_lambda=1e-2, tol=1e-3).metrics)
        assert (run_classifier({"kind": "knn"}, tr, te)
                == knn(tr, te, k=20, metric="cosine").metrics)
        assert (run_classifier({"kind": "linear"}, tr, te)
                == linear_probe(tr, te, reg_lambda=1e-4, tol=0.0).metrics)

    def test_single_source_rejected(self, rng):
        emb = cluster_set(rng, sources=("only",))
        with pytest.raises(ProtocolError):
            leave_one_source_out(emb, {"kind": "knn", "k": 1})

    def test_unlabeled_row_named_by_its_index_in_the_set(self, rng):
        emb = unlabeled_row_37(rng)
        with pytest.raises(ProtocolError, match=r"^row 37 of the embedding set has no label$"):
            leave_one_source_out(emb, {"kind": "knn", "k": 1})

    def test_source_means_average_pairs(self, rng):
        report = leave_one_source_out(self._four_source_set(rng),
                                      {"kind": "knn", "k": 1})
        means = loso_source_means(report)
        assert sorted(means) == ["s1", "s2", "s3", "s4"]
        rows = [r.metrics["acc"] for r in report.records if r.train_tag == "s3"]
        np.testing.assert_allclose(means["s3"]["acc"], np.mean(rows))


class TestKfold:
    def test_ten_rows_five_folds_partition(self, rng):
        emb = cluster_set(rng, n_per_class=5, classes=("a", "b"), d=3)
        folds = kfold_assignments(emb.labels, k=5, seed=0)
        assert folds.shape == (10,)
        for f in range(5):
            assert (folds == f).sum() == 2
        report = kfold(emb, {"kind": "knn", "k": 1}, k=5, seed=0)
        assert len(report.records) == 5
        assert sum(r.n_test for r in report.records) == 10
        assert all(r.n_train + r.n_test == 10 for r in report.records)

    def test_same_seed_same_assignment(self, rng):
        labels = [str(c) for c in rng.integers(0, 3, size=30)]
        a = kfold_assignments(labels, k=5, seed=42)
        b = kfold_assignments(labels, k=5, seed=42)
        np.testing.assert_array_equal(a, b)

    def test_different_seed_differs(self, rng):
        labels = [str(c) for c in rng.integers(0, 3, size=60)]
        a = kfold_assignments(labels, k=5, seed=0)
        b = kfold_assignments(labels, k=5, seed=1)
        assert not np.array_equal(a, b)

    def test_stratified_within_one_sample(self):
        labels = ["a"] * 10 + ["b"] * 10 + ["c"] * 10
        folds = kfold_assignments(labels, k=5, seed=3)
        arr = np.array(folds)
        for f in range(5):
            for cls, lo in (("a", 0), ("b", 10), ("c", 20)):
                in_fold = (arr[lo:lo + 10] == f).sum()
                assert abs(in_fold - 2) <= 1, (f, cls)

    def test_small_class_falls_back_unstratified(self):
        labels = ["a"] * 18 + ["rare"] * 2
        folds = kfold_assignments(labels, k=5, seed=0)
        # still a valid cover: every row assigned, all folds non-empty
        assert set(folds.tolist()) == {0, 1, 2, 3, 4}

    def test_one_deal_loop_matches_two_branch_reference(self, rng, caplog):
        # Few rows over many classes reach the unstratified fallback, many
        # rows over few classes the stratified deal.
        branches = set()
        for trial in range(60):
            n = int(rng.integers(0, 40))
            n_classes = int(rng.integers(1, 7))
            labels = [f"c{c}" for c in rng.integers(0, n_classes, size=n)]
            k = int(rng.integers(2, 6))
            caplog.clear()
            got = kfold_assignments(labels, k, seed=trial)
            branches.add("falling back" in caplog.text)
            want = reference_kfold_assignments(labels, k, seed=trial)
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want, str((labels, k)))
        assert branches == {False, True}

    def test_unlabeled_row_named_by_its_index_in_the_set(self, rng, caplog):
        emb = unlabeled_row_37(rng)
        with pytest.raises(ProtocolError, match=r"^row 37 of the embedding set has no label$"):
            kfold(emb, {"kind": "knn", "k": 1}, k=5)
        assert "falling back" not in caplog.text

    def test_too_few_rows_rejected(self, rng):
        emb = cluster_set(rng, n_per_class=1, classes=("a", "b"), d=3)
        with pytest.raises(ProtocolError):
            kfold(emb, {"kind": "knn", "k": 1}, k=5)

    def test_unknown_classifier_kind(self, rng):
        emb = cluster_set(rng, n_per_class=5, classes=("a", "b"))
        with pytest.raises(ParameterError):
            kfold(emb, {"kind": "svm"}, k=2)


class TestReport:
    def _report(self):
        return EvalReport(protocol="loso", records=[
            SplitRecord("s1", "s2", 10, 10,
                        {"acc": 0.8, "bacc": 0.75, "wf1": 0.79}),
            SplitRecord("s2", "s1", 10, 10,
                        {"acc": 0.6, "bacc": 0.55, "wf1": 0.58}),
        ])

    def test_aggregate_mean_and_sample_std(self):
        agg = self._report().aggregates()
        np.testing.assert_allclose(agg["acc"][0], 0.7)
        np.testing.assert_allclose(agg["acc"][1], np.std([0.8, 0.6], ddof=1))

    def test_single_record_std_undefined(self):
        report = EvalReport(protocol="loso", records=[
            SplitRecord("s1", "s2", 5, 5,
                        {"acc": 1.0, "bacc": 1.0, "wf1": 1.0})])
        assert report.aggregates()["acc"] == (1.0, None)

    def test_csv_layout(self, tmp_path):
        path = str(tmp_path / "report.csv")
        write_report_csv(path, self._report())
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["protocol", "train", "test", "n_train", "n_test",
                           "acc", "bacc", "wf1"]
        assert rows[1][:3] == ["loso", "s1", "s2"]
        kinds = [r[1] for r in rows[1:]]
        assert kinds.count("AGGREGATE") == 2
        assert kinds.count("AGGREGATE_SOURCE") == 2

    def test_format_report_mentions_protocol_and_splits(self):
        text = format_report(self._report())
        assert "loso" in text and "2 splits" in text
        assert "+-" in text


class TestEmbeddingIO:
    def test_roundtrip_bits(self, tmp_path, rng):
        emb = EmbeddingSet(
            vectors=rng.normal(size=(7, 5)).astype(np.float32),
            ids=[f"img{i}" for i in range(7)],
            sources=["srcA"] * 4 + ["srcB"] * 3,
            labels=["disc", None, "sickle", None, "disc", "disc", None],
        )
        path = str(tmp_path / "e.emb")
        write_embeddings(path, emb)
        back = read_embeddings(path)
        np.testing.assert_array_equal(back.vectors, emb.vectors)
        assert back.ids == emb.ids
        assert back.sources == emb.sources
        assert back.labels == emb.labels

    def test_subset_copies_the_vectors(self, rng):
        emb = emb_set(rng.normal(size=(6, 3)), ["a"] * 6)
        sub = emb.subset([4, 0, 2])
        assert not np.shares_memory(sub.vectors, emb.vectors)
        np.testing.assert_array_equal(sub.vectors, emb.vectors[[4, 0, 2]])

    def test_on_disk_layout(self, tmp_path):
        emb = EmbeddingSet(np.arange(6, dtype=np.float32).reshape(2, 3),
                           ["a", "b"], ["s", "s"], [None, None])
        path = str(tmp_path / "e.emb")
        write_embeddings(path, emb)
        with open(path, "rb") as fh:
            raw = fh.read()
        assert raw[:4] == b"EMB1"
        assert int.from_bytes(raw[4:8], "little") == 2
        assert int.from_bytes(raw[8:12], "little") == 3
        assert len(raw) == 12 + 24
        assert os.path.exists(sidecar_path(path))

    def test_bad_magic_rejected(self, tmp_path):
        path = str(tmp_path / "junk.emb")
        with open(path, "wb") as fh:
            fh.write(b"NOPE" + bytes(8))
        with pytest.raises(InputError):
            read_embeddings(path)

    def test_truncated_rejected(self, tmp_path):
        emb = EmbeddingSet(np.zeros((3, 4), np.float32), list("abc"),
                           ["s"] * 3, [None] * 3)
        path = str(tmp_path / "e.emb")
        write_embeddings(path, emb)
        with open(path, "rb") as fh:
            raw = fh.read()
        with open(path, "wb") as fh:
            fh.write(raw[:-5])
        with pytest.raises(InputError):
            read_embeddings(path)

    def test_truncated_header_rejected(self, tmp_path):
        path = str(tmp_path / "short.emb")
        with open(path, "wb") as fh:
            fh.write(b"EMB1\x01\x00")
        with pytest.raises(InputError, match="short.emb"):
            read_embeddings(path)

    def test_sidecar_with_wrong_columns_rejected(self, tmp_path):
        emb = EmbeddingSet(np.zeros((1, 2), np.float32), ["a"], ["s"], [None])
        path = str(tmp_path / "e.emb")
        write_embeddings(path, emb)
        with open(sidecar_path(path), "w") as fh:
            fh.write("row,name,source_id,label\n0,a,s,\n")
        with pytest.raises(InputError, match="sidecar header"):
            read_embeddings(path)

    def test_non_utf8_sidecar_rejected_with_line(self, tmp_path):
        emb = EmbeddingSet(np.zeros((2, 2), np.float32), ["a", "b"],
                           ["s", "s"], [None, None])
        path = str(tmp_path / "e.emb")
        write_embeddings(path, emb)
        with open(sidecar_path(path), "wb") as fh:
            fh.write(b"row,id,source_id,label\n0,a,s,\n1,\xff,s,\n")
        with pytest.raises(InputError, match=r"e\.emb\.csv: line 3 is not UTF-8"):
            read_embeddings(path)

    @pytest.mark.parametrize("bad_row", ["0", "0,a,s", "0,a,s,,extra"])
    def test_sidecar_row_with_wrong_field_count_rejected(self, tmp_path, bad_row):
        emb = EmbeddingSet(np.zeros((2, 2), np.float32), ["a", "b"],
                           ["s", "s"], [None, None])
        path = str(tmp_path / "e.emb")
        write_embeddings(path, emb)
        with open(sidecar_path(path), "w") as fh:
            fh.write(f"row,id,source_id,label\n{bad_row}\n1,b,s,\n")
        with pytest.raises(InputError, match=r"e\.emb\.csv: line 2 "):
            read_embeddings(path)

    def test_sidecar_rows_out_of_order_rejected(self, tmp_path):
        # swapped lines would attach each id, source and label to the other vector
        emb = EmbeddingSet(np.zeros((2, 2), np.float32), ["a", "b"],
                           ["s", "t"], [None, None])
        path = str(tmp_path / "e.emb")
        write_embeddings(path, emb)
        with open(sidecar_path(path), "w") as fh:
            fh.write("row,id,source_id,label\n1,b,t,\n0,a,s,\n")
        with pytest.raises(InputError,
                           match=r"e\.emb\.csv: line 2: row '1' is not its index 0"):
            read_embeddings(path)

    def test_missing_sidecar_rejected(self, tmp_path):
        emb = EmbeddingSet(np.zeros((2, 2), np.float32), ["a", "b"],
                           ["s", "s"], [None, None])
        path = str(tmp_path / "e.emb")
        write_embeddings(path, emb)
        os.remove(sidecar_path(path))
        with pytest.raises(InputError):
            read_embeddings(path)

    def test_nonfinite_vectors_rejected(self):
        with pytest.raises(InputError):
            EmbeddingSet(np.array([[np.inf, 0.0]], dtype=np.float32),
                         ["a"], ["s"], [None])

    def test_one_dimensional_matrix_rejected(self):
        with pytest.raises(DimensionError,
                           match="embedding matrix must be 2-d, got 1-d"):
            EmbeddingSet(np.zeros(2, np.float32), ["a", "b"], ["s", "s"],
                         [None, None])

    def test_metadata_length_other_than_rows_rejected(self):
        with pytest.raises(DimensionError,
                           match="metadata length does not match row count"):
            EmbeddingSet(np.zeros((2, 3), np.float32), ["a"], ["s", "s"],
                         [None, None])

    def test_sidecar_row_count_other_than_vectors_rejected(self, tmp_path):
        emb = EmbeddingSet(np.zeros((2, 2), np.float32), ["a", "b"],
                           ["s", "s"], [None, None])
        path = str(tmp_path / "e.emb")
        write_embeddings(path, emb)
        with open(sidecar_path(path), "w") as fh:
            fh.write("row,id,source_id,label\n0,a,s,\n")
        with pytest.raises(InputError,
                           match=r"e\.emb\.csv: 1 metadata rows for 2 vectors"):
            read_embeddings(path)

    def _wide_set(self, rng):
        # 4 MB of vectors, so the sidecar's few hundred short rows are noise
        n, d = 256, 4096
        return EmbeddingSet(rng.standard_normal((n, d)).astype(np.float32),
                            [f"r{i}" for i in range(n)], ["s"] * n, ["a"] * n)

    def test_write_holds_no_copy_of_the_matrix(self, tmp_path, rng):
        emb = self._wide_set(rng)
        path = str(tmp_path / "e.emb")
        _, _, peak = traced_memory(lambda: write_embeddings(path, emb))
        assert peak <= 0.1 * emb.vectors.nbytes, peak / emb.vectors.nbytes
        np.testing.assert_array_equal(read_embeddings(path).vectors, emb.vectors)

    def test_read_holds_one_copy_of_the_matrix(self, tmp_path, rng):
        # the matrix, plus the bool array of the finite check (a quarter)
        emb = self._wide_set(rng)
        path = str(tmp_path / "e.emb")
        write_embeddings(path, emb)
        back, _, peak = traced_memory(lambda: read_embeddings(path))
        assert peak <= 1.3 * emb.vectors.nbytes, peak / emb.vectors.nbytes
        np.testing.assert_array_equal(back.vectors, emb.vectors)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    samples = gen_synthetic(SynthConfig(n_images=4))
    manifest = write_dataset(str(root), samples, with_masks=False)
    ckpt = str(root / "enc.rdck")
    state = init_train_state(
        VitConfig(),
        SslConfig(head_hidden=16, bottleneck=8, num_prototypes=8),
        TrainConfig(iterations=1, seed=0))
    export_teacher(ckpt, state)
    return manifest, ckpt


@pytest.fixture(scope="module")
def records65(tmp_path_factory):
    """65 distinct images: one default batch of 64, then a batch of one."""
    root = tmp_path_factory.mktemp("corpus65")
    samples = gen_synthetic(SynthConfig(n_images=65))
    return load_manifest(write_dataset(str(root), samples, with_masks=False))


def serial_embed(ckpt, records, batch_size=64):
    """One forward of each whole batch on the calling thread."""
    encoder = load_encoder(ckpt)
    rows = []
    for start in range(0, len(records), batch_size):
        batch = np.stack(load_images(records[start:start + batch_size]))
        rows.append(encoder.forward(batch.astype(np.float32) / 255.0).data)
    return np.concatenate(rows, axis=0).astype(np.float32)


class TestEmbed:
    def test_rows_follow_manifest(self, corpus):
        manifest, ckpt = corpus
        records = load_manifest(manifest)
        emb = embed(ckpt, records)
        assert len(emb) == 4
        assert emb.dim == VitConfig().embed_dim
        assert emb.sources == [r.source_id for r in records]
        assert emb.labels == [r.label for r in records]

    def test_duplicate_record_identical_rows(self, corpus):
        manifest, ckpt = corpus
        records = load_manifest(manifest)
        emb = embed(ckpt, [records[0], records[0]])
        np.testing.assert_array_equal(emb.vectors[0], emb.vectors[1])

    def test_partial_batches_match_one_batch(self, corpus):
        manifest, ckpt = corpus
        records = load_manifest(manifest)
        whole = embed(ckpt, records)
        split = embed(ckpt, records, batch_size=3)
        assert split.ids == whole.ids
        np.testing.assert_allclose(split.vectors, whole.vectors, atol=1e-5)

    @pytest.mark.parametrize("n, batch_size", [(65, 64), (65, 1), (1, 64)])
    def test_halves_match_whole_batch_bitwise(self, corpus, records65, n, batch_size):
        _, ckpt = corpus
        records = records65[:n]
        emb = embed(ckpt, records, batch_size=batch_size)
        assert emb.ids == [os.path.basename(r.path) for r in records]
        np.testing.assert_array_equal(emb.vectors,
                                      serial_embed(ckpt, records, batch_size))

    @pytest.mark.parametrize("fail_on", ["worker", "caller"])
    def test_error_in_a_half_reaches_caller_and_joins_worker(
            self, corpus, monkeypatch, fail_on):
        manifest, ckpt = corpus
        records = load_manifest(manifest)
        check_finite = T.Tensor.check_finite

        def failing(tensor, context="tensor"):
            on_worker = threading.current_thread() is not threading.main_thread()
            if on_worker == (fail_on == "worker"):
                raise NumericError(f"injected on the {fail_on}")
            return check_finite(tensor, context)

        monkeypatch.setattr(T.Tensor, "check_finite", failing)
        before = threading.active_count()
        with pytest.raises(NumericError, match=f"injected on the {fail_on}"):
            embed(ckpt, records)
        assert threading.active_count() == before

    def test_empty_manifest_zero_rows(self, corpus):
        _, ckpt = corpus
        emb = embed(ckpt, [])
        assert len(emb) == 0
        assert emb.dim == VitConfig().embed_dim


class TestPca:
    def test_components_orthonormal(self, rng):
        x = rng.normal(size=(40, 8)) * np.array([5, 3, 2, 1, 1, 1, 0.5, 0.1])
        comps, variances, _ = top_components(x, 3)
        np.testing.assert_allclose(comps @ comps.T, np.eye(3), atol=1e-6)

    def test_variances_non_increasing(self, rng):
        x = rng.normal(size=(50, 10))
        _, variances, _ = top_components(x, 3)
        assert variances[0] >= variances[1] >= variances[2] >= 0

    def test_matches_dense_eigensolver(self, rng):
        x = rng.normal(size=(60, 7)) * np.array([6, 4, 2.5, 1.5, 0.8, 0.3, 0.1])
        comps, variances, mean = top_components(x, 3)
        o_comps, o_vars, _ = dense_pca(x, 3)
        np.testing.assert_allclose(variances, o_vars, atol=1e-5)
        np.testing.assert_allclose(comps, o_comps, atol=1e-5)
        proj = (x - mean) @ comps.T
        o_proj = (x - x.mean(axis=0)) @ o_comps.T
        np.testing.assert_allclose(proj, o_proj, atol=1e-5)

    def test_variances_and_capture_without_a_solver(self, rng):
        # checked from the data alone: each component's projection has the
        # returned sample variance, and no orthonormal 3-frame of 100 random
        # ones captures more variance than the returned frame
        x = rng.normal(size=(80, 6)) @ rng.normal(size=(6, 6))
        comps, variances, mean = top_components(x, 3)
        xc = x - mean
        np.testing.assert_allclose((xc @ comps.T).var(axis=0, ddof=1),
                                   variances, rtol=1e-9)
        captured = variances.sum()
        for _ in range(100):
            frame, _ = np.linalg.qr(rng.normal(size=(6, 3)))
            assert (xc @ frame).var(axis=0, ddof=1).sum() <= captured * (1 + 1e-12)

    def test_rank_deficient_input_survives(self, rng):
        basis = rng.normal(size=(2, 6))
        x = rng.normal(size=(30, 2)) @ basis
        comps, variances, _ = top_components(x, 3)
        assert variances[2] < 1e-9
        np.testing.assert_allclose(comps @ comps.T, np.eye(3), atol=1e-6)

    def test_too_few_rows_rejected(self, rng):
        with pytest.raises(ProtocolError):
            top_components(rng.normal(size=(1, 5)), 3)

    def test_map_shape_and_range(self, rng):
        enc = seeded_encoder(VitConfig())
        img = rng.integers(0, 256, size=(64, 64, 3)).astype(np.uint8)
        rgb, comps, variances = pca_map(enc, img)
        assert rgb.shape == (64, 64, 3)
        assert rgb.dtype == np.uint8
        for c in range(3):
            assert rgb[:, :, c].min() == 0
            assert rgb[:, :, c].max() == 255
        assert comps.shape[0] == 3 and variances.shape == (3,)

    def test_map_deterministic(self, rng):
        enc = seeded_encoder(VitConfig())
        img = rng.integers(0, 256, size=(64, 64, 3)).astype(np.uint8)
        a, _, _ = pca_map(enc, img)
        b, _, _ = pca_map(enc, img)
        np.testing.assert_array_equal(a, b)

    def test_map_patch_grid_blocks(self, rng):
        # output is piecewise constant over patch_size x patch_size blocks
        enc = seeded_encoder(VitConfig())
        img = rng.integers(0, 256, size=(64, 64, 3)).astype(np.uint8)
        rgb, _, _ = pca_map(enc, img)
        block = rgb[:8, :8]
        assert np.all(block == block[0, 0])

    def test_too_few_tokens_rejected(self, rng):
        enc = seeded_encoder(VitConfig(image_size=8, patch_size=8, embed_dim=8,
                                       depth=1, heads=2))
        img = rng.integers(0, 256, size=(8, 8, 3)).astype(np.uint8)
        with pytest.raises(ProtocolError):
            pca_map(enc, img)
