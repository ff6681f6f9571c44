"""Evaluation protocols over an EmbeddingSet: leave-one-source-out and
stratified k-fold, plus report serialization.

A classifier spec is a small dict, e.g. {"kind": "knn", "k": 20} or
{"kind": "linear", "reg_lambda": 1e-4}; `run_classifier` adapts it.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, field

import numpy as np

from .embeddings import EmbeddingSet
from .errors import ParameterError, ProtocolError
from .metrics import METRIC_NAMES
from .probes import knn, linear_probe

log = logging.getLogger("smearssl.protocols")


def run_classifier(spec: dict, train: EmbeddingSet, test: EmbeddingSet) -> dict[str, float]:
    """Runs the spec's classifier with the spec keys of its kind; a key the
    spec leaves out takes the classifier's own default."""
    kind = spec.get("kind")
    if kind == "knn":
        classifier, keys = knn, ("k", "metric")
    elif kind == "linear":
        classifier, keys = linear_probe, ("reg_lambda", "max_epochs", "tol")
    else:
        raise ParameterError(f"unknown classifier kind {kind!r}")
    return classifier(train, test, **{key: spec[key] for key in keys if key in spec}).metrics


@dataclass(frozen=True)
class SplitRecord:
    train_tag: str
    test_tag: str
    n_train: int
    n_test: int
    metrics: dict[str, float]


@dataclass
class EvalReport:
    protocol: str
    records: list[SplitRecord] = field(default_factory=list)

    def aggregate(self, values: list[float]) -> tuple[float, float | None]:
        mean = float(np.mean(values))
        std = float(np.std(values, ddof=1)) if len(values) >= 2 else None
        return mean, std

    def aggregates(self) -> dict[str, tuple[float, float | None]]:
        out = {}
        for m in METRIC_NAMES:
            out[m] = self.aggregate([r.metrics[m] for r in self.records])
        return out


def leave_one_source_out(emb: EmbeddingSet, classifier: dict) -> EvalReport:
    """Train on each source, test on every other source separately: one
    record per ordered (train, test) pair, s(s-1) in total."""
    sources = emb.source_set()
    if len(sources) < 2:
        raise ProtocolError(f"leave-one-source-out needs >= 2 sources, "
                            f"got {sources}")
    by_source = {s: emb.subset([i for i, src in enumerate(emb.sources) if src == s])
                 for s in sources}
    report = EvalReport(protocol="loso")
    for train_src in sources:
        for test_src in sources:
            if train_src == test_src:
                continue
            metrics = run_classifier(classifier, by_source[train_src],
                                     by_source[test_src])
            report.records.append(SplitRecord(
                train_tag=train_src, test_tag=test_src,
                n_train=len(by_source[train_src]),
                n_test=len(by_source[test_src]),
                metrics=metrics))
    return report


def loso_source_means(report: EvalReport) -> dict[str, dict[str, float]]:
    """Mean metrics per training source, a coarser view than the per-pair
    records; derived losslessly from them."""
    out: dict[str, dict[str, float]] = {}
    for src in sorted({r.train_tag for r in report.records}):
        rows = [r for r in report.records if r.train_tag == src]
        out[src] = {m: float(np.mean([r.metrics[m] for r in rows]))
                    for m in METRIC_NAMES}
    return out


def kfold_assignments(labels: list[str], k: int, seed: int) -> np.ndarray:
    """Fold index per row. Stratified round-robin within each class when
    every class has at least k members; otherwise a plain shuffled split
    (with a warning)."""
    n = len(labels)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 11])))
    counts: dict[str, int] = {}
    for lab in labels:
        counts[lab] = counts.get(lab, 0) + 1
    folds = np.empty(n, dtype=np.int64)
    if all(c >= k for c in counts.values()):
        for lab in sorted(counts):
            idx = np.array([i for i, l in enumerate(labels) if l == lab])
            rng.shuffle(idx)
            for pos, row in enumerate(idx):
                folds[row] = pos % k
    else:
        small = sorted(c for c in counts.values() if c < k)
        log.warning("class with only %d member(s) < k=%d; falling back to "
                    "unstratified folds", small[0], k)
        idx = np.arange(n)
        rng.shuffle(idx)
        for pos, row in enumerate(idx):
            folds[row] = pos % k
    return folds


def kfold(emb: EmbeddingSet, classifier: dict, k: int = 5, seed: int = 0) -> EvalReport:
    n = len(emb)
    if n < k:
        raise ProtocolError(f"{n} rows cannot form {k} folds")
    if k < 2:
        raise ParameterError("k must be >= 2")
    labels = [lab if lab is not None else "" for lab in emb.labels]
    folds = kfold_assignments(labels, k, seed)
    report = EvalReport(protocol=f"{k}fold")
    for f in range(k):
        test_idx = np.nonzero(folds == f)[0]
        train_idx = np.nonzero(folds != f)[0]
        metrics = run_classifier(classifier, emb.subset(train_idx),
                                 emb.subset(test_idx))
        report.records.append(SplitRecord(
            train_tag=f"fold!={f}", test_tag=f"fold={f}",
            n_train=len(train_idx), n_test=len(test_idx), metrics=metrics))
    return report


def _fmt(x: float | None) -> str:
    return "" if x is None else f"{x:.6f}"


def write_report_csv(path: str, report: EvalReport) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["protocol", "train", "test", "n_train", "n_test",
                         "acc", "bacc", "wf1"])
        for r in report.records:
            writer.writerow([report.protocol, r.train_tag, r.test_tag,
                             r.n_train, r.n_test,
                             _fmt(r.metrics["acc"]), _fmt(r.metrics["bacc"]),
                             _fmt(r.metrics["wf1"])])
        agg = report.aggregates()
        writer.writerow([report.protocol, "AGGREGATE", "mean", "", ""]
                        + [_fmt(agg[m][0]) for m in METRIC_NAMES])
        writer.writerow([report.protocol, "AGGREGATE", "std", "", ""]
                        + [_fmt(agg[m][1]) for m in METRIC_NAMES])
        if report.protocol == "loso":
            for src, mm in loso_source_means(report).items():
                writer.writerow([report.protocol, "AGGREGATE_SOURCE", src, "", ""]
                                + [_fmt(mm[m]) for m in METRIC_NAMES])


def format_report(report: EvalReport) -> str:
    lines = [f"protocol: {report.protocol}  ({len(report.records)} splits)"]
    for r in report.records:
        lines.append(f"  train {r.train_tag:>10} -> test {r.test_tag:>10}  "
                     f"acc {r.metrics['acc']:.4f}  bacc {r.metrics['bacc']:.4f}  "
                     f"wf1 {r.metrics['wf1']:.4f}")
    agg = report.aggregates()
    parts = []
    for m in METRIC_NAMES:
        mean, std = agg[m]
        parts.append(f"{m} {mean:.4f}" + (f" +- {std:.4f}" if std is not None else ""))
    lines.append("  aggregate: " + "  ".join(parts))
    return "\n".join(lines)
