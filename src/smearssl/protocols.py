"""Evaluation protocols over an EmbeddingSet: leave-one-source-out and
stratified k-fold, plus report serialization.

A classifier spec is a small dict, e.g. {"kind": "knn", "k": 20} or
{"kind": "linear", "reg_lambda": 1e-4}. `run_classifier` owns the classifier
kinds: it adapts a spec to its kind's classifier and refuses any other kind.
`EvalReport.add_split` scores and records every train/test split.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .data import write_table
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
        classifier, keys = linear_probe, ("reg_lambda", "tol")
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

    def add_split(self, spec: dict, train_tag: str, train: EmbeddingSet,
                  test_tag: str, test: EmbeddingSet) -> None:
        """Scores one train/test split with the spec's classifier; records it."""
        self.records.append(SplitRecord(train_tag, test_tag, len(train), len(test),
                                        run_classifier(spec, train, test)))

    def aggregates(self) -> dict[str, tuple[float, float | None]]:
        """Per metric: mean and sample std over the records (std None for one)."""
        out = {}
        for m in METRIC_NAMES:
            values = [r.metrics[m] for r in self.records]
            out[m] = (float(np.mean(values)),
                      float(np.std(values, ddof=1)) if len(values) >= 2 else None)
        return out


def _refuse_unlabeled(emb: EmbeddingSet) -> None:
    """Refuses an unlabeled row, named by its index in the whole set, before
    a split renumbers the rows."""
    if None in emb.labels:
        raise ProtocolError(f"row {emb.labels.index(None)} of the embedding set has no label")


def leave_one_source_out(emb: EmbeddingSet, classifier: dict) -> EvalReport:
    """Train on each source, test on every other source separately: one
    record per ordered (train, test) pair, s(s-1) in total."""
    sources = sorted(set(emb.sources))
    if len(sources) < 2:
        raise ProtocolError(f"leave-one-source-out needs >= 2 sources, "
                            f"got {sources}")
    _refuse_unlabeled(emb)
    by_source = {s: emb.subset([i for i, src in enumerate(emb.sources) if src == s])
                 for s in sources}
    report = EvalReport(protocol="loso")
    for train_src in sources:
        for test_src in sources:
            if train_src != test_src:
                report.add_split(classifier, train_src, by_source[train_src],
                                 test_src, by_source[test_src])
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
    """Fold index per row. Stratified when every class has at least k
    members: each class's rows, in sorted class order, are shuffled and
    dealt round-robin to the folds. Otherwise all rows are one group, a
    plain shuffled split (with a warning)."""
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 11])))
    groups = [np.array([i for i, lab in enumerate(labels) if lab == c])
              for c in sorted(set(labels))]
    small = [len(g) for g in groups if len(g) < k]
    if small:
        log.warning("class with only %d member(s) < k=%d; falling back to "
                    "unstratified folds", min(small), k)
        groups = [np.arange(len(labels))]
    folds = np.empty(len(labels), dtype=np.int64)
    for rows in groups:
        rng.shuffle(rows)
        folds[rows] = np.arange(len(rows)) % k
    return folds


def kfold(emb: EmbeddingSet, classifier: dict, k: int = 5, seed: int = 0) -> EvalReport:
    n = len(emb)
    if n < k:
        raise ProtocolError(f"{n} rows cannot form {k} folds")
    if k < 2:
        raise ParameterError("k must be >= 2")
    _refuse_unlabeled(emb)
    folds = kfold_assignments(emb.labels, k, seed)
    report = EvalReport(protocol=f"{k}fold")
    for f in range(k):
        report.add_split(classifier, f"fold!={f}", emb.subset(np.flatnonzero(folds != f)),
                         f"fold={f}", emb.subset(np.flatnonzero(folds == f)))
    return report


def _fmt(x: float | None) -> str:
    return "" if x is None else f"{x:.6f}"


def write_report_csv(path: str, report: EvalReport) -> None:
    rows = [(r.train_tag, r.test_tag, r.n_train, r.n_test, r.metrics) for r in report.records]
    agg = report.aggregates()
    rows += [("AGGREGATE", stat, "", "", {m: agg[m][i] for m in METRIC_NAMES})
             for i, stat in enumerate(("mean", "std"))]
    if report.protocol == "loso":
        rows += [("AGGREGATE_SOURCE", src, "", "", means)
                 for src, means in loso_source_means(report).items()]
    write_table(path, ("protocol", "train", "test", "n_train", "n_test", *METRIC_NAMES),
                ([report.protocol, *row[:4], *(_fmt(row[4][m]) for m in METRIC_NAMES)]
                 for row in rows))


def format_report(report: EvalReport) -> str:
    lines = [f"protocol: {report.protocol}  ({len(report.records)} splits)"]
    for r in report.records:
        lines.append(f"  train {r.train_tag:>10} -> test {r.test_tag:>10}  "
                     + "  ".join(f"{m} {r.metrics[m]:.4f}" for m in METRIC_NAMES))
    agg = report.aggregates()
    parts = []
    for m in METRIC_NAMES:
        mean, std = agg[m]
        parts.append(f"{m} {mean:.4f}" + (f" +- {std:.4f}" if std is not None else ""))
    lines.append("  aggregate: " + "  ".join(parts))
    return "\n".join(lines)
