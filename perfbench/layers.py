"""Per-layer tracing from outside the library.

`Recorder.install` replaces public entry points of smearssl's modules with
wrappers that record a span (name, start, end, parent span) around each call.
Spans stay in memory until the run writes them out. A layer's self time is
its span's duration minus the time its child spans cover.

Only module attributes are wrapped, so a call site sees a wrapper only if it
looks the function up through the module at call time (``trainer.train``
calls ``sample_batch``, ``train_step``, ``head_forward`` and friends as
globals of ``smearssl.trainer``, which is where they are wrapped).
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager

# (module, attribute, span name). A span name may be refined at call time,
# see `Recorder._name_for`.
ENTRY_POINTS = (
    ("synthetic", "gen_synthetic", "synthetic.gen_synthetic"),
    ("trainer", "train", "trainer.train"),
    ("trainer", "sample_batch", "augment.sample_batch"),
    ("trainer", "train_step", "trainer.train_step"),
    ("trainer", "head_forward", "objective.head_forward"),
    ("trainer", "teacher_targets_multiview", "objective.targets"),
    ("trainer", "total_loss", "objective.loss"),
    ("trainer", "ema_update", "trainer.ema"),
    ("trainer", "write_checkpoint", "checkpoint.write"),
    ("vit", "VitEncoder.forward", "vit.forward"),
    ("tensor", "Tape.backward", "tensor.backward"),
    ("embeddings", "embed", "embeddings.embed"),
    ("embeddings", "load_images", "data.load_images"),
    ("embeddings", "write_embeddings", "embeddings.io"),
    ("embeddings", "read_embeddings", "embeddings.io"),
    ("protocols", "leave_one_source_out", "protocols.loso"),
    ("protocols", "kfold", "protocols.kfold"),
    ("protocols", "knn", "probes.knn"),
    ("protocols", "linear_probe", "probes.linear"),
    ("probes", "compute_metrics", "metrics.compute"),
)


def _resolve(module, dotted: str):
    """(owner, attribute name, current value) or None if it no longer exists."""
    owner = module
    parts = dotted.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, parts[-1], None)
    if value is None:
        return None
    return owner, parts[-1], value


class Recorder:
    """Span store. Each span is [name, start, end, parent index, counts]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.active = True
        self._restore: list[tuple] = []
        self.missing: list[str] = []

    @contextmanager
    def span(self, name: str):
        if not self.active:
            yield None
            return
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = [name, time.perf_counter(), None, parent, {}]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def _parent_name(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def _name_for(self, base: str, smearssl) -> str:
        if base != "vit.forward":
            return base
        if smearssl.tensor.active_tape() is not None:
            return "vit.student_forward"
        if self._parent_name() == "embeddings.embed":
            return "vit.embed_forward"
        return "vit.teacher_forward"

    def install(self, smearssl) -> None:
        """Wrap every entry point in ENTRY_POINTS that still exists. A missing
        one is reported on stderr and its layer yields no number."""
        for mod_name, dotted, base in ENTRY_POINTS:
            module = getattr(smearssl, mod_name, None)
            found = _resolve(module, dotted) if module is not None else None
            if found is None or not callable(found[2]):
                self.missing.append(f"{mod_name}.{dotted}")
                print(f"perfbench: warning: smearssl.{mod_name}.{dotted} not "
                      f"found; layer {base} is not traced", file=sys.stderr)
                continue
            owner, attr, fn = found
            setattr(owner, attr, self._wrap(fn, base, smearssl))
            self._restore.append((owner, attr, fn))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    def _wrap(self, fn, base: str, smearssl):
        recorder = self

        def wrapper(*args, **kwargs):
            if not recorder.active:
                return fn(*args, **kwargs)
            with recorder.span(recorder._name_for(base, smearssl)) as rec:
                if base == "tensor.backward":
                    rec[4]["tape_records"] = len(args[0])
                out = fn(*args, **kwargs)
                if base == "probes.linear":
                    rec[4]["epochs"] = out.epochs_run
                return out

        wrapper.__wrapped__ = fn
        return wrapper

    # --- analysis -----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time of every span, in seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        return [s[2] - s[1] - child_time[i] for i, s in enumerate(self.spans)]

    def grouped(self, group: str, layers: set[str], value=None) -> list[float]:
        """One number per span named `group`: the summed self time (or
        `value(span)`) of the spans under it, itself included, whose names
        are in `layers`. Empty if no span is named in `layers`."""
        if not any(s[0] in layers for s in self.spans):
            return []
        selfs = self.self_times()
        owner = [None] * len(self.spans)
        for i, (name, _, _, parent, _) in enumerate(self.spans):
            if name == group:
                owner[i] = i
            elif parent is not None:
                owner[i] = owner[parent]
        totals: dict[int, float] = {i: 0.0 for i, s in enumerate(self.spans)
                                    if s[0] == group}
        for i, s in enumerate(self.spans):
            if owner[i] is not None and s[0] in layers:
                totals[owner[i]] += selfs[i] if value is None else value(s)
        return [totals[i] for i in sorted(totals)]

    def dump(self) -> list[list]:
        return [[n, s, e, p] + ([c] if c else []) for n, s, e, p, c in self.spans]

