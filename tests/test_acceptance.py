"""Acceptance gate.

Ten numbered criteria, one test per criterion, one verdict line per test,
and one guard that criterion 1 covers every tape primitive.
Each test measures first, then records a PASS/FAIL line (echoed in the
terminal summary via conftest) and only then asserts, so the printed line
carries the observed numbers either way.

Criterion 3 trains two 300-iteration arms on the pinned synthetic corpus and
dominates the runtime of this file (101 to 216 s measured on a 2-core CPU).
All thresholds there were calibrated once on the pinned seed and then frozen;
nothing in this file adapts to the observed values.
"""

import inspect
import time
import zlib

import numpy as np

from conftest import ACCEPTANCE_LINES
from oracles import (dense_pca, finite_diff_grad, grad_check, naive_knn,
                     naive_metrics, patch_count_formula, seeded_encoder)

from smearssl import ablation
from smearssl import tensor as T
from smearssl.cli import main
from smearssl.data import SmearImage, patchify
from smearssl.embeddings import EmbeddingSet, read_embeddings, write_embeddings
from smearssl.metrics import compute_metrics
from smearssl.objective import (SslConfig, head_forward, init_head_params,
                                koleo_loss, sinkhorn_targets, total_loss)
from smearssl.pca import pca_map, top_components
from smearssl.probes import knn
from smearssl.protocols import kfold, kfold_assignments, leave_one_source_out
from smearssl.synthetic import SynthConfig, gen_synthetic
from smearssl.trainer import (TrainConfig, init_train_state, load_train_state,
                              save_train_state)
from smearssl.vit import VitConfig


def record(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"criterion {num:2d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    ACCEPTANCE_LINES.append(line)
    print(line, flush=True)
    assert ok, line


# --- criterion 1: finite-difference gradient suite ---------------------------

def _t(rng, shape, lo=-1.5, hi=1.5):
    return T.Tensor(rng.uniform(lo, hi, size=shape), requires_grad=True)


def _weighted_sum(out: T.Tensor, w: np.ndarray) -> T.Tensor:
    return T.tensor_sum(out * T.Tensor(w))


def _case_add(rng):
    b_shape = (4,) if rng.random() < 0.3 else (3, 4)
    a, b = _t(rng, (3, 4)), _t(rng, b_shape)
    w = rng.normal(size=(3, 4))
    return [a, b], lambda ts: _weighted_sum(T.add(ts[0], ts[1]), w)


def _case_sub(rng):
    b_shape = (4,) if rng.random() < 0.3 else (3, 4)
    a, b = _t(rng, (3, 4)), _t(rng, b_shape)
    w = rng.normal(size=(3, 4))
    return [a, b], lambda ts: _weighted_sum(T.sub(ts[0], ts[1]), w)


def _case_neg(rng):
    a = _t(rng, (3, 4))
    w = rng.normal(size=(3, 4))
    return [a], lambda ts: _weighted_sum(T.neg(ts[0]), w)


def _case_mul(rng):
    b_shape = (4,) if rng.random() < 0.3 else (3, 4)
    a, b = _t(rng, (3, 4)), _t(rng, b_shape)
    w = rng.normal(size=(3, 4))
    return [a, b], lambda ts: _weighted_sum(T.mul(ts[0], ts[1]), w)


def _case_matmul(rng):
    variant = int(rng.integers(3))
    if variant == 0:                      # plain 2-d
        a, b = _t(rng, (3, 4)), _t(rng, (4, 5))
        w = rng.normal(size=(3, 5))
    elif variant == 1:                    # stacked left operand
        a, b = _t(rng, (2, 3, 4)), _t(rng, (4, 5))
        w = rng.normal(size=(2, 3, 5))
    else:                                 # both stacked, attention style
        a, b = _t(rng, (2, 2, 3, 4)), _t(rng, (2, 2, 4, 3))
        w = rng.normal(size=(2, 2, 3, 3))
    return [a, b], lambda ts: _weighted_sum(T.matmul(ts[0], ts[1]), w)


def _case_linear(rng):
    x_shape = (3, 4) if rng.random() < 0.5 else (2, 3, 4)
    x, w, b = _t(rng, x_shape), _t(rng, (4, 5)), _t(rng, (5,))
    wt = rng.normal(size=x_shape[:-1] + (5,))
    return [x, w, b], lambda ts: _weighted_sum(T.linear(ts[0], ts[1], ts[2]), wt)


def _case_attention(rng):
    heads = int(rng.integers(1, 3))
    d = heads * int(rng.integers(2, 4))
    qkv = _t(rng, (2, 3, 3 * d))
    w = rng.normal(size=(2, 3, d))
    return [qkv], lambda ts: _weighted_sum(T.attention(ts[0], heads), w)


def _case_attention_one_query(rng):
    # the encoder's last block: a query for token 0 only, keys and values
    # from every token
    heads = int(rng.integers(1, 3))
    d = heads * int(rng.integers(2, 4))
    qkv = _t(rng, (2, 4, 3 * d))
    w = rng.normal(size=(2, 1, d))
    return [qkv], lambda ts: _weighted_sum(T.attention(ts[0], heads, 1), w)


def _case_transpose(rng):
    a = _t(rng, (2, 3, 4))
    axes = tuple(int(i) for i in rng.permutation(3))
    shape = tuple((2, 3, 4)[i] for i in axes)
    w = rng.normal(size=shape)
    return [a], lambda ts: _weighted_sum(T.transpose(ts[0], axes), w)


def _case_reshape(rng):
    a = _t(rng, (3, 4))
    shape = [(2, 6), (6, 2), (12,), (4, 3)][int(rng.integers(4))]
    w = rng.normal(size=shape)
    return [a], lambda ts: _weighted_sum(T.reshape(ts[0], shape), w)


def _case_concat(rng):
    axis = int(rng.integers(2))
    parts = [_t(rng, (2, 3)) for _ in range(3)]
    w = rng.normal(size=(6, 3) if axis == 0 else (2, 9))
    return parts, lambda ts: _weighted_sum(T.concat(ts, axis=axis), w)


def _case_narrow(rng):
    a = _t(rng, (4, 6))
    axis = int(rng.integers(2))
    size = (4, 6)[axis]
    length = int(rng.integers(1, size))
    start = int(rng.integers(0, size - length + 1))
    shape = (length, 6) if axis == 0 else (4, length)
    w = rng.normal(size=shape)
    return [a], lambda ts: _weighted_sum(T.narrow(ts[0], axis, start, length), w)


def _case_gather_rows(rng):
    a = _t(rng, (5, 3))
    idx = rng.integers(0, 5, size=7)     # repeats exercise scatter-add
    w = rng.normal(size=(7, 3))
    return [a], lambda ts: _weighted_sum(T.gather_rows(ts[0], idx), w)


def _reduce_case(op):
    def build(rng):
        a = _t(rng, (3, 4))
        axis = [None, 0, 1][int(rng.integers(3))]
        keepdims = bool(rng.integers(2))
        out_shape = np.sum(a.data, axis=axis, keepdims=keepdims).shape
        w = rng.normal(size=out_shape)
        return [a], lambda ts: _weighted_sum(op(ts[0], axis=axis,
                                                keepdims=keepdims), w)
    return build


def _case_log(rng):
    a = _t(rng, (3, 4), 0.3, 3.0)
    w = rng.normal(size=(3, 4))
    return [a], lambda ts: _weighted_sum(T.log(ts[0]), w)


def _case_sqrt(rng):
    a = _t(rng, (3, 4), 0.25, 4.0)
    w = rng.normal(size=(3, 4))
    return [a], lambda ts: _weighted_sum(T.sqrt(ts[0]), w)


def _case_gelu(rng):
    a = _t(rng, (3, 4), -3.0, 3.0)
    w = rng.normal(size=(3, 4))
    return [a], lambda ts: _weighted_sum(T.gelu(ts[0]), w)


def _case_log_softmax(rng):
    a = _t(rng, (3, 5), -2.0, 2.0)
    w = rng.normal(size=(3, 5))
    return [a], lambda ts: _weighted_sum(T.log_softmax(ts[0]), w)


def _case_layernorm(rng):
    a = _t(rng, (3, 5))
    gain = _t(rng, (5,), 0.5, 1.5)
    bias = _t(rng, (5,), -0.5, 0.5)
    w = rng.normal(size=(3, 5))
    return [a, gain, bias], lambda ts: _weighted_sum(
        T.layernorm(ts[0], ts[1], ts[2]), w)


def _case_l2_normalize(rng):
    mag = rng.uniform(0.5, 1.5, (3, 5)) * rng.choice([-1.0, 1.0], (3, 5))
    a = T.Tensor(mag, requires_grad=True)
    w = rng.normal(size=(3, 5))
    return [a], lambda ts: _weighted_sum(T.l2_normalize(ts[0]), w)


PRIMITIVE_CASES = {
    "add": _case_add,
    "sub": _case_sub,
    "neg": _case_neg,
    "mul": _case_mul,
    "matmul": _case_matmul,
    "transpose": _case_transpose,
    "reshape": _case_reshape,
    "concat": _case_concat,
    "narrow": _case_narrow,
    "gather_rows": _case_gather_rows,
    "sum": _reduce_case(T.tensor_sum),
    "mean": _reduce_case(T.mean),
    "log": _case_log,
    "sqrt": _case_sqrt,
    "gelu": _case_gelu,
    "log_softmax": _case_log_softmax,
    "layernorm": _case_layernorm,
    "l2_normalize": _case_l2_normalize,
    "linear": _case_linear,
    "attention": _case_attention,
    "attention_one_query": _case_attention_one_query,
}

# rows that check a primitive under another name
PRIMITIVE_OF_CASE = {"sum": "tensor_sum", "attention_one_query": "attention"}

CASES_PER_PRIMITIVE = 20


def test_gradient_suite_covers_every_primitive():
    public = {name for name, obj in vars(T).items()
              if inspect.isfunction(obj) and obj.__module__ == T.__name__
              and not name.startswith("_")}
    covered = {PRIMITIVE_OF_CASE.get(name, name) for name in PRIMITIVE_CASES}
    assert covered == public - {"active_tape"}


def _composite_case(seed: int) -> float:
    """Worst relative error of the full head + total loss at one random point."""
    rng = np.random.Generator(np.random.PCG64(seed))
    cfg = SslConfig(head_hidden=8, bottleneck=4, num_prototypes=6,
                    koleo_weight=0.1)
    params = {k: T.Tensor(v.data.astype(np.float64), requires_grad=True)
              for k, v in init_head_params(cfg, 8, rng).items()}
    emb = [rng.normal(size=(3, 8)), rng.normal(size=(3, 8))]
    targets = np.concatenate([
        sinkhorn_targets(head_forward(params, T.Tensor(e))[0].data,
                         cfg.teacher_temp, cfg.sinkhorn_iters) for e in emb])

    def fn(_):
        # one head pass per view, stacked to the [2B, ...] rows total_loss takes
        logits, zs = zip(*(head_forward(params, T.Tensor(e)) for e in emb))
        return total_loss(T.concat(logits), targets, cfg, student_z=T.concat(zs))

    subset = [params["fc1.weight"], params["fc2.weight"], params["fc3.weight"],
              params["prototypes"], params["fc1.bias"]]
    for p in subset:
        p.grad = None
    with T.Tape() as tape:
        tape.backward(fn(subset))
    numeric = finite_diff_grad(fn, subset, max_coords=2, seed=seed)
    worst = 0.0
    for p, n in zip(subset, numeric):
        flat_a, flat_n = p.grad.reshape(-1), n.reshape(-1)
        for i in np.nonzero(flat_n != 0.0)[0]:
            worst = max(worst,
                        abs(flat_a[i] - flat_n[i]) / max(1.0, abs(flat_n[i])))
    return worst


def test_criterion_01_gradient_suite():
    t0 = time.perf_counter()
    worst_primitive, worst_name = 0.0, ""
    for name, build in PRIMITIVE_CASES.items():
        # seeded by name, so adding or moving a primitive re-seeds no other
        seed = zlib.crc32(name.encode())
        for case in range(CASES_PER_PRIMITIVE):
            rng = np.random.Generator(np.random.PCG64([17, seed, case]))
            tensors, fn = build(rng)
            err = grad_check(fn, tensors)
            if err > worst_primitive:
                worst_primitive, worst_name = err, name

    worst_composite = max(_composite_case(100 + i) for i in range(20))
    elapsed = time.perf_counter() - t0

    ok = worst_primitive < 1e-4 and worst_composite < 1e-3 and elapsed < 60.0
    record(1, "gradient suite", ok,
           f"{len(PRIMITIVE_CASES)} primitive forms x {CASES_PER_PRIMITIVE} cases, "
           f"worst {worst_primitive:.2e} ({worst_name}) < 1e-4; composite x20 "
           f"worst {worst_composite:.2e} < 1e-3; {elapsed:.1f}s < 60s")


# --- criterion 2: sinkhorn invariants ----------------------------------------

def test_criterion_02_sinkhorn_invariants():
    t0 = time.perf_counter()
    rng = np.random.Generator(np.random.PCG64(21))
    logits = rng.normal(size=(32, 64))

    row_err = 0.0
    for iters in (1, 2, 3, 5, 8, 13, 50):
        q = sinkhorn_targets(logits, 0.04, iters)
        row_err = max(row_err, float(np.abs(q.sum(axis=1) - 1.0).max()))

    # Column balance needs the assignment matrix to be reasonably conditioned;
    # 50 rounds at unit temperature lands at machine precision, while a very
    # sharp temperature (0.04 on unit normals) would need far more rounds.
    q50 = sinkhorn_targets(logits, 1.0, 50)
    col_err = float(np.abs(q50.sum(axis=0) - 32 / 64).max())

    shift_err = float(np.abs(
        sinkhorn_targets(logits + 7.5, 0.04, 3)
        - sinkhorn_targets(logits, 0.04, 3)).max())

    uniform_exact = np.array_equal(sinkhorn_targets(np.zeros((8, 4)), 0.04, 3),
                                   np.full((8, 4), 0.25))
    elapsed = time.perf_counter() - t0

    ok = (row_err < 1e-6 and col_err < 1e-3 and shift_err < 1e-6
          and uniform_exact and elapsed < 5.0)
    record(2, "sinkhorn invariants", ok,
           f"rows {row_err:.1e} < 1e-6; cols@50 {col_err:.1e} < 1e-3; shift "
           f"{shift_err:.1e} < 1e-6; uniform fixed point exact={uniform_exact}; "
           f"{elapsed:.2f}s < 5s")


# --- criterion 3: collapse ablation ------------------------------------------
# The pinned configuration is `smearssl.ablation`'s, calibrated once on seed 0
# and then frozen. Observed at calibration time: centering none collapses to
# entropy 0.0000, sinkhorn holds ln(64)=4.1589 with marginal deviation ~7e-18,
# and the 20-NN cross-source accuracy is 0.5417 trained vs 0.3500 at
# initialization.

def test_criterion_03_collapse_ablation():
    t0 = time.perf_counter()
    samples = gen_synthetic(ablation.SYNTH)
    entropy_none = ablation.run_arm("none", samples)["entropy"]
    sk = ablation.run_arm("sinkhorn", samples)
    entropy_sk, marginal_dev = sk["entropy"], sk["marginal_dev"]
    acc_trained = sk["cross_source_acc"]
    init_state = init_train_state(VitConfig(), ablation.SSL, ablation.TRAIN)
    acc_init = ablation.cross_source_acc(init_state.teacher_enc, samples)

    history = sk["loss_history"]
    early, late = float(np.mean(history[:50])), float(np.mean(history[-50:]))

    elapsed = time.perf_counter() - t0
    half_lnk = 0.5 * np.log(ablation.SSL.num_prototypes)
    ok_entropy = entropy_none < half_lnk
    ok_marginals = marginal_dev < 1e-3
    ok_gap = acc_trained - acc_init >= 0.10
    ok_floor = acc_trained > 1 / 3 + 0.15
    ok_loss = late < early
    ok = (ok_entropy and ok_marginals and ok_gap and ok_floor and ok_loss
          and elapsed < 600.0)
    record(3, "collapse ablation", ok,
           f"entropy none {entropy_none:.4f} < {half_lnk:.4f} (sinkhorn "
           f"{entropy_sk:.4f}); marginal dev {marginal_dev:.1e} < 1e-3; 20-NN "
           f"cross-source {acc_trained:.4f} vs init {acc_init:.4f} (gap "
           f"{(acc_trained - acc_init) * 100:+.1f}pp >= 10pp, floor 0.4833); "
           f"loss {early:.4f} -> {late:.4f}; {elapsed:.0f}s < 600s")


# --- criterion 4: koleo unit behavior ----------------------------------------

def test_criterion_04_koleo_behavior():
    z = T.Tensor(np.array([[1.0, 0.0], [-1.0, 0.0]]), requires_grad=True)
    antipodal = koleo_loss(z).item()
    antipodal_err = abs(antipodal - (-np.log(2.0)))

    rng = np.random.Generator(np.random.PCG64(4))
    pts = rng.normal(size=(6, 5))
    base = koleo_loss(T.Tensor(pts)).item()
    scaled_pow2 = koleo_loss(T.Tensor(pts * 4.0)).item()
    scale_exact = scaled_pow2 == base
    scale_generic = abs(koleo_loss(T.Tensor(pts * 7.3)).item() - base)

    cfg_off = SslConfig(head_hidden=8, bottleneck=4, num_prototypes=6)
    cfg_on = SslConfig(head_hidden=8, bottleneck=4, num_prototypes=6,
                       koleo_weight=0.1)
    params = init_head_params(cfg_on, 8, rng)
    emb = [rng.normal(size=(4, 8)).astype(np.float32) for _ in range(2)]
    grads = {}
    for tag, cfg in (("off", cfg_off), ("on", cfg_on)):
        for p in params.values():
            p.grad = None
        with T.Tape() as tape:
            logits, zs = zip(*(head_forward(params, T.Tensor(e)) for e in emb))
            targets = np.concatenate([sinkhorn_targets(
                lg.data, cfg.teacher_temp, cfg.sinkhorn_iters) for lg in logits])
            tape.backward(total_loss(T.concat(logits), targets, cfg,
                                     student_z=T.concat(zs)))
        grads[tag] = {k: (p.grad.copy() if p.grad is not None else None)
                      for k, p in params.items()}
    grad_delta = max(
        float(np.abs(grads["on"][k] - grads["off"][k]).max())
        for k in grads["on"]
        if grads["on"][k] is not None and grads["off"][k] is not None)

    ok = antipodal_err < 1e-6 and scale_exact and scale_generic < 1e-9 \
        and grad_delta > 0.0
    record(4, "koleo behavior", ok,
           f"antipodal err {antipodal_err:.1e} < 1e-6; x4 scale bit-exact="
           f"{scale_exact}, x7.3 dev {scale_generic:.1e}; koleo-on grad delta "
           f"{grad_delta:.2e} > 0")


# --- criterion 5: metrics oracle ---------------------------------------------

def test_criterion_05_metrics_oracle():
    hand = compute_metrics([0, 0, 1], [0, 1, 1])
    hand_ok = (np.isclose(hand["acc"], 2 / 3) and np.isclose(hand["bacc"], 0.75)
               and np.isclose(hand["wf1"], 2 / 3))

    rng = np.random.Generator(np.random.PCG64(5))
    names = ["ant", "bee", "cat", "dog", "eel"]
    mismatches = 0
    for _ in range(100):
        n = int(rng.integers(5, 60))
        m = int(rng.integers(2, 6))
        y_true = [names[i] for i in rng.integers(0, m, size=n)]
        pool = names[:m] + (["zz"] if rng.random() < 0.3 else [])
        y_pred = [pool[i] for i in rng.integers(0, len(pool), size=n)]
        if compute_metrics(y_true, y_pred) != naive_metrics(y_true, y_pred):
            mismatches += 1

    ok = hand_ok and mismatches == 0
    record(5, "metrics oracle", ok,
           f"hand example acc=2/3 bacc=0.75 wf1=2/3 ok={hand_ok}; "
           f"{mismatches}/100 random vectors disagree with confusion oracle")


# --- criterion 6: k-NN oracle ------------------------------------------------

def test_criterion_06_knn_oracle():
    rng = np.random.Generator(np.random.PCG64(6))
    train_x = rng.normal(size=(50, 8)).astype(np.float32)
    test_x = rng.normal(size=(50, 8)).astype(np.float32)
    classes = ["a", "b", "c"]
    train_y = [classes[i] for i in rng.integers(0, 3, size=50)]
    test_y = [classes[i] for i in rng.integers(0, 3, size=50)]

    tr = EmbeddingSet(train_x, ids=[f"t{i}" for i in range(50)],
                      sources=["s"] * 50, labels=train_y)
    te = EmbeddingSet(test_x, ids=[f"q{i}" for i in range(50)],
                      sources=["s"] * 50, labels=test_y)

    mismatches = []
    for k in (1, 20):
        for metric in ("cosine", "euclidean"):
            got = knn(tr, te, k=k, metric=metric).predictions
            want = naive_knn(train_x, train_y, test_x, k, metric=metric)
            if got != want:
                mismatches.append(f"k={k}/{metric}")

    ok = not mismatches
    record(6, "knn oracle", ok,
           "predictions identical to double-loop reference for k in {1,20} x "
           "{cosine,euclidean} on 50x50"
           + (f"; mismatches: {mismatches}" if mismatches else ""))


# --- criterion 7: protocol counts ----------------------------------------------

def test_criterion_07_protocol_counts():
    samples = gen_synthetic(SynthConfig(n_images=24, sources=4, classes=3,
                                        seed=0))
    labels = [s.label for s in samples]
    sources = [s.image.source_id for s in samples]
    x = np.stack([s.image.pixels for s in samples]).astype(np.float32) / 255.0
    mean_color = x.reshape(len(samples), -1, 3).mean(axis=1)
    emb = EmbeddingSet(mean_color, ids=[str(i) for i in range(len(samples))],
                       sources=sources, labels=labels)

    loso = leave_one_source_out(emb, {"kind": "knn", "k": 3,
                                      "metric": "cosine"})
    pairs = {(r.train_tag, r.test_tag) for r in loso.records}
    loso_ok = len(loso.records) == 12 and len(pairs) == 12

    folds = kfold_assignments(labels[:20], 5, seed=0)
    coverage_ok = (folds.shape == (20,)
                   and set(np.unique(folds)) == {0, 1, 2, 3, 4})
    report = kfold(emb.subset(np.arange(20)),
                   {"kind": "knn", "k": 1, "metric": "cosine"}, k=5, seed=0)
    fold_ok = (len(report.records) == 5
               and sum(r.n_test for r in report.records) == 20)

    ok = loso_ok and coverage_ok and fold_ok
    record(7, "protocol counts", ok,
           f"LOSO 4 sources -> {len(loso.records)} records "
           f"({len(pairs)} unique ordered pairs); 5-fold assigns all 20 rows "
           f"exactly once across folds {sorted(set(folds.tolist()))}")


# --- criterion 8: training determinism -----------------------------------------

TINY_TRAIN_SETS = ["vit.embed_dim=16", "vit.depth=1", "vit.heads=2",
                   "vit.patch_size=16", "ssl.head_hidden=16",
                   "ssl.bottleneck=8", "ssl.num_prototypes=8"]


def test_criterion_08_train_determinism(tmp_path):
    data_dir = tmp_path / "data"
    assert main(["gen-synthetic", "--out", str(data_dir), "--n-images", "6",
                 "--seed", "0"]) == 0
    manifest = str(data_dir / "manifest.csv")

    outs = []
    for name in ("run_a", "run_b"):
        out = tmp_path / name
        argv = ["train", "--manifest", manifest, "--out", str(out),
                "--iterations", "8", "--batch-size", "2", "--seed", "9"]
        for kv in TINY_TRAIN_SETS:
            argv += ["--set", kv]
        assert main(argv) == 0
        outs.append(out)

    matched = []
    for artifact in ("checkpoint.rdck", "state.rdck", "loss_log.csv",
                     "config.resolved"):
        a = (outs[0] / artifact).read_bytes()
        b = (outs[1] / artifact).read_bytes()
        matched.append(a == b)

    ok = all(matched)
    record(8, "train determinism", ok,
           "two identical-seed runs, checkpoint/state/loss-log/config all "
           f"byte-identical={matched}")


# --- criterion 9: format round-trips -------------------------------------------

def test_criterion_09_format_roundtrips(tmp_path):
    vit_cfg = VitConfig(image_size=32, patch_size=8, embed_dim=16, depth=1,
                        heads=2)
    ssl_cfg = SslConfig(head_hidden=16, bottleneck=8, num_prototypes=8)
    train_cfg = TrainConfig(iterations=4, batch_size=2, seed=3)
    state = init_train_state(vit_cfg, ssl_cfg, train_cfg)
    p1, p2 = tmp_path / "a.rdck", tmp_path / "b.rdck"
    save_train_state(str(p1), state)
    loaded = load_train_state(str(p1), ssl_cfg, train_cfg)
    rdck_values_ok = all(
        np.array_equal(p.data, loaded.teacher_params()[k].data)
        for k, p in state.teacher_params().items()) and all(
        np.array_equal(p.data, loaded.student_params()[k].data)
        for k, p in state.student_params().items())
    save_train_state(str(p2), loaded)
    rdck_bytes_ok = p1.read_bytes() == p2.read_bytes()

    rng = np.random.Generator(np.random.PCG64(9))
    emb = EmbeddingSet(rng.normal(size=(7, 5)).astype(np.float32),
                       ids=[f"r{i}" for i in range(7)],
                       sources=["src0", "src1"] * 3 + ["src0"],
                       labels=["a", "b", None, "a", "b", None, "a"])
    e1, e2 = tmp_path / "a.emb1", tmp_path / "b.emb1"
    write_embeddings(str(e1), emb)
    back = read_embeddings(str(e1))
    emb_values_ok = (np.array_equal(emb.vectors, back.vectors)
                     and back.ids == emb.ids and back.sources == emb.sources
                     and back.labels == emb.labels)
    write_embeddings(str(e2), back)
    emb_bytes_ok = (e1.read_bytes() == e2.read_bytes()
                    and (tmp_path / "a.emb1.csv").read_bytes()
                    == (tmp_path / "b.emb1.csv").read_bytes())

    count_rng = np.random.Generator(np.random.PCG64(19))
    count_ok, checked = True, 0
    for _ in range(20):
        h = int(count_rng.integers(50, 900))
        w = int(count_rng.integers(50, 900))
        patch = int(count_rng.choice([32, 128, 224]))
        img = SmearImage(pixels=np.zeros((h, w, 3), dtype=np.uint8),
                         source_id="src0", image_id="x")
        if len(patchify(img, patch)) != patch_count_formula(h, w, patch):
            count_ok = False
        checked += 1

    ok = (rdck_values_ok and rdck_bytes_ok and emb_values_ok and emb_bytes_ok
          and count_ok)
    record(9, "format roundtrips", ok,
           f"RDCK values/bytes {rdck_values_ok}/{rdck_bytes_ok}; EMB1 "
           f"values/bytes {emb_values_ok}/{emb_bytes_ok}; patch counts match "
           f"formula on {checked}/20 random sizes={count_ok}")


# --- criterion 10: pca map ------------------------------------------------------
# Frozen calibration: 32-image corpus with a parasite class, untrained desk
# encoder at seed 0, first four overlay-bearing parasite images. Observed at
# calibration time: component-1 pixel variance inside the overlay exceeds the
# outside variance on 4/4 images.

def test_criterion_10_pca_map():
    samples = gen_synthetic(SynthConfig(n_images=32, sources=2, classes=4,
                                        seed=0, cells_min=4, cells_max=6))
    encoder = seeded_encoder(VitConfig())

    ortho_worst, solver_worst = 0.0, 0.0
    for s in samples[:6]:
        img = s.image.pixels.astype(np.float32) / 255.0
        tokens = encoder.forward_tokens(img[None]).data[0].astype(np.float64)
        comps, variances, mean = top_components(tokens, 3)
        gram = comps @ comps.T
        ortho_worst = max(ortho_worst,
                          float(np.abs(gram - np.eye(3)).max()))
        d_comps, d_vars, _ = dense_pca(tokens, 3)
        solver_worst = max(solver_worst,
                           float(np.abs(comps - d_comps).max()),
                           float(np.abs(variances - d_vars).max()))

    parasites = [s for s in samples
                 if s.label == "parasite" and s.overlay_mask is not None
                 and s.overlay_mask.sum() > 0]
    hits = 0
    for s in parasites[:4]:
        rgb, _, _ = pca_map(encoder, s.image.pixels)
        c1 = rgb[..., 0].astype(np.float64)
        inside = s.overlay_mask
        if c1[inside].var() > c1[~inside].var():
            hits += 1

    ok = ortho_worst < 1e-6 and solver_worst < 1e-5 and hits == 4
    record(10, "pca map", ok,
           f"orthonormality dev {ortho_worst:.1e} < 1e-6; eigensolver dev "
           f"{solver_worst:.1e} < 1e-5; overlay variance direction {hits}/4 "
           f"parasite images")
