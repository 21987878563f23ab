"""One workload in one fresh process: the calls ``slim train`` makes.

Started by ``run.py`` with the BLAS thread count already pinned in the
environment. Each cycle loads the TU files, prepares the substructures,
trains with fold 0 of a 10-fold plan validating, and scores all graphs with
``model.accuracy``, repeated to get enough samples. The raw measurements go
to the JSON file named by ``--out``; ``run.py`` checks and summarizes them.

With ``--trace 1`` untraced and traced cycles alternate, so the tracing
overhead is measured in the same process as the per-layer spans.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import resource
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import slim  # noqa: E402
from slim import autodiff, datasets, model, training  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

DATASET = "BENCH"
FOLDS = 10
# model.accuracy repeats within a cycle until both of these are reached
INFER_MIN_CALLS = 3
INFER_MIN_S = 4.0
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def environment(seed: int) -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def setup(data_root: str, cfg: training.TrainConfig):
    t0 = perf_counter()
    bundle = datasets.load_tu_dataset(data_root, DATASET)
    t1 = perf_counter()
    graphs = model.prepare_bundle(bundle, cfg.substructure())
    t2 = perf_counter()
    digest = hashlib.sha256()
    for g in graphs:
        digest.update(g.z.tobytes())
    return bundle, graphs, {
        "setup_s": t2 - t0,
        "load_s": t1 - t0,
        "prepare_s": t2 - t1,
        "z_sha256": digest.hexdigest(),
        "graphs": len(graphs),
        "nodes": sum(g.node_count for g in bundle.graphs),
        "edges": sum(g.edge_count for g in bundle.graphs),
        "rows": sum(g.z.shape[0] for g in graphs),
    }


def train_and_score(bundle, graphs, cfg: training.TrainConfig) -> dict:
    train_idx, val_idx = datasets.make_folds(bundle, FOLDS, cfg.seed).split(0)
    t0 = perf_counter()
    state, history = training.train([graphs[i] for i in train_idx], cfg,
                                    bundle.class_count, bundle.node_label_count,
                                    val_graphs=[graphs[i] for i in val_idx])
    t1 = perf_counter()
    infer_s, accs = [], []
    while len(infer_s) < INFER_MIN_CALLS or sum(infer_s) < INFER_MIN_S:
        t = perf_counter()
        accs.append(model.accuracy(graphs, state))
        infer_s.append(perf_counter() - t)
    return {
        "train_s": t1 - t0,
        "infer_s": infer_s,
        "train_graphs": len(train_idx),
        "graphs": len(graphs),
        "steps": cfg.epochs * -(-len(train_idx) // cfg.batch_size),
        "evals": cfg.epochs + len(accs),
        "losses": [m.train_loss for m in history],
        "accuracy": accs[0],
        "accuracies_agree": len(set(accs)) == 1,
    }


def run_untraced(wl: Workload, cfg, data_root: str, seconds: float, result: dict):
    """Cycles of set-up, train and score while the next one fits in
    ``seconds``, then set-ups until there are ``wl.setup_reps``.

    The host's speed drifts over seconds, so samples are spread over the
    whole run and each metric is a median.
    """
    start = perf_counter()
    while True:
        t0 = perf_counter()
        bundle, graphs, timing = setup(data_root, cfg)
        result["setups"].append(timing)
        result["cycles"].append(train_and_score(bundle, graphs, cfg))
        now = perf_counter()
        if (now - start) + (now - t0) > seconds:
            break
    while len(result["setups"]) < wl.setup_reps:
        result["setups"].append(setup(data_root, cfg)[2])


def run_traced(cfg, data_root: str, seconds: float, result: dict):
    """Untraced and traced cycles of set-up, train and score alternate while
    the next pair fits in ``seconds``."""
    tracer = Tracer()
    start = perf_counter()
    walls = {False: [], True: []}
    while True:
        for traced in (False, True):
            if traced:
                tracer.install()
            try:
                t0 = perf_counter()
                bundle, graphs, timing = setup(data_root, cfg)
                c = train_and_score(bundle, graphs, cfg)
                walls[traced].append(perf_counter() - t0)
            finally:
                tracer.uninstall()
            result["setups"].append(timing)
            result["cycles"].append(c)
        if perf_counter() - start + walls[False][-1] + walls[True][-1] > seconds:
            break
    result["trace"] = layer_metrics(tracer, timing, walls, cfg.epochs)
    result["spans"] = tracer.span_table(len(walls[True]))


def layer_metrics(tr: Tracer, inputs: dict, walls: dict, epochs: int) -> dict:
    """Per-layer metrics, each per traced cycle (one set-up, train and score)."""
    n = len(walls[True])
    ms = 1e3 / n
    train = "training.train"
    steps = np.array(tr.step_ms)
    self_s = tr.layer_self()
    out = {
        "datasets.load_s": (tr.total("datasets.load_tu_dataset") / n, "s"),
        "datasets.edges": (inputs["edges"], "count"),
        "substructure.build_s": (tr.total("substructure.build_substructures") / n, "s"),
        "substructure.rows": (inputs["rows"], "count"),
        "embedding.encode_ms": (tr.total("embedding.encode",
                                         skip_parent="embedding.encode_values") * ms, "ms"),
        "embedding.cooc_ms": (tr.total("embedding.cooccurrence_loss") * ms, "ms"),
        "embedding.cooc_scores": (tr.cooc_scores / n, "count"),
        "embedding.cooc_useful_ratio": (tr.cooc_links / max(tr.cooc_scores, 1), "ratio"),
        "landmarks.assign_ms": (tr.total("landmarks.assign") * ms, "ms"),
        "landmarks.cluster_kl_ms": (tr.total("landmarks.cluster_loss") * ms, "ms"),
        "landmarks.kmeans_init_s": (tr.total("landmarks.init_landmarks") / n, "s"),
        "pooling.feature_op_ms": (tr.total("pooling.graph_feature_op") * ms, "ms"),
        "model.classifier_ms": (tr.total("model.classifier_logits") * ms, "ms"),
        "model.joint_loss_self_ms": (tr.total("model.joint_loss", field=2) * ms, "ms"),
        "model.forward_values_ms": (tr.total("model.forward_values") * ms, "ms"),
        "model.forward_values_calls_per_epoch": (
            tr.total("model.forward_values", root=train, field=0) / (n * epochs), "count"),
        "model.eval_ms": (tr.total("model.accuracy", root="model.accuracy")
                          / tr.total("model.accuracy", root="model.accuracy", field=0) * 1e3,
                          "ms"),
        "autodiff.backward_ms": (tr.total("autodiff.Tensor.backward") * ms, "ms"),
        "autodiff.tape_nodes_per_step": (float(np.mean(tr.step_nodes)), "count"),
        "training.optimizer_step_ms": ((tr.total("training.SGD.step")
                                        + tr.total("training.Adagrad.step")) * ms, "ms"),
        "training.refresh_ms": (tr.total("training.refresh_targets") * ms, "ms"),
        "training.step_ms_p50": (float(np.percentile(steps, 50)), "ms"),
        "training.step_ms_p90": (float(np.percentile(steps, 90)), "ms"),
        "training.step_samples": (len(steps), "count"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (self_s[layer] / n, "s")
    out["trace.coverage"] = (sum(self_s.values()) / sum(walls[True]), "ratio")
    plain_wall = float(np.median(walls[False]))
    traced_wall = float(np.median(walls[True]))
    out["trace.overhead_pct"] = ((traced_wall / plain_wall - 1.0) * 100.0, "%")
    out["trace.wall_s"] = (traced_wall, "s")
    return {name: {"value": float(v), "unit": u} for name, (v, u) in out.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--data", required=True, help="directory holding the TU dataset")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True, help="JSON file for the measurements")
    args = p.parse_args(argv)

    if os.path.dirname(os.path.abspath(slim.__file__)) != os.path.join(SRC, "slim"):
        print(f"slim imported from {slim.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    cfg = training.TrainConfig(batch_size=wl.batch_size, epochs=wl.epochs, seed=args.seed)
    result = {"env": environment(args.seed), "config": dataclasses.asdict(cfg),
              "cycles": [], "setups": []}
    status = 0
    try:
        if args.trace:
            run_traced(cfg, args.data, args.seconds, result)
        else:
            run_untraced(wl, cfg, args.data, args.seconds, result)
    except (training.DivergenceError, autodiff.NumericError) as exc:
        result["error"] = {"type": type(exc).__name__, "message": str(exc)}
        status = 3
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return status


if __name__ == "__main__":
    sys.exit(main())
