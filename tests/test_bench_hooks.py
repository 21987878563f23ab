"""The benchmark's tracer finds ``slim`` functions by name; these names must
keep resolving, or its per-layer metrics silently read 0.

``bench/worker.py`` reads spans with ``tr.total("<layer>.<name>", ...)`` and
``bench/tracing.py`` hooks methods and step boundaries by name. The files are
only read here, never changed.
"""
import ast
import importlib
import inspect
import os
import sys
import types

import numpy as np

from slim import embedding, landmarks
from slim.model import prepare_bundle
from slim.synthetic import make_bundle
from slim.training import TrainConfig, train

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")

# names the tracer still reads although the function is gone; the benchmark
# drops them with its next change, and this set must not grow
KNOWN_STALE = {"model.forward_values"}


def tracing_module():
    sys.path.insert(0, BENCH)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        return importlib.import_module("tracing")
    finally:
        sys.path.remove(BENCH)
        sys.dont_write_bytecode = dont_write


def worker_span_names():
    """Every string naming a span in a ``tr.total(...)`` call of worker.py,
    including ``root=``/``skip_parent=`` and names bound to a variable first."""
    with open(os.path.join(BENCH, "worker.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    bound = {target.id: node.value.value
             for node in ast.walk(tree) if isinstance(node, ast.Assign)
             and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)
             for target in node.targets if isinstance(target, ast.Name)}
    names = set()
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "total"):
            continue
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                names.add(arg.value)
            elif isinstance(arg, ast.Name) and arg.id in bound:
                names.add(bound[arg.id])
    return names


def resolves(name, tracing):
    """True when the tracer wraps ``name``: a public function defined in its
    layer module, or one of the methods it lists."""
    layer, _, attr = name.partition(".")
    if layer not in tracing.LAYERS:
        return False
    if "." in attr:
        cls, method = attr.split(".", 1)
        return ((layer, cls, method) in tracing.METHODS
                and callable(getattr(getattr(importlib.import_module(f"slim.{layer}"), cls,
                                             None), method, None)))
    fn = getattr(importlib.import_module(f"slim.{layer}"), attr, None)
    return (not attr.startswith("_") and isinstance(fn, types.FunctionType)
            and fn.__module__ == f"slim.{layer}")


def test_worker_spans_resolve_except_the_known_stale_ones():
    tracing = tracing_module()
    names = worker_span_names()
    assert len(names) >= 15, sorted(names)
    assert {n for n in names if not resolves(n, tracing)} == KNOWN_STALE


def test_tracing_hooks_resolve():
    tracing = tracing_module()
    tracer = tracing.Tracer()
    hooks = ({tracing.STEP_START} | set(tracing.STEP_END)
             | {f"{layer}.{cls}.{method}" for layer, cls, method in tracing.METHODS}
             | set(tracer._on_enter) | set(tracer._on_exit))
    assert {n for n in hooks if not resolves(n, tracing)} == set()


def test_cooccurrence_hook_still_sees_a_dense_adjacency():
    # the tracer's co-occurrence counter reads adjacency.shape[0] and its
    # non-zeros from the arguments of embedding.cooccurrence_loss
    h = np.random.default_rng(0).standard_normal((4, 3))
    a = np.array([[0, 1, 0, 0], [1, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 0]], dtype=float)
    params = list(inspect.signature(embedding.cooccurrence_loss).parameters)
    assert params[:2] == ["h", "adjacency"]
    loss, p = embedding.cooccurrence_loss(h, a)
    assert np.isfinite(loss) and p.shape == (4, 4)
    tracer = tracing_module().Tracer()
    tracer._count_cooc(h, a)
    assert (tracer.cooc_scores, tracer.cooc_links) == (16, 4)


def test_restart_pool_leaves_the_spans_of_the_calling_thread_intact():
    # the tracer keeps one span stack for the process, so only private,
    # unwrapped functions may run on the k-means restart pool
    tracer = tracing_module().Tracer()
    points = np.random.default_rng(3).standard_normal((400, 4))
    tracer.install()
    try:
        landmarks.init_landmarks(points, 6, seed=1, restarts=4)
    finally:
        tracer.uninstall()
    assert tracer.stack == []
    distortion = {parent: stats[0] for (name, parent, _), stats in tracer.stats.items()
                  if name == "landmarks.hard_distortion"}
    assert distortion == {"landmarks.init_landmarks": 4}
    assert {root for _, _, root in tracer.stats} == {"landmarks.init_landmarks"}


def test_blocked_cooccurrence_pool_leaves_the_spans_of_the_calling_thread_intact(monkeypatch):
    # graphs above ROW_BLOCK rows run on a thread pool inside the fused op;
    # nothing there may open a span on the tracer's one stack
    monkeypatch.setattr(embedding, "ROW_BLOCK", 8)
    bundle = make_bundle(n_graphs=8, seed=4)
    cfg = TrainConfig(k=4, latent=3, hidden=4, classifier_hidden=5, epochs=1,
                      batch_size=4, seed=0)
    graphs = prepare_bundle(bundle, cfg.substructure())
    assert all(len(g.x) > embedding.ROW_BLOCK for g in graphs)
    tracer = tracing_module().Tracer()
    tracer.install()
    try:
        train(graphs, cfg, 2, bundle.node_label_count)
    finally:
        tracer.uninstall()
    assert tracer.stack == []
    assert len(tracer.step_ms) == 2 and tracer.cooc_scores == 0
    parents = {parent for (name, parent, _), _ in tracer.stats.items()
               if name == "embedding.cooccurrence_op"}
    assert parents == {"model.joint_loss"}
