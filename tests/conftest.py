import contextlib
import functools
import json
import math
import os
from dataclasses import asdict, dataclass

import numpy as np
import pytest

from slim import autodiff as ad
from slim import embedding, training
from slim.datasets import DatasetBundle, Graph, load_tu_dataset
from slim.landmarks import KMEANS_MAX_ITER, KMEANS_TOL, hard_distortion
from slim.pooling import DENSITY_EPS, _neighbour_sums
from slim.training import TrainConfig, init_state


def write_tu_files(base, name, edges, indicator, graph_labels, node_labels=None):
    """Write raw TU text files; edges are 1-indexed (u, v) pairs as given."""
    ds_dir = base / name
    ds_dir.mkdir(parents=True, exist_ok=True)
    (ds_dir / f"{name}_A.txt").write_text(
        "".join(f"{u}, {v}\n" for u, v in edges), encoding="utf-8"
    )
    (ds_dir / f"{name}_graph_indicator.txt").write_text(
        "".join(f"{g}\n" for g in indicator), encoding="utf-8"
    )
    (ds_dir / f"{name}_graph_labels.txt").write_text(
        "".join(f"{y}\n" for y in graph_labels), encoding="utf-8"
    )
    if node_labels is not None:
        (ds_dir / f"{name}_node_labels.txt").write_text(
            "".join(f"{v}\n" for v in node_labels), encoding="utf-8"
        )
    return str(base)


@pytest.fixture
def tiny_tu_dataset(tmp_path):
    """Two triangles plus one path graph, 2 classes, 3 node label values."""
    edges = []
    for base in (0, 3):  # both directions listed, like the public files
        for u, v in ((1, 2), (2, 3), (1, 3)):
            edges.append((base + u, base + v))
            edges.append((base + v, base + u))
    edges += [(7, 8), (8, 7), (8, 9), (9, 8)]
    indicator = [1, 1, 1, 2, 2, 2, 3, 3, 3]
    graph_labels = [-1, 1, 1]
    node_labels = [0, 1, 2, 0, 1, 2, 0, 0, 1]
    root = write_tu_files(tmp_path, "TINY", edges, indicator, graph_labels, node_labels)
    return root, "TINY"


@pytest.fixture
def loaded_tiny(tiny_tu_dataset):
    root, name = tiny_tu_dataset
    return load_tu_dataset(root, name)


def random_graph(rng, n=None, n_types=4, p_edge=0.35):
    """Connected-ish random labeled graph for property tests."""
    n = int(rng.integers(4, 12)) if n is None else n
    a = np.zeros((n, n))
    for i in range(1, n):  # random spanning tree keeps it connected
        j = int(rng.integers(i))
        a[i, j] = a[j, i] = 1.0
    extra = rng.random((n, n)) < p_edge
    extra = np.triu(extra, 1)
    a = np.clip(a + extra + extra.T, 0, 1)
    np.fill_diagonal(a, 0.0)
    labels = rng.integers(0, n_types, n)
    return Graph.from_adjacency(a, labels, int(rng.integers(2)))


def encoder_model(rng, width_in, hidden, latent, activation="sigmoid"):
    """A new model whose encoder maps ``width_in``-wide rows through
    ``hidden`` units to ``latent``; for tests of the encoder alone."""
    cfg = TrainConfig(k=2, latent=latent, hidden=hidden, activation=activation)
    return init_state(cfg, width_in, 1, 2, rng)


def directed_edges(a):
    """The 2 x 2E directed edge list of a dense 0/1 matrix, in row-major
    (CSR) order, as ``Graph.from_adjacency`` stores it."""
    return np.array(np.nonzero(a))


def csr_tree_with_chords(rng, n, chords):
    """The CSR edge list of a random tree on n nodes plus ``chords`` random
    edges, built without any n x n array."""
    child = np.arange(1, n)
    pairs = np.vstack([np.column_stack([child, rng.integers(0, child)]),
                       rng.integers(0, n, (chords, 2))])
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    keys = np.unique(np.concatenate([pairs[:, 0] * n + pairs[:, 1],
                                     pairs[:, 1] * n + pairs[:, 0]]))
    return np.stack(np.divmod(keys, n))


def adjacency_of(g):
    """The dense 0/1 float adjacency of a ``Graph`` or a ``GraphData``,
    scattered from its edge list."""
    n = g.node_count if isinstance(g, Graph) else len(g.x)
    a = np.zeros((n, n))
    a[tuple(g.edges)] = 1.0
    return a


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def dataset_root():
    return os.environ.get("SLIM_DATA_DIR", "data")


def require_benchmark(name):
    """Fail (not skip) when a spec-mandated benchmark is missing."""
    root = dataset_root()
    path = os.path.join(root, name)
    if not os.path.isdir(path):
        pytest.fail(
            f"benchmark dataset {name} not found under {os.path.abspath(root)!r} "
            "(set SLIM_DATA_DIR); this environment has no network route to the "
            "TU archive, so the criterion cannot be verified here",
            pytrace=False,
        )
    return root


def unfold_triangle(v, k):
    """Inverse of the classifier's triangle layout on the leading axis: the
    first K(K+1)/2 entries of ``v`` become K*K row-major entries of a
    symmetric matrix (off-diagonal entries divided by sqrt(2)); the rest
    of ``v`` follows unchanged."""
    rows, cols = np.triu_indices(k)
    n_tri = len(rows)
    tri = v[:n_tri] / np.where(rows == cols, 1.0, np.sqrt(2.0)).reshape(
        (-1,) + (1,) * (v.ndim - 1))
    full = np.zeros((k, k) + v.shape[1:])
    full[rows, cols] = tri
    full[cols, rows] = tri
    return np.concatenate([full.reshape((k * k,) + v.shape[1:]), v[n_tri:]])


def fold_triangle(g, k):
    """Transpose of ``unfold_triangle``: maps a gradient taken in the full
    K*K layout to the triangle layout."""
    rows, cols = np.triu_indices(k)
    full = g[: k * k].reshape((k, k) + g.shape[1:])
    sym = full + full.swapaxes(0, 1)
    tri = sym[rows, cols] * np.where(rows == cols, 0.5, 1.0 / np.sqrt(2.0)).reshape(
        (-1,) + (1,) * (g.ndim - 1))
    return np.concatenate([tri, g[k * k:]])


# ---------------------------------------------------------------------------
# oracles: the direct forms that the shipped kernels must reproduce bit for bit


def lloyd_oracle(points, centers, tol, max_iter):
    """``landmarks._lloyd`` in its direct form: three n x K passes for the
    distances and one bincount per column for the centroid sums."""
    pp = (points * points).sum(axis=1)
    for _ in range(max_iter):
        d2 = pp[:, None] + (centers * centers).sum(axis=1)[None, :] - 2.0 * points @ centers.T
        nearest = d2.argmin(axis=1)
        new = centers.copy()
        sums = np.stack([np.bincount(nearest, weights=col, minlength=len(centers))
                         for col in points.T], axis=1)
        sizes = np.bincount(nearest, minlength=len(centers))
        occupied = sizes > 0
        new[occupied] = sums[occupied] / sizes[occupied, None]
        shift = np.linalg.norm(new - centers, axis=1).max()
        centers = new
        if shift < tol:
            break
    return centers


def kmeans_pp_seed_oracle(points, k, rng):
    """``landmarks._kmeans_pp_seed`` with a new n x d difference, its square
    and a new n-vector of distances at every step."""
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(len(points))]
    d2 = ((points - centers[0]) ** 2).sum(axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total <= 0:
            centers[i] = points[rng.integers(len(points))]
            continue
        centers[i] = points[rng.choice(len(points), p=d2 / total)]
        d2 = np.minimum(d2, ((points - centers[i]) ** 2).sum(axis=1))
    return centers


def on_points(oracle):
    """``oracle(points, *rest)`` in the shipped signature of ``_lloyd`` and
    ``_kmeans_pp_seed``, ``(rows, inverse, *rest)``: it runs on the points
    ``rows[inverse]``."""
    return lambda rows, inverse, *rest: oracle(rows[inverse], *rest)


def init_landmarks_oracle(embeddings, k, seed, restarts=4, candidates=None):
    """``landmarks.init_landmarks`` as one sequential loop over the restarts
    on the calling thread, with the direct forms of the seeding and of
    Lloyd's step. Each restart's (centers, cost) is appended to
    ``candidates`` when a list is given."""
    points = np.asarray(embeddings, dtype=np.float64)
    rng = np.random.default_rng(seed)
    best, best_cost = None, np.inf
    for _ in range(max(1, restarts)):
        centers = lloyd_oracle(points, kmeans_pp_seed_oracle(points, k, rng),
                               KMEANS_TOL, KMEANS_MAX_ITER)
        cost = hard_distortion(points, centers)
        if candidates is not None:
            candidates.append((centers, cost))
        if cost < best_cost:
            best, best_cost = centers, cost
    if min(len(np.unique(best, axis=0)), len(np.unique(points, axis=0))) < k:
        best = best + rng.normal(scale=1e-4, size=best.shape)
    return best


def cooccurrence_loss_oracle(h, adjacency):
    """``embedding.cooccurrence_loss`` in its direct form: separate score,
    exp and log-probability arrays, and the loss as -sum(logp * A)."""
    if h.shape[0] != adjacency.shape[0]:
        raise ValueError("embedding row count must match node count")
    scores = h @ h.T
    z = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(z)
    sums = e.sum(axis=1, keepdims=True)
    logp = z - np.log(sums)
    return -float((logp * adjacency).sum()), e / sums


def cooccurrence_grad_oracle(h, adjacency):
    """dL/dH of ``cooccurrence_loss`` in its dense form: (dS + dS') H with
    dS = deg P - A."""
    _, p = cooccurrence_loss_oracle(h, adjacency)
    ds = adjacency.sum(axis=1, keepdims=True) * p - adjacency
    return (ds + ds.T) @ h


def blocked_loss_oracle(h, src, dst):
    """The loss of ``embedding._blocked_cooccurrence`` as a pass of its own,
    and the log-sum-exp lse_i of every score row, formed
    ``embedding.ROW_BLOCK`` rows at a time."""
    n, block = len(h), embedding.ROW_BLOCK
    rowmax, logsums = np.empty(n), np.empty(n)
    for r in range(0, n, block):
        s = h[r:r + block] @ h.T
        m = s.max(axis=1)
        s -= m[:, None]
        np.exp(s, out=s)
        rowmax[r:r + block] = m
        logsums[r:r + block] = np.log(s.sum(axis=1))
    link = (np.einsum("ij,ij->i", h[src], h[dst]) - rowmax[src]).sum()
    loss = float(np.bincount(src, minlength=n) @ logsums - link)
    return loss, rowmax + logsums


def blocked_grad_oracle(h, src, dst, lse):
    """dL/dH of ``blocked_loss_oracle`` with each block of P recomputed from
    the log-sum-exps: the block deg_b P_b = exp(H_b H' - lse_b + log deg_b)
    of the rows with edges is one product, [H_b, log deg_b - lse_b] [H, 1]'."""
    dh = -2.0 * _neighbour_sums(h, src, dst)
    deg = np.bincount(src, minlength=len(h))
    rows = np.flatnonzero(deg)
    lhs = np.column_stack([h[rows], np.log(deg[rows]) - lse[rows]])
    rhs = np.column_stack([h, np.ones(len(h))])
    for r in range(0, len(rows), embedding.ROW_BLOCK):
        p = np.exp(lhs[r:r + embedding.ROW_BLOCK] @ rhs.T)
        dh[rows[r:r + embedding.ROW_BLOCK]] += p @ h
        dh += p.T @ h[rows[r:r + embedding.ROW_BLOCK]]
    return dh


def int_column_oracle(path):
    """``datasets._int_column`` as one ``int()`` per non-empty line, each
    checked against the int64 range."""
    from slim.datasets import ParseError, _read_lines

    values = []
    for line_no, line in enumerate(_read_lines(path), start=1):
        if not line:
            continue
        try:
            value = int(line)
        except ValueError:
            raise ParseError(f"{path} line {line_no}: expected an integer, got {line!r}") from None
        if not -2**63 <= value < 2**63:
            raise ParseError(f"{path} line {line_no}: {line!r} does not fit in 64 bits")
        values.append(value)
    return np.array(values, dtype=np.int64)


def densify_oracle(raw):
    """``datasets._densify`` as a dict lookup per value."""
    values = np.unique(raw)
    lookup = {int(v): i for i, v in enumerate(values)}
    return np.array([lookup[int(v)] for v in raw], dtype=np.int64)


def is_binary_oracle(a):
    """The binarity test of ``Graph.from_adjacency`` as ``np.isin``."""
    return bool(np.isin(a, (0.0, 1.0)).all())


def assign_values(h, u):
    """``landmarks.assign`` on plain arrays, in the direct formula."""
    d2 = np.maximum((h * h).sum(axis=1)[:, None] + (u * u).sum(axis=1)[None, :]
                    - 2.0 * h @ u.T, 0.0)
    kernel = 1.0 / (1.0 + d2)
    return kernel / kernel.sum(axis=1, keepdims=True)


def old_squared_distance_rows(h, u):
    vh, vu = h.value, u.value
    d2 = (vh * vh).sum(axis=1)[:, None] + (vu * vu).sum(axis=1)[None, :] - 2.0 * vh @ vu.T
    np.maximum(d2, 0.0, out=d2)

    def backward(g):
        if h.requires_grad:
            h._accumulate(2.0 * (vh * g.sum(axis=1, keepdims=True) - g @ vu))
        if u.requires_grad:
            u._accumulate(2.0 * (vu * g.sum(axis=0)[:, None] - g.T @ vh))

    return ad._make(d2, (h, u), backward)


def old_student_t_kernel(d2, dof):
    base = 1.0 + d2.value / dof
    v = base ** (-(dof + 1.0) / 2.0)

    def backward(g):
        d2._accumulate(-g * ((dof + 1.0) / (2.0 * dof)) * v / base)

    return ad._make(v, (d2,), backward)


def old_row_normalize(a):
    r = a.value.sum(axis=1, keepdims=True)
    v = a.value / r

    def backward(g):
        a._accumulate((g - (g * v).sum(axis=1, keepdims=True)) / r)

    return ad._make(v, (a,), backward)


def old_assign(h, u):
    """``landmarks.assign`` as the chain of three generic tape ops, with the
    general Student-t kernel at one degree of freedom, that the fused op
    ``landmarks.assign`` must reproduce bit for bit."""
    d2 = old_squared_distance_rows(h, u)
    return old_row_normalize(old_student_t_kernel(d2, 1.0))


# the general tape ops the pipeline once composed: ``autodiff.dense`` is
# matmul then a broadcast add, ``autodiff.weighted_sum`` the scalar adds and
# muls, and ``landmarks.cluster_loss`` the KL op with its target as a tensor


def old_unbroadcast(g, shape):
    """Reduce gradient ``g`` back to ``shape`` after numpy broadcasting."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def old_matmul(a, b):
    if a.value.shape[-1] != b.value.shape[0]:
        raise ValueError(f"matmul: inner dimensions {a.value.shape} x {b.value.shape}")
    va, vb = a.value, b.value

    def backward(g):
        if a.requires_grad:
            a._accumulate(g @ vb.T)
        if b.requires_grad:
            b._accumulate(va.T @ g)

    return ad._make(va @ vb, (a, b), backward)


def old_add(a, b):
    def backward(g):
        if a.requires_grad:
            a._accumulate(old_unbroadcast(g, a.value.shape))
        if b.requires_grad:
            b._accumulate(old_unbroadcast(g, b.value.shape))

    return ad._make(a.value + b.value, (a, b), backward)


def old_mul(a, b):
    va, vb = a.value, b.value

    def backward(g):
        if a.requires_grad:
            a._accumulate(old_unbroadcast(g * vb, va.shape))
        if b.requires_grad:
            b._accumulate(old_unbroadcast(g * va, vb.shape))

    return ad._make(va * vb, (a, b), backward)


def old_kl_div(p, q):
    """KL(p || q) summed over all rows, with 0*log(0) := 0."""
    ad._check_finite("kl_div", p.value, q.value)
    vp, vq = p.value, q.value
    if np.any(vq <= 0) or np.any(vp < 0):
        raise ad.NumericError("kl_div: requires q > 0 and p >= 0")
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(vp > 0, vp * (np.log(vp) - np.log(vq)), 0.0)

    def backward(g):
        if p.requires_grad:
            p._accumulate(g * np.where(vp > 0, np.log(vp) - np.log(vq) + 1.0, 0.0))
        if q.requires_grad:
            q._accumulate(-g * vp / vq)

    return ad._make(terms.sum(), (p, q), backward)


def old_dense(x, w, b, shift=None):
    """``autodiff.dense`` as the ops it replaced: the shift added as a
    negated constant, then matmul and a broadcast add."""
    if shift is not None:
        x = old_add(x, ad.constant(-shift))
    return old_add(old_matmul(x, w), b)


def old_weighted_sum(terms, weights):
    """``autodiff.weighted_sum`` as the ops it replaced: a weight of 1.0
    takes the term itself, any other a mul by a constant, then the parts
    are added left to right."""
    parts = [t if weight == 1.0 else old_mul(t, ad.constant(weight))
             for t, weight in zip(terms, weights)]
    return functools.reduce(old_add, parts)


def functional_accumulate(tensor, g):
    """``Tensor._accumulate`` before leaves kept gradient buffers: every
    node, leaf or interior, takes ``g`` itself or a new ``grad + g``."""
    if tensor.grad is None:
        tensor.grad = g
    else:
        tensor.grad = tensor.grad + g


def functional_zero_grad(tensor):
    """``Tensor.zero_grad`` before leaves kept gradient buffers."""
    tensor.grad = None


def adagrad_step_oracle(opt):
    """``training.Adagrad.step`` in its direct form: four parameter-sized
    temporaries per parameter, the gradient left as it was."""
    for p, acc in zip(opt.params, opt.accumulators):
        if p.grad is None:
            continue
        acc += p.grad * p.grad
        p.value -= opt.lr * p.grad / np.sqrt(acc)


@contextlib.contextmanager
def functional_gradients():
    """Train as before gradient buffers: functional leaf accumulation, a
    ``zero_grad`` that only drops the gradient (so ``dense`` finds no buffer
    to write into) and the direct Adagrad step."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ad.Tensor, "_accumulate", functional_accumulate)
        mp.setattr(ad.Tensor, "zero_grad", functional_zero_grad)
        mp.setattr(training.Adagrad, "step", adagrad_step_oracle)
        yield


def pool_graph_oracle(w, src, dst):
    """``pooling.pool_graph`` as the batch op computed it inline; patched in
    for the kernel, it pins the kernel's arithmetic."""
    p = w.sum(axis=0)
    s = 1.0 / (p + DENSITY_EPS)
    v = w * s
    keep = src < dst
    half = v[src[keep]].T @ v[dst[keep]]
    return p, s, v, half + half.T


# the run-directory writers as they were before the CLI held them all: one
# per file, each with its own line or cell format


def old_write_cv_epochs(fold_histories, path):
    """``epochs.jsonl`` of cv; ``fold_histories`` holds each fold's
    ``EpochMetrics`` as dicts."""
    with open(path, "w", encoding="utf-8") as fh:
        for fold, history in enumerate(fold_histories):
            for m in history:
                fh.write(json.dumps({"fold": fold, **m}) + "\n")


def old_write_train_epochs(history, path):
    with open(path, "w", encoding="utf-8") as fh:
        for m in history:
            fh.write(json.dumps(asdict(m)) + "\n")


def old_write_sweep_csv(rows, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("K,mean_acc,std_acc\n")
        for row in rows:
            fh.write(f"{row.k},{row.mean_acc:.6f},{row.std_acc:.6f}\n")


def old_write_coherence_csv(cells, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("K,seed,coherence,distortion,bound\n")
        for c in cells:
            coh, bound = ("" if x is None else f"{x:.6f}" for x in (c.coherence, c.bound))
            fh.write(f"{c.k},{c.seed},{coh},{c.distortion:.6f},{bound}\n")


# ---------------------------------------------------------------------------
# references in other forms, compared at a float tolerance: the brute-force
# co-occurrence loss and the dense pooling formulas over the adjacency matrix


def cooccurrence_loss_reference(h, adjacency):
    """``embedding.cooccurrence_loss`` by brute force with explicit loops."""
    n = h.shape[0]
    total = 0.0
    for i in range(n):
        for j in range(n):
            if adjacency[i, j] <= 0:
                continue
            scores = [float(h[i] @ h[jp]) for jp in range(n)]
            m = max(scores)
            log_denom = m + math.log(sum(math.exp(s - m) for s in scores))
            total += float(h[i] @ h[j]) - log_denom
    return -total


@dataclass(frozen=True)
class PooledFeatures:
    p: np.ndarray
    m: np.ndarray
    c: np.ndarray
    c_norm: np.ndarray


def density(w):
    """Soft node count per landmark; sums to the node count."""
    return w.sum(axis=0)


def landmark_means(x, w, p):
    """c x K matrix whose k-th column is the mean node-type profile of landmark k."""
    return (x.T @ w) / (p + DENSITY_EPS)


def interaction(w, adjacency):
    """K x K soft count of edges between landmark masses: W' A W."""
    if w.shape[0] != adjacency.shape[0]:
        raise ValueError("assignment and adjacency disagree on node count")
    return w.T @ adjacency @ w


def normalized_interaction(c, p):
    """Density-normalized interaction diag(p)^-1 C diag(p)^-1 (guarded)."""
    s = 1.0 / (p + DENSITY_EPS)
    return c * np.outer(s, s)


def pooled_features(x, w, adjacency):
    p = density(w)
    c = interaction(w, adjacency)
    return PooledFeatures(p=p, m=landmark_means(x, w, p), c=c,
                          c_norm=normalized_interaction(c, p))


def graph_feature(pf, include_means=False):
    """Classifier feature row: the sqrt(2)-scaled upper triangle of C_norm,
    row-major, then with ``include_means`` the densities and the flattened
    landmark means."""
    rows, cols = np.triu_indices(pf.c_norm.shape[0])
    tri = pf.c_norm[rows, cols] * np.where(rows == cols, 1.0, np.sqrt(2.0))
    if include_means:
        return np.concatenate([tri, pf.p, pf.m.reshape(-1)])
    return tri


# ---------------------------------------------------------------------------
# fuzzing: the edits the file fuzzers make

FUZZ_EDITS = ("delete", "insert", "replace", "extend", "byte")


def mutate(data: bytes, edit: str, at: int, line: bytes, byte: bytes) -> bytes:
    """``data`` with its line ``at`` (modulo the line count) deleted,
    preceded by ``line``, replaced by it or extended by it, or with ``byte``
    inserted at offset ``at`` (modulo the length)."""
    if edit == "byte":
        at %= len(data) + 1
        return data[:at] + byte + data[at:]
    lines = data.split(b"\n")
    at %= len(lines)
    if edit == "delete":
        del lines[at]
    elif edit == "insert":
        lines.insert(at, line)
    elif edit == "replace":
        lines[at] = line
    else:
        lines[at] += line
    return b"\n".join(lines)
