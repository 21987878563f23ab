import math
import os
from dataclasses import dataclass

import numpy as np
import pytest

from slim import autodiff as ad
from slim.datasets import DatasetBundle, Graph, load_tu_dataset
from slim.pooling import DENSITY_EPS


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


def directed_edges(a):
    """The 2 x 2E directed edge list of a dense 0/1 matrix, in row-major
    (CSR) order, as ``Graph.from_adjacency`` stores it."""
    return np.array(np.nonzero(a))


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


def int_column_oracle(path):
    """``datasets._int_column`` as one ``int()`` per non-empty line."""
    from slim.datasets import ParseError, _read_lines

    values = []
    for line_no, line in enumerate(_read_lines(path), start=1):
        if not line:
            continue
        try:
            values.append(int(line))
        except ValueError:
            raise ParseError(f"{path} line {line_no}: expected an integer, got {line!r}") from None
    return np.array(values, dtype=np.int64)


def densify_oracle(raw):
    """``datasets._densify`` as a dict lookup per value."""
    values = np.unique(raw)
    lookup = {int(v): i for i, v in enumerate(values)}
    return np.array([lookup[int(v)] for v in raw], dtype=np.int64)


def is_binary_oracle(a):
    """The binarity test of ``Graph.from_adjacency`` as ``np.isin``."""
    return bool(np.isin(a, (0.0, 1.0)).all())


def assign_values(h, u, dof=1.0):
    """``landmarks.assign`` on plain arrays, in the direct formula."""
    d2 = np.maximum((h * h).sum(axis=1)[:, None] + (u * u).sum(axis=1)[None, :]
                    - 2.0 * h @ u.T, 0.0)
    kernel = (1.0 + d2 / dof) ** (-(dof + 1.0) / 2.0)
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


def old_assign(h, landmarks):
    """``landmarks.assign`` as the chain of three generic tape ops that the
    fused op ``landmarks.assign`` must reproduce bit for bit."""
    d2 = old_squared_distance_rows(h, landmarks.u)
    return old_row_normalize(old_student_t_kernel(d2, landmarks.dof))


def pool_graph_oracle(w, src, dst):
    """``pooling.pool_graph`` as the batch op computed it inline; patched in
    for the kernel, it pins the kernel's arithmetic."""
    p = w.sum(axis=0)
    s = 1.0 / (p + DENSITY_EPS)
    v = w * s
    keep = src < dst
    half = v[src[keep]].T @ v[dst[keep]]
    return p, s, v, half + half.T


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
