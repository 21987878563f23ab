"""Parsing of TU-format graph classification benchmarks and CV fold planning.

TU format (plain text, one directory per dataset):
  <name>_A.txt               "i, j" edge endpoints, 1-indexed, both directions
  <name>_graph_indicator.txt graph id (1-indexed) of every node, one per line
  <name>_graph_labels.txt    one class label per graph
  <name>_node_labels.txt     one categorical label per node (optional)

Loaded graphs are immutable value objects; a bundle may be shared freely
across workers. A graph is stored as its directed edge list in CSR order
(see ``Graph``), sliced out of the sorted edge keys of the whole file; no
n x n matrix is kept.
"""
from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, field

import numpy as np

# graphs without a node-labels file fall back to degree labels, clamped here
DEGREE_LABEL_CAP = 10


class DatasetError(Exception):
    """A dataset directory is missing or unreadable."""


class ParseError(DatasetError):
    """A dataset file exists but its content is malformed."""


@dataclass(frozen=True)
class Graph:
    """One undirected graph: directed edge list, node labels, class label.

    ``edges`` is a 2 x 2E int64 array of every edge in both directions and
    no self-loops, in CSR order (strictly increasing src * n + dst). It is
    the graph's only stored form; ``from_adjacency`` builds it from a dense
    0/1 matrix.
    """

    edges: np.ndarray
    node_labels: np.ndarray
    class_label: int

    @classmethod
    def from_adjacency(cls, adjacency, node_labels, class_label) -> Graph:
        """The graph of a square 0/1 matrix: its non-zeros in row-major order."""
        a = np.asarray(adjacency)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("adjacency must be a square matrix")
        if not ((a == 0) | (a == 1)).all():
            raise ValueError("adjacency must be binary")
        return cls(np.array(np.nonzero(a), dtype=np.int64), np.asarray(node_labels),
                   int(class_label))

    @property
    def node_count(self) -> int:
        return len(self.node_labels)

    @property
    def edge_count(self) -> int:
        return self.edges.shape[1] // 2

    def validate(self):
        labels, n = self.node_labels, self.node_count
        if labels.ndim != 1 or n < 1 or labels.min() < 0:
            raise ValueError("node_labels must be one non-negative int per node, >= 1 node")
        e = self.edges
        if e.size and (e.min() < 0 or e.max() >= n):
            raise ValueError(f"edge endpoints must lie in [0, {n})")
        src, dst = e
        if (src == dst).any():
            raise ValueError("edges must not hold self-loops")
        keys = src * n + dst
        steps = keys[1:] - keys[:-1]
        if (steps <= 0).any():
            raise ValueError("edges must be in CSR order (src * n + dst increasing)"
                             if (steps < 0).any() else "edges must not repeat")
        if (np.sort(dst * n + src) != keys).any():
            raise ValueError("edges must hold both directions of every edge")


@dataclass(frozen=True)
class DatasetBundle:
    name: str
    graphs: list[Graph]
    node_label_count: int
    class_count: int

    def __len__(self):
        return len(self.graphs)

    def class_labels(self) -> np.ndarray:
        return np.array([g.class_label for g in self.graphs], dtype=np.int64)


@dataclass(frozen=True)
class FoldPlan:
    fold_count: int
    assignments: np.ndarray  # graph index -> fold index
    seed: int

    def fold_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignments == fold)

    def split(self, fold: int) -> tuple[np.ndarray, np.ndarray]:
        """(train indices, validation indices) for one fold."""
        val = self.fold_indices(fold)
        train = np.flatnonzero(self.assignments != fold)
        return train, val


def _read_lines(path: str) -> list[str]:
    with open(path, "r", encoding="utf-8") as fh:
        return [line.strip() for line in fh.read().splitlines()]


def _require(path: str):
    if not os.path.isfile(path):
        raise DatasetError(f"missing required dataset file: {path}")
    return path


def _load_ints(path: str, delimiter: str | None = None) -> np.ndarray | None:
    """The integers of a text file as a 2-D array (one row per non-empty
    line), or None when some line does not parse as ``np.loadtxt`` reads it."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # loadtxt on a file with no data
        try:
            return np.loadtxt(path, dtype=np.int64, delimiter=delimiter, comments=None,
                              ndmin=2, encoding="utf-8")
        except ValueError:
            return None


def _int_column(path: str) -> np.ndarray:
    """One integer per non-empty line.

    Raises ParseError naming the first line that is not one integer.
    """
    values = _load_ints(path)
    # a 2-D read keeps a one-line "1 2" file from passing as a column of two
    if values is not None and values.shape[1] == 1:
        return values[:, 0]
    # some line is malformed, or uses a spelling only int() accepts: read
    # line by line to report the first bad line
    values = []
    for line_no, line in enumerate(_read_lines(path), start=1):
        if not line:
            continue
        try:
            values.append(int(line))
        except ValueError:
            raise ParseError(f"{path} line {line_no}: expected an integer, got {line!r}") from None
    return np.array(values, dtype=np.int64)


def _densify(raw: np.ndarray) -> np.ndarray:
    """Map arbitrary integer labels onto a contiguous range starting at 0."""
    return np.unique(raw, return_inverse=True)[1].astype(np.int64, copy=False)


def _edge_pairs(path: str, indicator: np.ndarray) -> np.ndarray:
    """Endpoints of every non-empty line of a TU edge file: one 1-indexed
    (u, v) row per line, in file order.

    Raises ParseError naming the first line that is not "i, j", names an
    unknown node, or joins two graphs.
    """
    n_nodes = len(indicator)
    pairs = _load_ints(path, delimiter=",")
    if pairs is not None and pairs.size == 0:
        return np.zeros((0, 2), dtype=np.int64)
    if pairs is not None and pairs.shape[1] == 2:
        known = ((pairs >= 1) & (pairs <= n_nodes)).all()
        if known and np.array_equal(indicator[pairs[:, 0] - 1], indicator[pairs[:, 1] - 1]):
            return pairs
    # some line is malformed, or uses a spelling only int() accepts: read
    # line by line to report the first bad line
    rows = []
    for line_no, line in enumerate(_read_lines(path), start=1):
        if not line:
            continue
        try:
            left, right = line.split(",")
            u, v = int(left), int(right)
        except ValueError:
            raise ParseError(f"{path} line {line_no}: expected 'i, j', got {line!r}") from None
        if not (1 <= u <= n_nodes and 1 <= v <= n_nodes):
            raise ParseError(f"{path} line {line_no}: edge endpoint {max(u, v)} unknown")
        if indicator[u - 1] != indicator[v - 1]:
            raise ParseError(f"{path} line {line_no}: edge joins two different graphs")
        rows.append((u, v))
    return np.array(rows, dtype=np.int64).reshape(-1, 2)


def load_tu_dataset(root_path: str, name: str) -> DatasetBundle:
    """Load one TU-format dataset from ``root_path/name``.

    Edges are symmetrized; duplicate directed pairs and self-loops are dropped
    (with a warning stating how many). Node and class labels are densified to
    contiguous 0-based ranges.
    """
    base = os.path.join(root_path, name)
    if not os.path.isdir(base):
        raise DatasetError(f"dataset directory not found: {base}")
    prefix = os.path.join(base, name)

    indicator = _int_column(_require(f"{prefix}_graph_indicator.txt"))
    raw_class = _int_column(_require(f"{prefix}_graph_labels.txt"))
    n_graphs = len(raw_class)
    n_nodes = len(indicator)

    if n_nodes == 0 or indicator.min() < 1 or indicator.max() > n_graphs:
        raise ParseError(f"graph indicator out of range in {prefix}_graph_indicator.txt")
    counts = np.bincount(indicator, minlength=n_graphs + 1)[1 : n_graphs + 1]
    if np.any(counts == 0):
        empty = int(np.flatnonzero(counts == 0)[0]) + 1
        raise ParseError(f"graph {empty} has zero nodes in {prefix}_graph_indicator.txt")

    # node id -> (graph index, local index), robust to interleaved indicators
    offsets = np.zeros(n_graphs + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    order = np.argsort(indicator, kind="stable")
    local_index = np.empty(n_nodes, dtype=np.int64)
    local_index[order] = np.arange(n_nodes) - offsets[indicator[order] - 1]

    pairs = _edge_pairs(_require(f"{prefix}_A.txt"), indicator) - 1
    loops = pairs[:, 0] == pairs[:, 1]
    self_loops = int(loops.sum())
    u, v = pairs[~loops].T
    keys = np.unique(u * n_nodes + v)
    duplicates = len(u) - len(keys)
    # both directions of every pair as 0-based (u, v), sorted by u then v:
    # within one graph the local index grows with the node id, so each
    # graph's pairs come out in its local CSR order
    u, v = np.divmod(np.union1d(keys, v * n_nodes + u), n_nodes)
    graph_of = indicator[u] - 1
    by_graph = np.argsort(graph_of, kind="stable")
    local = local_index[np.stack([u[by_graph], v[by_graph]])]
    edges = np.split(local, np.cumsum(np.bincount(graph_of, minlength=n_graphs))[:-1], axis=1)
    if duplicates or self_loops:
        warnings.warn(
            f"{name}: dropped {duplicates} duplicate edge(s) and {self_loops} self-loop(s)",
            stacklevel=2,
        )

    node_label_path = f"{prefix}_node_labels.txt"
    if os.path.isfile(node_label_path):
        raw_node = _int_column(node_label_path)
        if len(raw_node) != n_nodes:
            raise ParseError(f"{node_label_path}: {len(raw_node)} labels for {n_nodes} nodes")
    else:
        degrees = np.bincount(u, minlength=n_nodes)
        raw_node = np.minimum(degrees, DEGREE_LABEL_CAP - 1)

    node_labels = _densify(raw_node)
    class_labels = _densify(raw_class)

    graphs = []
    for g in range(n_graphs):
        members = order[offsets[g] : offsets[g + 1]]
        graph = Graph(edges[g], node_labels[members].copy(), int(class_labels[g]))
        graph.validate()
        graphs.append(graph)
    return DatasetBundle(
        name=name,
        graphs=graphs,
        node_label_count=int(node_labels.max()) + 1,
        class_count=int(class_labels.max()) + 1,
    )


def save_tu_dataset(bundle: DatasetBundle, root_path: str, name: str | None = None):
    """Write a bundle back to TU format (1-indexed, both edge directions)."""
    name = bundle.name if name is None else name
    base = os.path.join(root_path, name)
    os.makedirs(base, exist_ok=True)
    prefix = os.path.join(base, name)
    offsets = np.cumsum([0] + [g.node_count for g in bundle.graphs])
    edges = [g.edges.T + offset + 1 for g, offset in zip(bundle.graphs, offsets)]
    np.savetxt(f"{prefix}_A.txt", np.vstack([np.zeros((0, 2), np.int64)] + edges), fmt="%d, %d")
    np.savetxt(f"{prefix}_graph_indicator.txt",
               np.repeat(np.arange(1, len(bundle.graphs) + 1), np.diff(offsets)), fmt="%d")
    np.savetxt(f"{prefix}_graph_labels.txt", bundle.class_labels(), fmt="%d")
    np.savetxt(f"{prefix}_node_labels.txt",
               np.concatenate([np.zeros(0, np.int64)] + [g.node_labels for g in bundle.graphs]),
               fmt="%d")


def one_hot_features(g: Graph, c: int) -> np.ndarray:
    """n x c one-hot node-type matrix."""
    if np.any(g.node_labels >= c) or np.any(g.node_labels < 0):
        raise ValueError(f"node label out of range [0, {c})")
    x = np.zeros((g.node_count, c), dtype=np.float64)
    x[np.arange(g.node_count), g.node_labels] = 1.0
    return x


def make_folds(bundle: DatasetBundle, fold_count: int = 10, seed: int = 0) -> FoldPlan:
    """Deterministic stratified fold assignment.

    Shuffled per-class blocks are dealt round-robin with a fold cursor that
    carries over between classes, which keeps both the per-class and the
    global fold sizes within one of each other.
    """
    n = len(bundle.graphs)
    if fold_count < 2:
        raise ValueError("fold_count must be at least 2")
    if fold_count > n:
        raise ValueError(f"fold_count {fold_count} exceeds graph count {n}")
    labels = bundle.class_labels()
    rng = np.random.default_rng(seed)
    assignments = np.full(n, -1, dtype=np.int64)
    cursor = 0
    for cls in np.unique(labels):
        members = np.flatnonzero(labels == cls)
        if len(members) < fold_count:
            warnings.warn(
                f"class {cls} has {len(members)} graphs < {fold_count} folds; "
                "stratification relaxed",
                stacklevel=2,
            )
        members = rng.permutation(members)
        for idx in members:
            assignments[idx] = cursor
            cursor = (cursor + 1) % fold_count
    return FoldPlan(fold_count=fold_count, assignments=assignments, seed=seed)
