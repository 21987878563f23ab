"""The full differentiable pipeline and its parameter container.

A batch of graphs is run as one disjoint union: the substructure rows of
all graphs are stacked, encoded and softly assigned to the landmarks in one
pass, and fused ops pool each graph's row range into its interaction
features, which a one-hidden-layer FC network classifies. The joint loss
combines the classification cross-entropy with the weighted co-occurrence
and clustering terms. Training, evaluation, target refresh and inspection
all use this one forward pass, with or without a tape. Each graph enters as
its directed edge list (``Graph.edges``); no n x n adjacency is stored.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from . import embedding, landmarks, pooling
from .autodiff import Tensor
from .datasets import DatasetBundle, Graph, one_hot_features
from .substructure import SubstructureConfig, build_substructures

MODEL_FORMAT_VERSION = 2
# the model's parameters as (ModelState field, parameter field), in the order
# of ``ModelState.parameters()``; each name is also its key in a model file
PARAMETERS = (("encoder", "t1"), ("encoder", "b1"), ("encoder", "t2"), ("encoder", "b2"),
              ("landmarks", "u"), ("classifier", "w_hidden"), ("classifier", "b_hidden"),
              ("classifier", "w_out"), ("classifier", "b_out"))


@dataclass(frozen=True)
class GraphData:
    """Per-graph constants, computed once per dataset and configuration.

    ``edges`` is the graph's 2 x 2E directed edge list (``Graph.edges``, in
    CSR order), which pooling and the co-occurrence loss read; no n x n
    matrix is kept.
    """

    z: np.ndarray      # n x D substructure matrix
    x: np.ndarray      # n x c one-hot node types
    edges: np.ndarray  # 2 x 2E
    label: int


def prepare_graph(g: Graph, c: int, cfg: SubstructureConfig) -> GraphData:
    x = one_hot_features(g, c)
    z = build_substructures(g, x, cfg)
    return GraphData(z=z, x=x, edges=g.edges, label=g.class_label)


def prepare_bundle(bundle: DatasetBundle, cfg: SubstructureConfig) -> list[GraphData]:
    return [prepare_graph(g, bundle.node_label_count, cfg) for g in bundle.graphs]


@dataclass
class ClassifierParams:
    w_hidden: Tensor
    b_hidden: Tensor
    w_out: Tensor
    b_out: Tensor


def init_classifier(width_in: int, hidden: int, classes: int,
                    rng: np.random.Generator) -> ClassifierParams:
    return ClassifierParams(
        w_hidden=Tensor(embedding.scaled_uniform(rng, (width_in, hidden)), requires_grad=True),
        b_hidden=Tensor(np.zeros(hidden), requires_grad=True),
        w_out=Tensor(embedding.scaled_uniform(rng, (hidden, classes)), requires_grad=True),
        b_out=Tensor(np.zeros(classes), requires_grad=True),
    )


@dataclass
class ModelState:
    encoder: embedding.EncoderParams
    landmarks: landmarks.LandmarkSet
    classifier: ClassifierParams
    include_means: bool = False
    # constant offset subtracted from classifier inputs, fitted once on the
    # training features when the landmarks are initialized
    feature_center: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def parameters(self) -> list[Tensor]:
        return [getattr(getattr(self, part), name) for part, name in PARAMETERS]

    def with_parameters(self, tensors) -> ModelState:
        """The same model with ``tensors`` in place of ``parameters()``, in that
        order; every other field is kept."""
        return replace(self, **{part: replace(getattr(self, part), **fields)
                                for part, fields in _grouped(tensors).items()})

    def zero_grad(self):
        for p in self.parameters():
            p.zero_grad()

    def frozen(self) -> ModelState:
        """The same model with constant parameters (sharing their arrays), so
        forward passes through it build no tape."""
        return self.with_parameters(ad.constant(p.value) for p in self.parameters())


def _grouped(tensors) -> dict[str, dict[str, Tensor]]:
    """``tensors`` in PARAMETERS order as {ModelState field: {name: tensor}}."""
    tensors = list(tensors)
    if len(tensors) != len(PARAMETERS):
        raise ValueError(f"expected {len(PARAMETERS)} parameters, got {len(tensors)}")
    parts: dict[str, dict[str, Tensor]] = {}
    for (part, name), tensor in zip(PARAMETERS, tensors):
        parts.setdefault(part, {})[name] = tensor
    return parts


def classifier_logits(features: Tensor, params: ClassifierParams,
                      center: np.ndarray | None = None) -> Tensor:
    # saturating hidden activation: a relu head can die wholesale during the
    # optimizer cold start on these weak-variance features and never recover.
    # centering removes the large shared feature baseline, whose l1 mass
    # otherwise makes the first adaptive steps saturate every hidden unit
    hidden = ad.tanh(ad.dense(features, params.w_hidden, params.b_hidden, shift=center))
    return ad.dense(hidden, params.w_out, params.b_out)


@dataclass
class BatchForward:
    """One forward pass over the disjoint union of a batch of graphs."""

    bounds: list[tuple[int, int]]  # rows of each graph in h and w
    h: Tensor                      # stacked embeddings
    w: Tensor                      # stacked soft assignments
    features: Tensor | None        # one pooled row per pooled graph, in batch order


def batch_forward(batch: list[GraphData], state: ModelState,
                  pooled: list[bool] | None = None) -> BatchForward:
    """Encoder, assignment and pooling over all rows of ``batch`` at once.

    Builds a tape when ``state`` holds trainable parameters and none for
    ``state.frozen()``. Only graphs with ``pooled[i]`` set (default: all)
    get a feature row.
    """
    ends = np.cumsum([data.z.shape[0] for data in batch]).tolist()
    bounds = list(zip([0] + ends[:-1], ends))
    h = embedding.encode(ad.constant(np.vstack([data.z for data in batch])),
                         state.encoder)
    w = landmarks.assign(h, state.landmarks)
    keep = [i for i in range(len(batch)) if pooled is None or pooled[i]]
    features = None
    if keep:
        features = pooling.graph_feature_op(
            w, [bounds[i] for i in keep], [batch[i].x for i in keep],
            [batch[i].edges for i in keep], state.include_means)
    return BatchForward(bounds, h, w, features)


@dataclass
class LossBreakdown:
    total: float
    cross_entropy: float
    embed: float
    cluster: float


def joint_loss(batch: list[GraphData], state: ModelState,
               lambda_embed: float, lambda_cluster: float,
               targets_w: list[np.ndarray] | None = None,
               labeled: list[bool] | None = None) -> tuple[Tensor, LossBreakdown]:
    """Mean cross-entropy over labeled graphs plus weighted unsupervised terms.

    The co-occurrence and clustering terms sum over every graph in the batch
    (labeled or not); ``targets_w`` holds the per-graph sharpened targets
    frozen at the latest refresh. Raises NumericError with diagnostics if any
    term goes non-finite.
    """
    if not batch:
        raise ValueError("joint_loss: batch must be non-empty")
    labeled = [True] * len(batch) if labeled is None else list(labeled)
    if len(labeled) != len(batch):
        raise ValueError("joint_loss: one labeled flag per graph")
    fwd = batch_forward(batch, state, labeled)
    parts = []   # (term, weight)
    ce_value = embed_value = cluster_value = 0.0
    if fwd.features is not None:
        logits = classifier_logits(fwd.features, state.classifier, state.feature_center)
        ce = ad.cross_entropy(logits, [d.label for d, lab in zip(batch, labeled) if lab])
        ce_value = float(ce.value)
        parts.append((ce, 1.0))
    if lambda_embed > 0:
        embed = embedding.cooccurrence_op(fwd.h, fwd.bounds, [d.edges for d in batch])
        embed_value = float(embed.value)
        parts.append((embed, lambda_embed))
    if lambda_cluster > 0 and targets_w is not None:
        cluster = landmarks.cluster_loss(fwd.w, np.vstack(targets_w))
        cluster_value = float(cluster.value)
        parts.append((cluster, lambda_cluster))
    if not parts:
        raise ValueError("joint_loss: no labeled graphs and no active unsupervised terms")
    total = ad.weighted_sum(*zip(*parts))
    breakdown = LossBreakdown(float(total.value), ce_value, embed_value, cluster_value)
    if not np.isfinite(breakdown.total):
        raise ad.NumericError(
            f"non-finite joint loss: ce={ce_value} embed={embed_value} "
            f"cluster={cluster_value}"
        )
    return total, breakdown


# ---------------------------------------------------------------------------
# tape-free passes (evaluation, target refresh, feature centre, k-means init)

# rows per tape-free chunk: large enough to amortize the per-op overhead of a
# batch of small graphs, small enough that the assignment temporaries stay in
# cache when graphs have thousands of nodes
CHUNK_ROWS = 512
# feature rows per evaluation classifier call: one call per graph rereads the
# whole first-layer weight each time, one call for a whole dataset streams a
# feature matrix far larger than the cache
CLASSIFY_ROWS = 16


def forward_chunks(graphs: list[GraphData], state: ModelState, pooled: bool = True):
    """Yield the tape-free BatchForward of consecutive chunks of ``graphs``,
    each of at most CHUNK_ROWS rows or a single larger graph."""
    frozen = state.frozen()
    start = 0
    while start < len(graphs):
        stop, rows = start + 1, graphs[start].z.shape[0]
        while stop < len(graphs) and rows + graphs[stop].z.shape[0] <= CHUNK_ROWS:
            rows += graphs[stop].z.shape[0]
            stop += 1
        chunk = graphs[start:stop]
        yield batch_forward(chunk, frozen, [pooled] * len(chunk))
        start = stop


def accuracy(graphs: list[GraphData], state: ModelState) -> float:
    """Fraction of graphs predicted correctly."""
    if not graphs:
        return float("nan")
    clf = state.frozen().classifier
    preds, rows = [], []

    def classify():
        feats = rows[0] if len(rows) == 1 else np.vstack(rows)
        logits = classifier_logits(ad.constant(feats), clf, state.feature_center)
        preds.extend(logits.value.argmax(axis=1))
        rows.clear()

    for fwd in forward_chunks(graphs, state):
        rows.append(fwd.features.value)
        if sum(map(len, rows)) >= CLASSIFY_ROWS:
            classify()
    if rows:
        classify()
    return float((np.array(preds) == np.array([g.label for g in graphs])).mean())


# ---------------------------------------------------------------------------
# serialization


def save_model(path: str, state: ModelState):
    """Write all parameter matrices plus a JSON meta header to one .npz file."""
    meta = dict(state.meta)
    meta.update(
        format_version=MODEL_FORMAT_VERSION,
        activation=state.encoder.activation,
        include_means=state.include_means,
    )
    center = (np.zeros(0) if state.feature_center is None else state.feature_center)
    np.savez(
        path,
        meta=np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8),
        feature_center=center,
        **{name: p.value for (_, name), p in zip(PARAMETERS, state.parameters())},
    )


def load_model(path: str) -> ModelState:
    with np.load(path) as data:
        meta = json.loads(bytes(data["meta"]).decode("utf-8"))
        if meta.get("format_version") != MODEL_FORMAT_VERSION:
            raise ValueError(f"unsupported model format version: {meta.get('format_version')}")
        if meta.get("dof", 1.0) != 1.0:   # older files record the kernel's dof, all 1.0
            raise ValueError(f"meta dof {meta['dof']!r}: the Student-t kernel has one dof")
        parts = _grouped(Tensor(data[name], requires_grad=True) for _, name in PARAMETERS)
        center = data["feature_center"]
    return ModelState(
        encoder=embedding.EncoderParams(**parts["encoder"], activation=meta["activation"]),
        landmarks=landmarks.LandmarkSet(**parts["landmarks"]),
        classifier=ClassifierParams(**parts["classifier"]),
        include_means=bool(meta["include_means"]),
        feature_center=None if center.size == 0 else center,
        meta=meta,
    )
