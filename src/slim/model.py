"""The full differentiable pipeline and the model record.

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
import math
import tokenize
import zipfile
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import autodiff as ad
from . import embedding, landmarks, pooling
from .autodiff import Tensor
from .datasets import DatasetBundle, Graph, one_hot_features
from .substructure import SubstructureConfig, build_substructures

MODEL_FORMAT_VERSION = 3
# the ModelState parameter fields, in optimizer order; each name is also its
# key in a model file
PARAMETERS = ("t1", "b1", "t2", "b2", "u", "w_hidden", "b_hidden", "w_out", "b_out")
OPTIMIZERS = ("sgd", "adagrad")


@dataclass(frozen=True)
class TrainConfig(SubstructureConfig):
    k: int = 100
    latent: int = 32
    hidden: int | str = "2D"          # "D", "D/2", "2D" resolve against input width
    classifier_hidden: int = 64
    optimizer: str = "adagrad"        # one of OPTIMIZERS
    learning_rate: float = 1e-2
    epochs: int = 300
    batch_size: int = 32
    lambda_embed: float = 0.01
    lambda_cluster: float = 0.01
    seed: int = 0
    semi_supervised: bool = False
    include_means: bool = False
    activation: str = "tanh"          # "sigmoid" available behind this switch
    kmeans_restarts: int = 4

    def __post_init__(self):
        if isinstance(self.hidden, str) and self.hidden.isdigit():
            object.__setattr__(self, "hidden", int(self.hidden))
        for name in ("learning_rate", "lambda_embed", "lambda_cluster"):
            if not (math.isfinite(getattr(self, name)) and getattr(self, name) >= 0):
                raise ValueError(f"{name} must be finite and non-negative")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"optimizer must be one of {list(OPTIMIZERS)}")
        if self.k < 1 or self.epochs < 0 or self.batch_size < 1:
            raise ValueError("k, epochs and batch_size must be positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        for name in ("latent", "hidden", "classifier_hidden", "kmeans_restarts"):
            if isinstance(getattr(self, name), int) and getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.activation not in embedding.ACTIVATIONS:
            raise ValueError(f"activation must be one of {sorted(embedding.ACTIVATIONS)}")
        self.resolve_hidden(1)  # rejects an unknown width name
        super().__post_init__()  # checks hops and layer_decay, coerces variant

    def substructure(self) -> SubstructureConfig:
        return SubstructureConfig(hops=self.hops, variant=self.variant,
                                  layer_decay=self.layer_decay)

    def resolve_hidden(self, width_in: int) -> int:
        if isinstance(self.hidden, int):
            return self.hidden
        table = {"D": width_in, "D/2": max(1, width_in // 2), "2D": 2 * width_in}
        if self.hidden not in table:
            raise ValueError(f"hidden must be an int or one of {sorted(table)}")
        return table[self.hidden]


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


def parameter_shapes(cfg: TrainConfig, width_in: int, c: int, classes: int) -> dict:
    """The shape of every parameter, in PARAMETERS order, of a model of
    ``cfg`` for ``width_in``-wide substructure rows, ``c`` node types and
    ``classes`` classes."""
    hidden, fc = cfg.resolve_hidden(width_in), cfg.classifier_hidden
    return {"t1": (width_in, hidden), "b1": (hidden,), "t2": (hidden, cfg.latent),
            "b2": (cfg.latent,), "u": (cfg.k, cfg.latent),
            "w_hidden": (pooling.feature_width(cfg.k, c, cfg.include_means), fc),
            "b_hidden": (fc,), "w_out": (fc, classes), "b_out": (classes,)}


@dataclass
class ModelState:
    """One model: the config that built it, the encoder ``t1 .. b2``, the
    K x d landmarks ``u``, the classifier ``w_hidden .. b_out``, the centre
    subtracted from every pooled feature row (fitted on the training features
    when the landmarks are initialized) and provenance such as the dataset.
    Made, it raises ValueError naming the first array whose shape disagrees
    with ``parameter_shapes`` at the substructure width of ``t1``'s rows, the
    feature width of ``w_hidden``'s and the class count of ``w_out``'s columns."""

    config: TrainConfig
    t1: Tensor
    b1: Tensor
    t2: Tensor
    b2: Tensor
    u: Tensor
    w_hidden: Tensor
    b_hidden: Tensor
    w_out: Tensor
    b_out: Tensor
    feature_center: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        def size(name, axis):
            shape = getattr(self, name).shape
            return shape[axis] if shape else 0

        cfg, width = self.config, size("w_hidden", 0)
        # the node-type count c that include_means' k + c k extra entries imply
        c = max(1, (width - cfg.k * (cfg.k + 1) // 2) // cfg.k - 1)
        expected = parameter_shapes(cfg, size("t1", 0), c, size("w_out", -1))
        for name, shape in expected.items():
            actual = getattr(self, name).shape
            if actual != shape:
                raise ValueError(f"array {name} has shape {actual}, but the config and the "
                                 f"arrays before it give {shape}")
        center = self.feature_center
        if center is not None and np.shape(center) != (width,):
            raise ValueError(f"array feature_center has shape {np.shape(center)}, but w_hidden "
                             f"has {width} rows")

    def parameters(self) -> list[Tensor]:
        return [getattr(self, name) for name in PARAMETERS]

    def with_parameters(self, tensors) -> ModelState:
        """The same model with ``tensors`` in place of ``parameters()``, in that
        order; every other field is kept."""
        tensors = list(tensors)
        if len(tensors) != len(PARAMETERS):
            raise ValueError(f"expected {len(PARAMETERS)} parameters, got {len(tensors)}")
        return replace(self, **dict(zip(PARAMETERS, tensors)))

    def zero_grad(self):
        for p in self.parameters():
            p.zero_grad()

    def frozen(self) -> ModelState:
        """The same model with constant parameters (sharing their arrays), so
        forward passes through it build no tape."""
        return self.with_parameters(ad.constant(p.value) for p in self.parameters())


def classifier_logits(features: Tensor, state: ModelState) -> Tensor:
    # saturating hidden activation: a relu head can die wholesale during the
    # optimizer cold start on these weak-variance features and never recover
    hidden = ad.tanh(ad.dense(features, state.w_hidden, state.b_hidden))
    return ad.dense(hidden, state.w_out, state.b_out)


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
    get a feature row, centred on ``state.feature_center`` once it is fitted.
    """
    ends = np.cumsum([data.z.shape[0] for data in batch]).tolist()
    bounds = list(zip([0] + ends[:-1], ends))
    h = embedding.encode(ad.constant(np.vstack([data.z for data in batch])), state)
    w = landmarks.assign(h, state.u)
    keep = [i for i in range(len(batch)) if pooled is None or pooled[i]]
    features = None
    if keep:
        features = pooling.graph_feature_op(
            w, [bounds[i] for i in keep], [batch[i].x for i in keep],
            [batch[i].edges for i in keep], state.config.include_means,
            state.feature_center)
    return BatchForward(bounds, h, w, features)


@dataclass
class LossBreakdown:
    total: float
    cross_entropy: float
    embed: float
    cluster: float


def joint_loss(batch: list[GraphData], state: ModelState,
               targets_w: list[np.ndarray] | None = None,
               labeled: list[bool] | None = None) -> tuple[Tensor, LossBreakdown]:
    """Mean cross-entropy over labeled graphs plus the unsupervised terms,
    weighted by the config's ``lambda_embed`` and ``lambda_cluster``.

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
        logits = classifier_logits(fwd.features, state)
        ce = ad.cross_entropy(logits, [d.label for d, lab in zip(batch, labeled) if lab])
        ce_value = float(ce.value)
        parts.append((ce, 1.0))
    if state.config.lambda_embed > 0:
        embed = embedding.cooccurrence_op(fwd.h, fwd.bounds, [d.edges for d in batch])
        embed_value = float(embed.value)
        parts.append((embed, state.config.lambda_embed))
    if state.config.lambda_cluster > 0 and targets_w is not None:
        cluster = landmarks.cluster_loss(fwd.w, np.vstack(targets_w))
        cluster_value = float(cluster.value)
        parts.append((cluster, state.config.lambda_cluster))
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
    """Fraction of graphs predicted correctly. Raises NumericError naming
    the indices of the graphs whose logits are non-finite."""
    if not graphs:
        return float("nan")
    frozen = state.frozen()
    preds, rows, bad = [], [], []

    def classify():
        feats = rows[0] if len(rows) == 1 else np.vstack(rows)
        logits = classifier_logits(ad.constant(feats), frozen).value
        bad.extend(np.flatnonzero(~np.isfinite(logits).all(axis=1)) + len(preds))
        preds.extend(logits.argmax(axis=1))
        rows.clear()

    for fwd in forward_chunks(graphs, state):
        rows.append(fwd.features.value)
        if sum(map(len, rows)) >= CLASSIFY_ROWS:
            classify()
    if rows:
        classify()
    if bad:
        raise ad.NumericError(f"non-finite classifier logits for graphs {[int(i) for i in bad]}")
    return float((np.array(preds) == np.array([g.label for g in graphs])).mean())


# ---------------------------------------------------------------------------
# serialization


def save_model(path: str, state: ModelState):
    """Write the parameters, the feature centre and a JSON meta header (the
    provenance, the format version and the config) to one .npz file."""
    meta = {**state.meta, "format_version": MODEL_FORMAT_VERSION,
            "config": asdict(state.config)}
    center = (np.zeros(0) if state.feature_center is None else state.feature_center)
    np.savez(
        path,
        meta=np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8),
        feature_center=center,
        **{name: p.value for name, p in zip(PARAMETERS, state.parameters())},
    )


def load_model(path: str) -> ModelState:
    """Read a model file of format 3, or of format 2 with a config (every
    ``slim train`` output). Raises ValueError, naming ``path``, for a file
    that does not describe a model."""
    open(path, "rb").close()   # a file that cannot be opened stays an OSError
    try:
        with np.load(path) as data:
            meta = json.loads(bytes(data["meta"]).decode("utf-8"))
            version = meta.pop("format_version", None)
            if version not in (2, MODEL_FORMAT_VERSION):
                raise ValueError(f"unsupported model format version: {version}")
            if meta.pop("dof", 1.0) != 1.0:   # format 2 recorded the kernel's dof, 1.0
                raise ValueError("meta dof: the Student-t kernel has one dof")
            if "config" not in meta:
                raise ValueError("the model file records no config")
            for key in ("activation", "include_means"):   # format 2 copies of config keys
                meta.pop(key, None)
            config = TrainConfig(**meta.pop("config"))
            arrays = {name: data[name] for name in (*PARAMETERS, "feature_center")}
            center = arrays.pop("feature_center")
            return ModelState(config=config, feature_center=None if center.size == 0 else center,
                              meta=meta, **{name: Tensor(a, requires_grad=True)
                                            for name, a in arrays.items()})
    except (KeyError, TypeError, ValueError, EOFError, NotImplementedError, OSError,
            tokenize.TokenError, zipfile.BadZipFile) as exc:
        # an empty file ends before numpy's format check (EOFError); a cut one
        # has lost the zip archive's directory (BadZipFile); a damaged entry
        # header can name a compression zipfile lacks (NotImplementedError)
        # or an offset before the file's start (OSError), and a damaged
        # array header can fail numpy's tokenizing of it (TokenError)
        raise ValueError(f"{path}: {exc}") from exc
