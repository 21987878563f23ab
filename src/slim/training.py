"""Joint training of encoder, landmarks and classifier; cross-validation.

Protocol: landmarks are initialized by k-means on the epoch-0 embeddings of
the training graphs; the sharpened clustering targets are refreshed once per
epoch; mini-batches are drawn in a seeded shuffle; the reported epoch of a
cross-validation run is the one whose validation accuracy, averaged over all
folds, is highest.
"""
from __future__ import annotations

import json
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import model as M
from .autodiff import NumericError, Tensor
from .coherence import distinct_ks
from .datasets import DatasetBundle, FoldPlan
from .embedding import scaled_uniform
from .landmarks import init_landmarks, target_distribution
from .model import TrainConfig

DIVERGENCE_LIMIT = 1e6


class DivergenceError(RuntimeError):
    """Training loss exceeded the divergence limit."""


# ---------------------------------------------------------------------------
# optimizers


# entries of the scratch block that Adagrad's step works through at a time
STEP_BLOCK = 1 << 14


class SGD:
    """Plain gradient descent. Steps in place: the spent gradient is scaled
    in its own array and subtracted from the parameter's."""

    def __init__(self, params: list[Tensor], lr: float):
        self.params = params
        self.lr = lr

    def step(self):
        for p in self.params:
            if p.grad is None:
                continue
            g = p.grad
            g *= self.lr             # grads are never reused after a step
            np.subtract(p.value, g, out=p.value)


class Adagrad:
    """Adagrad with the accumulator initialized at 1e-8.

    Steps in place, bit-identical to ``acc += g * g`` and
    ``value -= lr * g / sqrt(acc)``: the same ufuncs in the same order on
    every entry, a block of leading-axis rows at a time. ``lr * g / sqrt(acc)``
    is formed in the spent gradient's array and the rest in one scratch block
    of ``STEP_BLOCK`` entries, never in a parameter-sized temporary.
    """

    def __init__(self, params: list[Tensor], lr: float):
        self.params = params
        self.lr = lr
        self.accumulators = [np.full_like(p.value, 1e-8) for p in params]
        self._scratch = np.empty(STEP_BLOCK)

    def step(self):
        for p, acc in zip(self.params, self.accumulators):
            if p.grad is None:
                continue
            value, g, acc = (np.atleast_1d(a) for a in (p.value, p.grad, acc))
            width = int(np.prod(value.shape[1:]))
            rows = max(1, STEP_BLOCK // max(width, 1))
            if rows * width > self._scratch.size:   # one row is wider than the block
                self._scratch = np.empty(rows * width)
            for r in range(0, len(value), rows):
                gb, ab = g[r:r + rows], acc[r:r + rows]
                tmp = self._scratch[:gb.size].reshape(gb.shape)
                ab += np.multiply(gb, gb, out=tmp)
                np.multiply(self.lr, gb, out=gb)
                gb /= np.sqrt(ab, out=tmp)
                np.subtract(value[r:r + rows], gb, out=value[r:r + rows])


def make_optimizer(name: str, params: list[Tensor], lr: float):
    return SGD(params, lr) if name == "sgd" else Adagrad(params, lr)


# ---------------------------------------------------------------------------
# training


@dataclass
class EpochMetrics:
    epoch: int
    train_loss: float
    loss_ce: float
    loss_embed: float
    loss_cluster: float
    val_accuracy: float | None


def init_state(cfg: TrainConfig, width_in: int, c: int, classes: int,
               rng: np.random.Generator) -> M.ModelState:
    """A new model of ``cfg`` for ``width_in``-wide substructure rows, ``c``
    node types and ``classes`` classes. Draws ``t1``, ``t2``, ``w_hidden``
    and ``w_out`` from ``rng`` in that order; the biases and the landmarks
    start at zero."""
    shapes = M.parameter_shapes(cfg, width_in, c, classes)
    return M.ModelState(config=cfg, **{
        name: Tensor(np.zeros(shape) if name == "u" or len(shape) == 1
                     else scaled_uniform(rng, shape), requires_grad=True)
        for name, shape in shapes.items()})


def refresh_targets(graphs: list[M.GraphData], state: M.ModelState) -> list[np.ndarray]:
    """Sharpened clustering target of every graph at the current parameters."""
    targets = []
    for fwd in M.forward_chunks(graphs, state, pooled=False):
        targets.extend(target_distribution(fwd.w.value[r0:r1]) for r0, r1 in fwd.bounds)
    return targets


def train(train_graphs: list[M.GraphData], cfg: TrainConfig, classes: int, c: int,
          val_graphs: list[M.GraphData] | None = None,
          unlabeled_graphs: list[M.GraphData] | None = None,
          seed_seq: np.random.SeedSequence | None = None):
    """Train one model; returns (ModelState, list[EpochMetrics]).

    ``unlabeled_graphs`` join the co-occurrence and clustering terms but never
    the classification loss; their labels are not read anywhere. When the
    pool has fewer substructure rows than ``cfg.k``, K is lowered to the row
    count before any parameter is drawn. The returned state's config records
    the K used, and ``semi_supervised`` says whether unlabeled graphs joined.

    A non-finite epoch-0 embedding raises NumericError naming the pool
    indices of its graphs (the training graphs, then the unlabeled ones). A
    step's NumericError or DivergenceError names the epoch, the batch index
    in the epoch and the pool indices of the batch's graphs; a NumericError
    from the validation accuracy names the epoch and the validation indices.
    """
    if not train_graphs:
        raise ValueError("training split must be non-empty")
    pool = list(train_graphs) + list(unlabeled_graphs or [])
    labeled_mask = [True] * len(train_graphs) + [False] * len(unlabeled_graphs or [])
    rows = sum(g.z.shape[0] for g in pool)
    if rows < cfg.k:
        warnings.warn(f"only {rows} substructure rows; lowering K to {rows}", stacklevel=2)
    cfg = replace(cfg, k=min(cfg.k, rows), semi_supervised=bool(unlabeled_graphs))
    seed_seq = np.random.SeedSequence(cfg.seed) if seed_seq is None else seed_seq
    init_seed, kmeans_seed, shuffle_seed = seed_seq.spawn(3)
    state = init_state(cfg, train_graphs[0].z.shape[1], c, classes,
                       np.random.default_rng(init_seed))

    # landmark initialization on epoch-0 embeddings
    stacked = np.vstack([fwd.h.value
                         for fwd in M.forward_chunks(pool, state, pooled=False)])
    finite = np.isfinite(stacked).all(axis=1)
    if not finite.all():
        ends = np.cumsum([g.z.shape[0] for g in pool])
        bad = np.unique(np.searchsorted(ends, np.flatnonzero(~finite), side="right"))
        raise NumericError(f"non-finite epoch-0 embeddings in pool graphs {bad.tolist()}")
    state.u.value = init_landmarks(
        stacked, cfg.k, int(kmeans_seed.generate_state(1)[0]), restarts=cfg.kmeans_restarts
    )
    center = 0.0
    for fwd in M.forward_chunks(pool, state):  # a stacked copy would not fit at large K
        center = center + fwd.features.value.sum(axis=0)
    state.feature_center = center / len(pool)

    opt = make_optimizer(cfg.optimizer, state.parameters(), cfg.learning_rate)
    shuffle_rng = np.random.default_rng(shuffle_seed)
    history: list[EpochMetrics] = []
    for epoch in range(cfg.epochs):
        targets = refresh_targets(pool, state) if cfg.lambda_cluster > 0 else None
        order = shuffle_rng.permutation(len(pool))
        sums = np.zeros(4)
        batches = 0
        for b, start in enumerate(range(0, len(order), cfg.batch_size)):
            idx = order[start : start + cfg.batch_size]
            batch = [pool[i] for i in idx]
            batch_targets = None if targets is None else [targets[i] for i in idx]
            batch_labeled = [labeled_mask[i] for i in idx]
            if not any(batch_labeled) and cfg.lambda_embed == 0 and cfg.lambda_cluster == 0:
                continue
            state.zero_grad()
            try:
                loss, parts = M.joint_loss(batch, state, batch_targets, batch_labeled)
            except NumericError as exc:
                raise NumericError(f"{exc} at {_where(epoch, b, idx)}") from exc
            if parts.total > DIVERGENCE_LIMIT:
                raise DivergenceError(f"loss {parts.total:.3e} exceeded "
                                      f"{DIVERGENCE_LIMIT:.0e} at {_where(epoch, b, idx)}")
            loss.backward()
            opt.step()
            sums += (parts.total, parts.cross_entropy, parts.embed, parts.cluster)
            batches += 1
        try:
            val_accuracy = M.accuracy(val_graphs, state) if val_graphs else None
        except NumericError as exc:
            raise NumericError(f"{exc} of the validation split at epoch {epoch}") from exc
        div = max(batches, 1)
        history.append(EpochMetrics(
            epoch=epoch,
            train_loss=sums[0] / div,
            loss_ce=sums[1] / div,
            loss_embed=sums[2] / div,
            loss_cluster=sums[3] / div,
            val_accuracy=val_accuracy,
        ))
    return state, history


def _where(epoch: int, batch: int, idx: np.ndarray) -> str:
    return f"epoch {epoch}, batch {batch}, pool graphs {idx.tolist()}"


# ---------------------------------------------------------------------------
# cross-validation


@dataclass
class CVResult:
    """The fold-averaged selection (``selected_epoch``, the accuracy of each
    fold there, their mean and std, and the fold-averaged curve), and each
    fold's own best epoch (the first of its highest accuracies) and that
    accuracy, which the selection does not use."""

    per_fold: list[float]
    mean: float
    std: float
    selected_epoch: int
    epoch_curve: list[float]
    fold_best_epochs: list[int]
    fold_best_accuracies: list[float]


def _run_fold(args):
    graphs, cfg, classes, c, train_idx, val_idx, seed_seq = args
    train_graphs = [graphs[i] for i in train_idx]
    val_graphs = [graphs[i] for i in val_idx]
    unlabeled = val_graphs if cfg.semi_supervised else None
    _, history = train(
        train_graphs, cfg, classes, c,
        val_graphs=val_graphs,
        unlabeled_graphs=unlabeled,
        seed_seq=seed_seq,
    )
    return [asdict(m) for m in history]


def check_cv_epochs(cfg: TrainConfig):
    """Refuses a cross-validation of ``cfg`` that trains no epoch to select."""
    if cfg.epochs < 1:
        raise ValueError("cross-validation needs at least one epoch")


def cross_validate(bundle: DatasetBundle, cfg: TrainConfig, plan: FoldPlan,
                   jobs: int = 1, metrics_path: str | None = None,
                   graphs: list[M.GraphData] | None = None) -> CVResult:
    """Train one model per fold; select the epoch with the best fold-averaged
    validation accuracy and report per-fold accuracies at that epoch.
    ``graphs`` are the bundle's graphs prepared for ``cfg``; when None they
    are prepared here."""
    check_cv_epochs(cfg)
    if graphs is None:
        graphs = M.prepare_bundle(bundle, cfg.substructure())
    fold_seeds = np.random.SeedSequence(cfg.seed).spawn(plan.fold_count)
    tasks = [(graphs, cfg, bundle.class_count, bundle.node_label_count, *plan.split(fold),
              seed_seq) for fold, seed_seq in enumerate(fold_seeds)]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            fold_histories = list(pool.map(_run_fold, tasks))
    else:
        fold_histories = [_run_fold(t) for t in tasks]

    if metrics_path:
        with open(metrics_path, "w", encoding="utf-8") as fh:
            for fold, history in enumerate(fold_histories):
                for m in history:
                    fh.write(json.dumps({"fold": fold, **m}) + "\n")

    acc = np.array([[m["val_accuracy"] for m in history] for history in fold_histories])
    epoch_curve = acc.mean(axis=0)
    selected = int(np.argmax(epoch_curve))
    per_fold = acc[:, selected]
    return CVResult(
        per_fold=[float(a) for a in per_fold],
        mean=float(per_fold.mean()),
        std=float(per_fold.std()),
        selected_epoch=selected,
        epoch_curve=[float(a) for a in epoch_curve],
        fold_best_epochs=[int(e) for e in acc.argmax(axis=1)],
        fold_best_accuracies=[float(a) for a in acc.max(axis=1)],
    )


@dataclass
class SweepRow:
    k: int
    mean_acc: float
    std_acc: float


def sweep_k(bundle: DatasetBundle, cfg: TrainConfig, k_values: list[int],
            plan: FoldPlan, jobs: int = 1) -> list[SweepRow]:
    """Cross-validate once per distinct K in ascending order (``distinct_ks``),
    same seeds. The substructures do not depend on K, so they are prepared once."""
    graphs = M.prepare_bundle(bundle, cfg.substructure())
    rows = []
    for k in distinct_ks(k_values):
        result = cross_validate(bundle, replace(cfg, k=k), plan, jobs, graphs=graphs)
        rows.append(SweepRow(k=k, mean_acc=result.mean, std_acc=result.std))
    return rows


def write_sweep_csv(rows: list[SweepRow], path: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("K,mean_acc,std_acc\n")
        for row in rows:
            fh.write(f"{row.k},{row.mean_acc:.6f},{row.std_acc:.6f}\n")
