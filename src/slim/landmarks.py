"""Structural landmarks: Student-t soft assignment, sharpened targets, and
the self-training KL loss, plus the k-means initializer.

The K landmark vectors are free parameters after initialization; the Student-t
kernel makes the assignment differentiable with respect to both embeddings and
landmarks. The sharpened target is always treated as a constant: no gradient
flows through it.
"""
from __future__ import annotations

import warnings

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

# Lloyd's iterations stop when no center moves this far, or after this many
KMEANS_TOL = 1e-6
KMEANS_MAX_ITER = 100


def assign(h: Tensor, u: Tensor) -> Tensor:
    """Row-stochastic soft assignment of embeddings to landmarks.

    W[j, k] = 1 / (1 + |h_j - u_k|^2), normalized over k: the Student-t
    kernel at one degree of freedom (Xie et al. 2016, DEC). One tape node,
    differentiable with respect to both h and the K x d landmark vectors u.
    The backward keeps the kernel, its base 1 + d2, the row sums and W; the
    clip of the distances at 0 passes the gradient unchanged.
    """
    vh, vu = h.value, u.value
    base = pairwise_sq_distances(vh, vu)
    base += 1.0
    kernel = 1.0 / base
    r = kernel.sum(axis=1, keepdims=True)
    w = kernel / r

    def backward(g):
        g_kernel = (g - (g * w).sum(axis=1, keepdims=True)) / r
        g_d2 = -g_kernel * kernel / base
        if h.requires_grad:
            h._accumulate(2.0 * (vh * g_d2.sum(axis=1, keepdims=True) - g_d2 @ vu))
        if u.requires_grad:
            u._accumulate(2.0 * (vu * g_d2.sum(axis=0)[:, None] - g_d2.T @ vh))

    return ad._make(w, (h, u), backward)


def pairwise_sq_distances(h: np.ndarray, u: np.ndarray) -> np.ndarray:
    """|h_j - u_k|^2 for every row pair, clipped at 0 against rounding."""
    d2 = (h * h).sum(axis=1)[:, None] + (u * u).sum(axis=1)[None, :] - 2.0 * h @ u.T
    return np.maximum(d2, 0.0)


def target_distribution(w: np.ndarray) -> np.ndarray:
    """Sharpened self-training target: square, normalize by column mass, renorm rows.

    Constant by construction; columns with (near) zero mass are guarded.
    """
    mass = w.sum(axis=0)
    scaled = w * w / np.maximum(mass, 1e-12)
    return scaled / scaled.sum(axis=1, keepdims=True)


def cluster_loss(w: Tensor, target: np.ndarray) -> Tensor:
    """KL(target || W) summed over all rows, with 0 log 0 := 0. The target is
    a constant array; the gradient reaches W only."""
    ad._check_finite("cluster_loss", target, w.value)
    vw = w.value
    if np.any(vw <= 0) or np.any(target < 0):
        raise ad.NumericError("cluster_loss: requires W > 0 and target >= 0")
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(target > 0, target * (np.log(target) - np.log(vw)), 0.0)

    def backward(g):
        w._accumulate(-g * target / vw)

    return ad._make(terms.sum(), (w,), backward)


def hard_distortion(h: np.ndarray, u: np.ndarray) -> float:
    """Sum of squared distances to the nearest landmark (the hard objective)."""
    return float(pairwise_sq_distances(h, u).min(axis=1).sum())


def _kmeans_pp_seed(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
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


def _lloyd(points: np.ndarray, centers: np.ndarray, tol: float, max_iter: int) -> np.ndarray:
    """Lloyd iterations from ``centers`` until no center moves ``tol`` or more.

    The distances are (|p|^2 + |c|^2) - P (2C)'. Scaling by 2 is exact at
    every rounding step of the product, so P (2C)' and (2P) C' are both
    exactly 2 (P C'), and d2 is bit-for-bit that of the direct formula
    |p|^2 + |c|^2 - 2 P C', in two n x K passes instead of three. The
    centroid sums come from one flat bincount over the points in row-major
    order, which visits the rows of each (center, column) bin in row order:
    the same additions in the same order as one bincount per column, or as
    ``np.add.at``.
    """
    d, k = points.shape[1], len(centers)
    pp = (points * points).sum(axis=1)
    flat, bins = points.ravel(), np.arange(d)
    for _ in range(max_iter):
        d2 = np.add.outer(pp, (centers * centers).sum(axis=1))
        d2 -= points @ (2.0 * centers).T
        nearest = d2.argmin(axis=1)
        new = centers.copy()
        sums = np.bincount((nearest[:, None] * d + bins).ravel(), weights=flat,
                           minlength=k * d).reshape(k, d)
        sizes = np.bincount(nearest, minlength=k)
        occupied = sizes > 0
        new[occupied] = sums[occupied] / sizes[occupied, None]
        shift = np.linalg.norm(new - centers, axis=1).max()
        centers = new
        if shift < tol:
            break
    return centers


def init_landmarks(embeddings: np.ndarray, k: int, seed: int,
                   restarts: int = 4) -> np.ndarray:
    """k-means++ seeding followed by Lloyd iterations; best of ``restarts`` runs.

    Duplicate rows below k distinct values trigger a warning and a small
    jitter so the returned landmarks are usable as distinct parameters.
    """
    points = np.asarray(embeddings, dtype=np.float64)
    if points.ndim != 2 or len(points) < k:
        raise ValueError(f"need at least {k} embedding rows to seed {k} landmarks")
    rng = np.random.default_rng(seed)
    distinct = np.unique(points, axis=0)
    if len(distinct) < k:
        warnings.warn(
            f"only {len(distinct)} distinct rows for {k} landmarks; duplicate "
            "centroids jittered",
            stacklevel=2,
        )
    best, best_cost = None, np.inf
    for _ in range(max(1, restarts)):
        centers = _lloyd(points, _kmeans_pp_seed(points, k, rng), KMEANS_TOL, KMEANS_MAX_ITER)
        cost = hard_distortion(points, centers)
        if cost < best_cost:
            best, best_cost = centers, cost
    if len(np.unique(best, axis=0)) < k:
        best = best + rng.normal(scale=1e-4, size=best.shape)
    return best


def _assign_case(n, k):
    return lambda rng: (assign, [rng.standard_normal((n, 3)), rng.standard_normal((k, 3))])


def _cluster_kl_case(rng):
    w, target = rng.uniform(0.1, 1.0, (2, 4, 3))
    target[0, 1] = 0.0   # a zero target entry contributes nothing
    return (lambda w: cluster_loss(w, target / target.sum(axis=1, keepdims=True)),
            [w / w.sum(axis=1, keepdims=True)])


# one row below K landmarks, and a single landmark, whose W is constant
ad.OP_REGISTRY["student_t_assign"] = _assign_case(5, 4)
ad.OP_REGISTRY["student_t_assign_one_row"] = _assign_case(1, 4)
ad.OP_REGISTRY["student_t_assign_one_landmark"] = _assign_case(5, 1)
ad.OP_REGISTRY["cluster_kl"] = _cluster_kl_case
