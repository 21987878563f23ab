"""Structural landmarks: Student-t soft assignment, sharpened targets, and
the self-training KL loss, plus the k-means initializer.

The K landmark vectors are free parameters after initialization; the Student-t
kernel makes the assignment differentiable with respect to both embeddings and
landmarks. The sharpened target is always treated as a constant: no gradient
flows through it.
"""
from __future__ import annotations

import mmap
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from typing import Iterable

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

# Lloyd's iterations stop when no center moves this far, or after this many
KMEANS_TOL = 1e-6
KMEANS_MAX_ITER = 100
# entries of the n x K distances that a Lloyd step finishes per block of rows
LLOYD_BLOCK = 1 << 15


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
    """k-means++ seeds (Arthur & Vassilvitskii 2007). The squared distances
    to each new center are formed in one n x d and one n buffer kept for the
    whole call, with the same operations as ``((points - c) ** 2).sum(axis=1)``."""
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(len(points))]
    diff = np.subtract(points, centers[0])
    d2 = np.square(diff, out=diff).sum(axis=1)
    step = np.empty_like(d2)
    for i in range(1, k):
        total = d2.sum()
        if total <= 0:
            centers[i] = points[rng.integers(len(points))]
            continue
        centers[i] = points[rng.choice(len(points), p=d2 / total)]
        np.subtract(points, centers[i], out=diff)
        np.square(diff, out=diff).sum(axis=1, out=step)
        np.minimum(d2, step, out=d2)
    return centers


def _lloyd(points: np.ndarray, centers: np.ndarray, tol: float, max_iter: int) -> np.ndarray:
    """Lloyd iterations from ``centers`` until no center moves ``tol`` or more.

    The distances are (|p|^2 + |c|^2) - P (2C)'. Scaling by 2 is exact at
    every rounding step of the product, so P (2C)' and (2P) C' are both
    exactly 2 (P C'), and d2 is bit-for-bit that of the direct formula
    |p|^2 + |c|^2 - 2 P C'. The product is one BLAS call into the n x K
    part of the call's work buffer; the norms are added to it and it is
    subtracted from them a block of rows at a time. The centroid sums are
    one bincount per column over a transposed copy of the points, made once
    per call in the buffer's n x d part (after the squared points for the
    norms): each (center, column) bin adds its rows in row order, as
    ``np.add.at`` does.

    The work buffer is an anonymous memory map, returned to the system when
    the call's arrays are gone. From malloc it would come from the arena of
    the pool thread that runs the call, and glibc keeps an arena's freed
    pages below its trim threshold for the rest of the process: each pool
    thread would hold an n x K array's worth of memory that nothing else
    can use.
    """
    (n, d), k = points.shape, len(centers)
    work = np.frombuffer(mmap.mmap(-1, 8 * n * (k + d)), dtype=np.float64)
    d2 = work[:n * k].reshape(n, k)
    pp = np.square(points, out=work[n * k:].reshape(n, d)).sum(axis=1)
    columns = work[n * k:].reshape(d, n)
    columns[...] = points.T
    rows = max(1, LLOYD_BLOCK // k)
    norms = np.empty((min(n, rows), k))
    sums = np.empty((k, d))
    for _ in range(max_iter):
        cc = (centers * centers).sum(axis=1)
        np.matmul(points, (2.0 * centers).T, out=d2)
        for r in range(0, n, rows):
            block = d2[r:r + rows]
            np.subtract(np.add.outer(pp[r:r + rows], cc, out=norms[:len(block)]), block,
                        out=block)
        nearest = d2.argmin(axis=1)
        for j, column in enumerate(columns):
            sums[:, j] = np.bincount(nearest, weights=column, minlength=k)
        new = centers.copy()
        sizes = np.bincount(nearest, minlength=k)
        occupied = sizes > 0
        new[occupied] = sums[occupied] / sizes[occupied, None]
        shift = np.linalg.norm(new - centers, axis=1).max()
        centers = new
        if shift < tol:
            break
    return centers


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # no affinity query on this platform
        return os.cpu_count() or 1


def _thread_map(fn, tasks: Iterable, count: int) -> list:
    """``[fn(task) for task in tasks]`` over ``count`` tasks, run on a pool
    of ``min(count, usable CPUs)`` threads that lives only inside this call.

    ``tasks`` is drawn on the calling thread, each task handed to the pool
    as it is drawn, so a generator's work overlaps the tasks already
    running. The results come back in task order, and the first failure is
    raised after every thread has ended. The tracer keeps one span stack
    for the process, so ``fn`` and what it calls must be private functions:
    numpy releases the GIL in their array work, and nothing there is wrapped.
    No pool is made for no tasks.
    """
    if not count:
        return []
    with ThreadPoolExecutor(max_workers=min(count, _usable_cpus())) as pool:
        return list(pool.map(fn, tasks))


def init_landmarks(embeddings: np.ndarray, k: int, seed: int,
                   restarts: int = 4) -> np.ndarray:
    """k-means++ seeding followed by Lloyd iterations; best of ``restarts`` runs.

    The calling thread draws every restart's seeds from one generator, in
    restart order, and ``_thread_map`` runs each seeded Lloyd run on its
    pool as soon as it is seeded. The calling thread then scores the runs
    in restart order and keeps the first of the lowest costs, so the
    landmarks are the same for any CPU count.

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
    runs = max(1, restarts)
    seeds = (_kmeans_pp_seed(points, k, rng) for _ in range(runs))
    best, best_cost = None, np.inf
    for centers in _thread_map(lambda c: _lloyd(points, c, KMEANS_TOL, KMEANS_MAX_ITER),
                               seeds, runs):
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
