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


def hard_distortion(h: np.ndarray, u: np.ndarray, inverse: np.ndarray | None = None) -> float:
    """Sum of squared distances to the nearest landmark (the hard objective).

    With ``inverse``, ``h`` holds the distinct rows of the points
    ``h[inverse]`` (see ``_distinct_rows``): each distance is formed once per
    distinct row, and the minima are gathered to the points and summed over
    them in point order. That is the sum over the points themselves
    wherever BLAS rounds each row's product with ``u`` the same among the
    distinct rows as among the points; where it does not (a single row
    takes numpy's vector product), the two differ in the last bits."""
    nearest = pairwise_sq_distances(h, u).min(axis=1)
    if inverse is not None:
        nearest = np.take(nearest, inverse)
    return float(nearest.sum())


def _distinct_rows(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The bitwise-distinct rows of a C-contiguous n x d float64 array, and
    for each row the index of its distinct row, so that ``rows[inverse]``
    equals ``points`` byte for byte (-0.0 and 0.0 stay apart). One sort of
    the rows viewed as 8d-byte strings. The gathers through ``inverse`` pass
    ``mode="clip"`` to ``np.take``: every index is in range, and unlike the
    default mode it writes into ``out`` without a buffer."""
    keys = points.view(np.dtype((np.void, points.itemsize * points.shape[1]))).ravel()
    rows, inverse = np.unique(keys, return_inverse=True)
    return rows.view(np.float64).reshape(-1, points.shape[1]), inverse


def _kmeans_pp_seed(rows: np.ndarray, inverse: np.ndarray, k: int,
                    rng: np.random.Generator) -> tuple[np.ndarray, int]:
    """k-means++ seeds (Arthur & Vassilvitskii 2007) of the n points
    ``rows[inverse]``, and the number drawn before every point lay on one: a
    draw never repeats a point, so that is the points' count of distinct
    values when it is below k, and k otherwise.

    The squared distances to each new center are formed on the m distinct
    ``rows`` only, in one m x d and one m buffer kept for the whole call,
    with the same operations as ``((points - c) ** 2).sum(axis=1)``; the
    running minimum is then gathered to the n points, so every draw, total
    and count is that of the same steps over all n points."""
    n = len(inverse)
    centers = np.empty((k, rows.shape[1]))
    centers[0] = rows[inverse[rng.integers(n)]]
    diff = np.subtract(rows, centers[0])
    d2_rows = np.square(diff, out=diff).sum(axis=1)
    step = np.empty_like(d2_rows)
    d2 = np.take(d2_rows, inverse)
    drawn = k
    for i in range(1, k):
        total = d2.sum()
        if total <= 0:
            drawn = min(drawn, i)
            centers[i] = rows[inverse[rng.integers(n)]]
            continue
        centers[i] = rows[inverse[rng.choice(n, p=d2 / total)]]
        np.subtract(rows, centers[i], out=diff)
        np.square(diff, out=diff).sum(axis=1, out=step)
        np.minimum(d2_rows, step, out=d2_rows)
        np.take(d2_rows, inverse, out=d2, mode="clip")
    return centers, drawn


def _lloyd(rows: np.ndarray, inverse: np.ndarray, centers: np.ndarray, tol: float,
           max_iter: int) -> np.ndarray:
    """Lloyd iterations over the n points ``rows[inverse]`` from ``centers``
    until no center moves ``tol`` or more.

    The distances are (|p|^2 + |c|^2) - P (2C)'. Scaling by 2 is exact at
    every rounding step of the product, so P (2C)' and (2P) C' are both
    exactly 2 (P C'), and d2 is bit-for-bit that of the direct formula
    |p|^2 + |c|^2 - 2 P C'. They are formed on the m distinct ``rows`` only:
    the product is one BLAS call into the m x K part of the call's work
    buffer; the norms are added to it and it is subtracted from them a block
    of rows at a time, and each point takes its row's nearest center. The
    centroid sums are one bincount per column over all n points, gathered
    once per call into the buffer's n x d part (after the squared rows for
    the norms): each (center, column) bin adds its points in point order, as
    ``np.add.at`` does.

    The work buffer is an anonymous memory map, returned to the system when
    the call's arrays are gone. From malloc it would come from the arena of
    the pool thread that runs the call, and glibc keeps an arena's freed
    pages below its trim threshold for the rest of the process: each pool
    thread would hold an m x K array's worth of memory that nothing else
    can use.
    """
    (m, d), n, k = rows.shape, len(inverse), len(centers)
    work = np.frombuffer(mmap.mmap(-1, 8 * (m * k + n * d)), dtype=np.float64)
    d2 = work[:m * k].reshape(m, k)
    pp = np.square(rows, out=work[m * k:m * k + m * d].reshape(m, d)).sum(axis=1)
    columns = work[m * k:].reshape(d, n)
    for column, values in zip(columns, rows.T):
        np.take(values, inverse, out=column, mode="clip")
    block_rows = max(1, LLOYD_BLOCK // k)
    norms = np.empty((min(m, block_rows), k))
    sums = np.empty((k, d))
    nearest = np.empty(n, dtype=np.intp)
    for _ in range(max_iter):
        cc = (centers * centers).sum(axis=1)
        np.matmul(rows, (2.0 * centers).T, out=d2)
        for r in range(0, m, block_rows):
            block = d2[r:r + block_rows]
            np.subtract(np.add.outer(pp[r:r + block_rows], cc, out=norms[:len(block)]),
                        block, out=block)
        np.take(d2.argmin(axis=1), inverse, out=nearest, mode="clip")
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

    The bitwise-distinct embedding rows are found once per call. Seeding and
    Lloyd form every distance on them and gather it back to the rows, so
    each step's arithmetic per row, and hence the landmarks, are those of
    the same steps over all rows. So are the costs: each row's distance to
    its nearest landmark is gathered from its distinct row, then summed
    over all rows.

    Fewer than k distinct landmarks, or rows with fewer than k distinct
    values (as a seeding counts them), trigger a warning and a small jitter
    so the returned landmarks are usable as distinct parameters. Lloyd's
    mean of identical rows can land a unit in the last place off them, so
    such rows can leave landmarks that differ only by rounding.
    """
    points = np.ascontiguousarray(embeddings, dtype=np.float64)
    if points.ndim != 2 or len(points) < k or points.shape[1] < 1:
        raise ValueError(f"need at least {k} embedding rows, of at least one column, "
                         f"to seed {k} landmarks")
    rows, inverse = _distinct_rows(points)
    rng = np.random.default_rng(seed)
    runs = max(1, restarts)
    seeds = (_kmeans_pp_seed(rows, inverse, k, rng) for _ in range(runs))
    best, best_cost, distinct = None, np.inf, k
    for centers, drawn in _thread_map(
            lambda seed: (_lloyd(rows, inverse, seed[0], KMEANS_TOL, KMEANS_MAX_ITER),
                          seed[1]),
            seeds, runs):
        distinct = min(distinct, drawn)
        cost = hard_distortion(rows, centers, inverse)
        if cost < best_cost:
            best, best_cost = centers, cost
    distinct = min(distinct, len(np.unique(best, axis=0)))
    if distinct < k:
        warnings.warn(f"only {distinct} distinct landmarks of {k}; duplicates jittered",
                      stacklevel=2)
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
