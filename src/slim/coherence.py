"""Dictionary-coherence analysis of landmark sets.

Mutual coherence measures landmark redundancy; the support-recovery bound
turns it into the largest sparsity level that sparse coding can provably
recover. The analytic lower bound ties the squared coherence of
clustering-derived landmarks to the dictionary size K, with dimension
constants built from the unit-ball volume. The empirical sweep estimates the
same trend on synthetic Gaussian mixtures via k-means landmarks.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .landmarks import init_landmarks, pairwise_sq_distances

ARC_RADIUS = 3.0            # of the quarter arc holding default_2d's centers
C_P_GRID_PAD = 4.0          # C_p grid margin around the centers, in mixture scales
SWEEP_KMEANS_RESTARTS = 2   # k-means restarts per cell of the empirical sweep


def mutual_coherence(u: np.ndarray) -> float:
    """Largest absolute normalized correlation between two distinct landmarks."""
    u = np.asarray(u, dtype=np.float64)
    if u.ndim != 2 or u.shape[0] < 2:
        raise ValueError("mutual coherence needs at least two landmark vectors")
    norms = np.linalg.norm(u, axis=1)
    zero = np.flatnonzero(norms == 0)
    if len(zero):
        raise ArithmeticError(f"landmark {int(zero[0])} has zero norm")
    gram = np.abs((u / norms[:, None]) @ (u / norms[:, None]).T)
    np.fill_diagonal(gram, 0.0)
    return float(min(gram.max(), 1.0))


def recovery_support_bound(mu: float) -> float:
    """Largest sparsity with guaranteed support recovery: (1 + 1/mu) / 2."""
    if mu < 0 or mu > 1:
        raise ValueError("coherence must lie in [0, 1]")
    if mu == 0:
        return math.inf
    return 0.5 * (1.0 + 1.0 / mu)


def unit_ball_volume(d: int) -> float:
    """Volume of the d-dimensional unit ball, 2 Gamma(1/2)^d / (d Gamma(d/2))."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    try:
        return 2.0 * math.pi ** (d / 2.0) / (d * math.gamma(d / 2.0))
    except OverflowError:
        return math.exp(
            math.log(2.0) + (d / 2.0) * math.log(math.pi) - math.log(d) - math.lgamma(d / 2.0)
        )


@dataclass(frozen=True)
class BoundParams:
    """Inputs of the analytic coherence bound; derived constants as properties."""

    d: int
    k: int
    u_max: float
    c_p: float

    def __post_init__(self):
        bound_from_ratio(self.d, self.k, 0.0)   # refuses d < 2 and K < 2
        if self.u_max <= 0:
            raise ValueError("u_max must be positive")

    @property
    def v_d(self) -> float:
        return unit_ball_volume(self.d)

    @property
    def gamma_d(self) -> float:
        return 1.0 + self.d * math.log(self.d * math.log(self.d))

    @property
    def c_d(self) -> float:
        return 1.5 * (1.0 + math.log(self.d) / self.d) * self.gamma_d * self.v_d

    @property
    def ratio(self) -> float:
        """The combined factor C_d * C_p / u_max^2."""
        return self.c_d * self.c_p / (self.u_max**2)


def bound_from_ratio(d: int, k: int, ratio: float) -> float:
    """Lower bound on squared coherence given the combined constant factor.

    1 - (4 * ratio / K^(1/d)) * (1/floor((K/2)^(1/d)) + 1). May be negative
    (vacuous) for small K; returned as-is.
    """
    if d < 2:
        raise ValueError("bound requires dimension >= 2")
    if k < 2:
        raise ValueError("bound requires K >= 2")
    if not (math.isfinite(ratio) and ratio >= 0):
        raise ValueError("cdcp_over_umax2 must be finite and non-negative")
    shells = math.floor((k / 2.0) ** (1.0 / d))
    return 1.0 - (4.0 * ratio / k ** (1.0 / d)) * (1.0 / shells + 1.0)


def theorem_lower_bound(bp: BoundParams) -> float:
    """Analytic lower bound on the squared mutual coherence of K landmarks."""
    return bound_from_ratio(bp.d, bp.k, bp.ratio)


@dataclass(frozen=True)
class BoundConfig:
    """The options of ``slim coherence-bound``, checked by ``bound_from_ratio``."""

    d: int = 2
    K: int = 8
    cdcp_over_umax2: float = 1.0

    def __post_init__(self):
        self.bound()

    def bound(self) -> float:
        return bound_from_ratio(self.d, self.K, self.cdcp_over_umax2)


def distortion(h: np.ndarray, u: np.ndarray) -> float:
    """Mean euclidean distance (not squared) to the nearest landmark."""
    h = np.atleast_2d(np.asarray(h, dtype=np.float64))
    u = np.atleast_2d(np.asarray(u, dtype=np.float64))
    return float(np.sqrt(pairwise_sq_distances(h, u)).min(axis=1).mean())


# ---------------------------------------------------------------------------
# synthetic sweep


def parse_int_list(text: str) -> tuple[int, ...]:
    """The integers of a comma-separated list; empty entries are skipped."""
    try:
        values = tuple(int(v) for v in text.split(",") if v.strip())
    except ValueError as exc:
        raise ValueError(f"expected comma-separated integers, got {text!r}") from exc
    if not values:
        raise ValueError("expected at least one integer")
    return values


def distinct_ks(k_values) -> list[int]:
    """The K values a sweep runs, each once, ascending; warns if some K repeats."""
    ks = sorted(set(int(k) for k in k_values))
    if len(ks) < len(k_values):
        warnings.warn("duplicate K values removed from sweep", stacklevel=3)
    return ks


def check_points(k_values, points: int):
    """Refuses a sweep whose draws of ``points`` points cannot seat its largest K."""
    if max(k_values) > points:
        raise ValueError(f"points per draw ({points}) must be at least the largest K "
                         f"({max(k_values)})")


@dataclass(frozen=True)
class SweepConfig:
    """The options of ``slim coherence``, each checked alone; ``ks`` may be
    given as a comma-separated list. That ``points`` covers the largest K is
    a check across fields, ``check_points``, left to the caller."""

    seed: int = 0
    ks: tuple[int, ...] | str = "2,4,8,16,32,64,128,256"
    seeds: int = 10
    components: int = 4
    scale: float = 0.5
    points: int = 1024

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if isinstance(self.ks, str):
            object.__setattr__(self, "ks", parse_int_list(self.ks))
        if min(self.ks, default=0) < 1 or len({k for k in self.ks if k >= 2}) < 2:
            raise ValueError("the sweep needs K >= 1 and at least two distinct K >= 2")
        for name in ("seeds", "components"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise ValueError("scale must be finite and positive")


@dataclass(frozen=True)
class GaussianMixture:
    """Isotropic Gaussian mixture used as the synthetic landmark population."""

    means: np.ndarray          # m x d component centers
    scale: float = 0.5         # shared isotropic standard deviation
    points: int = 1024         # points per draw

    @staticmethod
    def default_2d(components: int = 4, scale: float = 0.5,
                   points: int = 1024) -> "GaussianMixture":
        # components sit on a quarter arc so landmark directions are spread
        # but not antipodal: small dictionaries can be incoherent, crowded
        # ones cannot
        angles = 0.5 * math.pi * (np.arange(components) + 0.5) / components
        means = ARC_RADIUS * np.stack([np.cos(angles), np.sin(angles)], axis=1)
        return GaussianMixture(means=means, scale=scale, points=points)

    @property
    def d(self) -> int:
        return self.means.shape[1]

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        comp = rng.integers(0, len(self.means), self.points)
        return self.means[comp] + rng.normal(scale=self.scale, size=(self.points, self.d))

    def density(self, z: np.ndarray) -> np.ndarray:
        z = np.atleast_2d(z)
        norm = (2.0 * math.pi * self.scale**2) ** (self.d / 2.0)
        d2 = ((z[:, None, :] - self.means[None, :, :]) ** 2).sum(axis=2)
        return np.exp(-d2 / (2.0 * self.scale**2)).mean(axis=1) / norm

    def estimate_c_p(self, grid_points: int = 200) -> float:
        """Numerically integrate density^(d/(d+1)) on a grid (d <= 3 only)."""
        if self.d > 3:
            raise ValueError("grid estimation of C_p is limited to d <= 3")
        lo = self.means.min(axis=0) - C_P_GRID_PAD * self.scale - 1.0
        hi = self.means.max(axis=0) + C_P_GRID_PAD * self.scale + 1.0
        axes = [np.linspace(lo[i], hi[i], grid_points) for i in range(self.d)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.reshape(-1) for m in mesh], axis=1)
        cell = np.prod([(ax[1] - ax[0]) for ax in axes])
        integral = float((self.density(pts) ** (self.d / (self.d + 1.0))).sum() * cell)
        return integral ** ((self.d + 1.0) / self.d)


@dataclass(frozen=True)
class SweepCell:
    k: int
    seed: int
    coherence: float | None   # None when K == 1 (undefined)
    distortion: float
    bound: float | None


def empirical_coherence_sweep(generator: GaussianMixture, k_values: list[int],
                              seeds: list[int]) -> list[SweepCell]:
    """k-means landmarks on fresh mixture draws, one cell per (K, seed), for
    each distinct K in ascending order (``distinct_ks``)."""
    k_values = distinct_ks(k_values)
    check_points(k_values, generator.points)
    c_p = generator.estimate_c_p() if generator.d <= 3 else None
    cells = []
    for k in k_values:
        for seed in seeds:
            rng = np.random.default_rng(seed)
            data = generator.sample(rng)
            u = init_landmarks(data, k, seed, restarts=SWEEP_KMEANS_RESTARTS)
            coh = mutual_coherence(u) if k >= 2 else None
            bound = None
            if k >= 2 and c_p is not None:
                bp = BoundParams(d=generator.d, k=k,
                                 u_max=float(np.linalg.norm(u, axis=1).max()),
                                 c_p=c_p)
                bound = theorem_lower_bound(bp)
            cells.append(SweepCell(k=k, seed=seed, coherence=coh,
                                   distortion=distortion(data, u), bound=bound))
    return cells


def sweep_summary(cells: list[SweepCell]):
    """Per-K mean coherence and distortion over seeds; skips undefined cells."""
    ks = sorted(set(c.k for c in cells))
    rows = []
    for k in ks:
        group = [c for c in cells if c.k == k]
        cohs = [c.coherence for c in group if c.coherence is not None]
        rows.append({
            "k": k,
            "mean_coherence": float(np.mean(cohs)) if cohs else None,
            "mean_distortion": float(np.mean([c.distortion for c in group])),
        })
    return rows


def spearman(x, y) -> float:
    """Spearman rank correlation with average ranks for ties."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if len(x) != len(y) or len(x) < 2:
        raise ValueError("spearman needs two equal-length sequences of >= 2 values")

    def ranks(v):
        order = np.argsort(v, kind="stable")
        r = np.empty(len(v))
        r[order] = np.arange(1, len(v) + 1, dtype=np.float64)
        for val in np.unique(v):
            mask = v == val
            if mask.sum() > 1:
                r[mask] = r[mask].mean()
        return r

    rx, ry = ranks(x), ranks(y)
    rx -= rx.mean()
    ry -= ry.mean()
    denom = math.sqrt(float((rx * rx).sum() * (ry * ry).sum()))
    if denom == 0:
        return 0.0
    return float((rx * ry).sum() / denom)
