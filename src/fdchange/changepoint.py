"""Change-point tests built on normalized CUSUM processes of projection scores.

For scores eta[i, j] the normalized partial sums are
``S_j(k) = eigenvalue_j^{-1/2} sum_{i<=k} eta[i, j]`` and the two-parameter
process aggregates bridge-squared deviations over a growing number of
components:

    Z(u, x) = d^{-1/2} sum_{j <= floor(d u)}
              { N^{-1} (S_j(floor(N x)) - x S_j(N))^2 - x (1 - x) }.

The integrated squared process is compared against the simulated limit law;
three companion statistics with standard normal limits and an argmax
change-point estimator share the same bridge arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr

from .curves import FunctionalSample
from .errors import (
    ConfigurationError,
    DegenerateDataError,
    DimensionError,
)
from .fpca import EigenSystem, ScoreMatrix, compute_scores, sample_eigensystem
from .limitdist import LimitLaw, bridge_sup_moments

__all__ = [
    "CusumMatrix",
    "ProcessGrid",
    "TestOutcome",
    "cusum_matrix",
    "sample_cusum",
    "z_process",
    "cvm2d_test",
    "corollary_tests",
    "estimate_changepoint",
    "SegmentNode",
    "SegmentationTree",
    "binary_segmentation",
]

COROLLARY_VARIANTS = ("sup-bridge", "cvm-sum", "sup-sum")


@dataclass(frozen=True, eq=False)
class CusumMatrix:
    """Normalized score partial sums, one row per component, columns k = 0..N."""

    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        if v.ndim != 2 or v.shape[1] < 2:
            raise ValueError("cusum values must be d x (N+1)")
        if np.any(v[:, 0] != 0.0):
            raise ValueError("cusum must start at zero")
        if float(np.max(np.abs(v[:, -1]))) > 1e-8:
            raise ValueError("cusum must return to zero at k = N (scores are centered)")

    @property
    def d(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[1] - 1


def cusum_matrix(scores: ScoreMatrix) -> CusumMatrix:
    """Cumulative score sums scaled by eigenvalue^{-1/2}."""
    n, d = scores.n, scores.d
    values = np.zeros((d, n + 1))
    values[:, 1:] = np.cumsum(scores.scores.T, axis=1) / np.sqrt(scores.eigenvalues)[:, None]
    return CusumMatrix(values)


def _bridge_squares(cusum_values: np.ndarray) -> np.ndarray:
    """V[j, k] = (S_j(k) - x_k S_j(N))^2 / N evaluated at x_k = k/N."""
    n = cusum_values.shape[1] - 1
    x = np.arange(n + 1) / n
    bridges = cusum_values - x[None, :] * cusum_values[:, -1][:, None]
    return bridges * bridges / n


def _braces(cusum_values: np.ndarray) -> np.ndarray:
    """Centered bridge squares: V[j, k] - x_k (1 - x_k)."""
    n = cusum_values.shape[1] - 1
    x = np.arange(n + 1) / n
    return _bridge_squares(cusum_values) - (x * (1.0 - x))[None, :]


def _cvm_stats_by_prefix(braces: np.ndarray) -> np.ndarray:
    """Integrated squared process for every prefix dimension d = 1..d_max.

    The process is a step function, constant on cells of mass 1/(dN); its
    squared integral is therefore an exact double sum.  In the u direction
    the cell starting at u = i/d carries the prefix over components 1..i, so
    only prefixes 1..d-1 contribute (the i = 0 prefix vanishes identically
    and u = 1 has measure zero).  In the x direction both endpoint columns
    are exactly zero, so the interior columns carry the whole sum.
    """
    n = braces.shape[1] - 1
    prefix = np.cumsum(braces, axis=0)
    q = (prefix * prefix).sum(axis=1) / n
    cum_q = np.cumsum(q)
    d = np.arange(1, braces.shape[0] + 1)
    return np.concatenate([[0.0], cum_q[:-1]]) / d**2


def _estimator_curve(braces: np.ndarray) -> np.ndarray:
    """I(l) for l = 1..N: mean over inner prefixes of squared brace sums."""
    d = braces.shape[0]
    prefix = np.cumsum(braces, axis=0)[: d - 1]
    return (prefix * prefix).sum(axis=0)[1:] / d**2


@dataclass(frozen=True, eq=False)
class ProcessGrid:
    """Z(u, x) evaluated at u = j/d (j = 1..d) and x = k/N (k = 0..N)."""

    d: int
    n: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        if v.shape != (self.d, self.n + 1):
            raise ValueError(f"process grid must be {self.d} x {self.n + 1}, got {v.shape}")
        if float(np.max(np.abs(v[:, [0, -1]]))) != 0.0:
            raise ValueError("process must vanish at x = 0 and x = 1")


def z_process(cusum: CusumMatrix) -> ProcessGrid:
    """The two-parameter process on its natural step grid."""
    braces = _braces(cusum.values)
    values = np.cumsum(braces, axis=0) / np.sqrt(cusum.d)
    values[:, 0] = 0.0
    values[:, -1] = 0.0  # exact: the bridge and x(1-x) both vanish there
    return ProcessGrid(d=cusum.d, n=cusum.n, values=values)


@dataclass(frozen=True)
class TestOutcome:
    """Result of one hypothesis test."""

    method: str
    statistic: float
    p_value: float
    d: int
    diagnostics: dict

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_value <= 1.0:
            raise ValueError(f"p-value {self.p_value} outside [0, 1]")


def sample_cusum(sample: FunctionalSample, d: int) -> tuple[EigenSystem, CusumMatrix]:
    """Leading ``d`` components of ``sample`` and the CUSUM of their scores.

    Raises :class:`DegenerateDataError` when fewer than ``d`` survive the floor.
    """
    if d < 1:
        raise ConfigurationError(f"d must be >= 1, got {d}")
    eig = sample_eigensystem(sample, d)
    if eig.d == 0:
        raise DegenerateDataError(
            "degenerate covariance: no components above the eigenvalue floor"
        )
    if eig.d < d:
        raise DimensionError(
            f"requested d={d} but only {eig.d} components are retained above the floor"
        )
    return eig, cusum_matrix(compute_scores(sample, eig, d))


def _diagnostics(eig) -> dict:
    return {
        "eigenvalues": eig.eigenvalues.copy(),
        "spacings": eig.spacings.copy(),
        "truncated": eig.truncated,
    }


def cvm2d_test(sample: FunctionalSample, d: int, law: LimitLaw) -> TestOutcome:
    """Cramer-von Mises type test: integrated squared Z against the limit law."""
    eig, cusum = sample_cusum(sample, d)
    stat = float(_cvm_stats_by_prefix(_braces(cusum.values))[d - 1])
    return TestOutcome(
        method="cvm2d",
        statistic=stat,
        p_value=law.p_value(stat),
        d=d,
        diagnostics=_diagnostics(eig),
    )


def _corollary_statistic(variant: str, bridge_sq: np.ndarray, d: int) -> float:
    n = bridge_sq.shape[1] - 1
    if variant == "sup-bridge":
        mu0, sigma0 = bridge_sup_moments(n)
        total = bridge_sq[:d].max(axis=1).sum()
        return float((total - d * mu0) / (np.sqrt(d) * sigma0))
    if variant == "cvm-sum":
        integrals = bridge_sq[:d, :-1].sum(axis=1) / n
        return float((integrals.sum() - d / 6.0) / np.sqrt(d / 45.0))
    if variant == "sup-sum":
        peak = bridge_sq[:d].sum(axis=0).max()
        return float((peak - d / 4.0) / np.sqrt(d / 8.0))
    raise ConfigurationError(f"unknown corollary variant {variant!r}")


def corollary_tests(cusum: CusumMatrix, variant: str) -> TestOutcome:
    """Normal-limit companions: per-component sup, integrated square, joint sup.

    ``sup-bridge`` standardizes the sum of per-component maxima by the
    closed-form mean and sd of a squared Brownian bridge's maximum over the
    N + 1 points of the CUSUM; ``cvm-sum`` and ``sup-sum`` use their exact
    null means and variances. None of the three draws anything.
    One-sided: large values reject, p = P(N(0,1) > statistic).
    """
    bridge_sq = _bridge_squares(cusum.values)
    stat = _corollary_statistic(variant, bridge_sq, cusum.d)
    return TestOutcome(
        method=variant,
        statistic=stat,
        p_value=float(ndtr(-stat)),
        d=cusum.d,
        diagnostics={},
    )


def estimate_changepoint(cusum: CusumMatrix) -> int:
    """Smallest maximizer of the aggregated squared-brace curve, in 1..N.

    The returned value is the estimated length of the pre-change prefix.
    Needs d >= 2: the aggregation runs over strict prefixes of components.
    """
    if cusum.d < 2:
        raise DimensionError(f"change-point estimation needs d >= 2, got d={cusum.d}")
    curve = _estimator_curve(_braces(cusum.values))
    return int(np.argmax(curve)) + 1


@dataclass(eq=False)
class SegmentNode:
    """One segment examined during binary segmentation (indices inclusive)."""

    lo: int
    hi: int
    status: str  # "rejected" | "retained" | "too-short" | "degenerate"
    p_values: dict[int, float]
    change_after: int | None = None
    split_d: int | None = None
    children: tuple["SegmentNode", ...] = ()

    @property
    def length(self) -> int:
        return self.hi - self.lo + 1


@dataclass(frozen=True, eq=False)
class SegmentationTree:
    """Binary segmentation result over a functional sample."""

    n: int
    d_list: tuple[int, ...]
    alpha: float
    min_segment: int
    root: SegmentNode

    def nodes(self) -> list[SegmentNode]:
        """Depth-first preorder (parents before children, left before right)."""
        out: list[SegmentNode] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            out.append(node)
            stack.extend(reversed(node.children))
        return out

    def change_points(self) -> list[int]:
        """Sorted indices g such that a change is placed between g and g+1."""
        return sorted(
            node.change_after for node in self.nodes() if node.change_after is not None
        )

    def rows(self) -> list[dict]:
        """Tabular report: one row per examined segment, preorder."""
        out = []
        for it, node in enumerate(self.nodes(), start=1):
            row: dict = {
                "iteration": it,
                "lo": node.lo,
                "hi": node.hi,
                "length": node.length,
                "status": node.status,
                "change_after": node.change_after,
                "split_d": node.split_d,
            }
            for d in self.d_list:
                row[f"p_d{d}"] = node.p_values.get(d)
            out.append(row)
        return out

    def to_dict(self) -> dict:
        def encode(node: SegmentNode) -> dict:
            return {
                "lo": node.lo,
                "hi": node.hi,
                "status": node.status,
                "p_values": {str(d): p for d, p in node.p_values.items()},
                "change_after": node.change_after,
                "split_d": node.split_d,
                "children": [encode(c) for c in node.children],
            }

        return {
            "n": self.n,
            "d_list": list(self.d_list),
            "alpha": self.alpha,
            "min_segment": self.min_segment,
            "change_points": self.change_points(),
            "root": encode(self.root),
        }


def binary_segmentation(
    sample: FunctionalSample,
    d_list: tuple[int, ...] | list[int],
    alpha: float,
    law: LimitLaw,
    min_segment: int = 8,
) -> SegmentationTree:
    """Recursive change-point search; each segment gets a fresh decomposition.

    A segment is tested with every d in ``d_list`` that it can support
    (d + 2 < segment length and d components above the eigenvalue floor);
    if any test rejects at ``alpha``, the split point is estimated with the
    first rejecting d and both halves are recursed into.
    """
    d_tuple = tuple(int(d) for d in d_list)
    if not d_tuple:
        raise ConfigurationError("d_list must not be empty")
    if min(d_tuple) < 2:
        raise ConfigurationError("segmentation requires every d >= 2")
    if not 0.0 < alpha < 1.0:
        raise ConfigurationError(f"alpha must be in (0, 1), got {alpha}")
    if min_segment < 8:
        raise ConfigurationError(f"min_segment must be >= 8, got {min_segment}")

    def examine(lo: int, hi: int) -> SegmentNode:
        length = hi - lo + 1
        if length < min_segment:
            return SegmentNode(lo, hi, "too-short", {})
        segment = sample.rows(lo, hi)
        usable = [d for d in d_tuple if d + 2 < length]
        if not usable:
            return SegmentNode(lo, hi, "too-short", {})
        try:
            eig = sample_eigensystem(segment, max(usable))
        except DegenerateDataError:
            return SegmentNode(lo, hi, "degenerate", {})
        if eig.d == 0:
            return SegmentNode(lo, hi, "degenerate", {})
        usable = [d for d in usable if d <= eig.d]
        if not usable:
            return SegmentNode(lo, hi, "degenerate", {})
        scores = compute_scores(segment, eig, max(usable))
        cusum = cusum_matrix(scores)
        braces = _braces(cusum.values)
        stats = _cvm_stats_by_prefix(braces)
        p_values = {d: law.p_value(float(stats[d - 1])) for d in usable}
        rejecting = [d for d in usable if p_values[d] < alpha]
        if not rejecting:
            return SegmentNode(lo, hi, "retained", p_values)
        split_d = rejecting[0]
        theta = estimate_changepoint(CusumMatrix(cusum.values[:split_d]))
        theta = min(theta, length - 1)  # keep both children nonempty
        change_after = lo + theta - 1
        children = (examine(lo, change_after), examine(change_after + 1, hi))
        return SegmentNode(
            lo, hi, "rejected", p_values, change_after, split_d, children
        )

    root = examine(0, sample.n_curves - 1)
    return SegmentationTree(
        n=sample.n_curves,
        d_list=d_tuple,
        alpha=alpha,
        min_segment=min_segment,
        root=root,
    )
