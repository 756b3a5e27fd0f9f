"""Change-point tests built on normalized CUSUM processes of projection scores.

For scores eta[i, j] the normalized partial sums are
``S_j(k) = eigenvalue_j^{-1/2} sum_{i<=k} eta[i, j]`` and the two-parameter
process aggregates bridge-squared deviations over a growing number of
components:

    Z(u, x) = d^{-1/2} sum_{j <= floor(d u)}
              { N^{-1} (S_j(floor(N x)) - x S_j(N))^2 - x (1 - x) }.

The integrated squared process is compared against the simulated limit law;
three companion statistics with standard normal limits and an argmax
change-point estimator share the same bridge arrays. ``_statistics`` turns a
method name and a list of d into statistics for every caller.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .curves import FunctionalSample
from .errors import ConfigurationError, DegenerateDataError
from .fpca import EigenSystem, ScoreMatrix, compute_scores, sample_eigensystem
from .limitdist import LimitLaw, bridge_sup_moments, normal_p_value

__all__ = [
    "CusumMatrix",
    "TestOutcome",
    "cusum_matrix",
    "sample_cusum",
    "cvm2d_test",
    "corollary_tests",
    "estimate_changepoint",
    "SegmentNode",
    "SegmentationTree",
    "binary_segmentation",
]

COROLLARY_VARIANTS = ("sup-bridge", "cvm-sum", "sup-sum")
#: Every change-point test: the limit-law one and its normal-limit companions.
CHANGEPOINT_TESTS = ("cvm2d",) + COROLLARY_VARIANTS
#: How ``_require_cvm2d_d`` names the change-point estimator in its error.
ESTIMATOR = "change-point estimation"


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

    Raises the error of ``fpca._require_components`` when fewer than ``d``
    components survive the floor.
    """
    eig = sample_eigensystem(sample, d)
    return eig, cusum_matrix(compute_scores(sample, eig, d))


def _require_cvm2d_d(d_values, name: str = "d", what: str = "cvm2d") -> None:
    """Reject any d below 2 for ``what``, calling it ``name`` in the error.

    The cvm2d statistic and the change-point estimator both sum over strict
    prefixes of the components, so at d = 1 they are 0 by construction: the
    test could never reject and the estimator would have no curve to maximize.
    """
    low = min(d_values)
    if low < 2:
        raise ConfigurationError(f"{what} needs {name} >= 2, got {low}")


def cvm2d_test(eig: EigenSystem, cusum: CusumMatrix, law: LimitLaw) -> TestOutcome:
    """Cramer-von Mises type test: integrated squared Z against the limit law.

    ``eig`` and ``cusum`` are the pair ``sample_cusum`` returns; ``cusum``
    needs d >= 2.
    """
    _require_cvm2d_d([cusum.d])
    stat = float(_statistics(cusum.values, "cvm2d", [cusum.d])[0])
    return TestOutcome(
        method="cvm2d",
        statistic=stat,
        p_value=law.p_value(stat),
        d=cusum.d,
        diagnostics={
            "eigenvalues": eig.eigenvalues.copy(),
            "spacings": eig.spacings.copy(),
            "truncated": eig.truncated,
        },
    )


def _corollary_statistic(variant: str, bridge_sq: np.ndarray, d: int) -> float:
    """One of ``COROLLARY_VARIANTS``; callers reject any other name."""
    n = bridge_sq.shape[1] - 1
    if variant == "sup-bridge":
        mu0, sigma0 = bridge_sup_moments(n)
        total = bridge_sq[:d].max(axis=1).sum()
        return float((total - d * mu0) / (np.sqrt(d) * sigma0))
    if variant == "cvm-sum":
        integrals = bridge_sq[:d, :-1].sum(axis=1) / n
        return float((integrals.sum() - d / 6.0) / np.sqrt(d / 45.0))
    peak = bridge_sq[:d].sum(axis=0).max()  # sup-sum
    return float((peak - d / 4.0) / np.sqrt(d / 8.0))


def _statistics(cusum_values: np.ndarray, method: str, d_list) -> np.ndarray:
    """The ``method`` statistic at each d of ``d_list`` from the leading CUSUM rows."""
    if method == "cvm2d":
        return _cvm_stats_by_prefix(_braces(cusum_values))[[d - 1 for d in d_list]]
    bridge_sq = _bridge_squares(cusum_values)
    return np.array([_corollary_statistic(method, bridge_sq, d) for d in d_list])


def corollary_tests(cusum: CusumMatrix, variant: str) -> TestOutcome:
    """Normal-limit companions: per-component sup, integrated square, joint sup.

    ``sup-bridge`` standardizes the sum of per-component maxima by the
    closed-form mean and sd of a squared Brownian bridge's maximum over the
    N + 1 points of the CUSUM; ``cvm-sum`` and ``sup-sum`` use their exact
    null means and variances. None of the three draws anything.
    One-sided: large values reject, p = P(N(0,1) > statistic).
    """
    if variant not in COROLLARY_VARIANTS:
        raise ConfigurationError(f"unknown corollary variant {variant!r}")
    stat = float(_statistics(cusum.values, variant, [cusum.d])[0])
    return TestOutcome(
        method=variant,
        statistic=stat,
        p_value=normal_p_value(stat),
        d=cusum.d,
        diagnostics={},
    )


def estimate_changepoint(cusum: CusumMatrix) -> int:
    """Smallest maximizer of the aggregated squared-brace curve, in 1..N.

    The returned value is the estimated length of the pre-change prefix.
    Needs d >= 2: the aggregation runs over strict prefixes of components.
    """
    _require_cvm2d_d([cusum.d], what=ESTIMATOR)
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


def _segmentation_d_list(
    d_list, alpha: float, min_segment: int, name: str = "every d_list entry"
) -> tuple[int, ...]:
    """``d_list`` as a tuple, once the settings of ``binary_segmentation`` pass its
    checks; segmentation is cvm2d at every d, so ``name`` goes to ``_require_cvm2d_d``."""
    d_tuple = tuple(int(d) for d in d_list)
    if not d_tuple:
        raise ConfigurationError("d_list must not be empty")
    _require_cvm2d_d(d_tuple, name)
    if not 0.0 < alpha < 1.0:
        raise ConfigurationError(f"alpha must be in (0, 1), got {alpha}")
    if min_segment < 8:
        raise ConfigurationError(f"min_segment must be >= 8, got {min_segment}")
    return d_tuple


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
    d_tuple = _segmentation_d_list(d_list, alpha, min_segment)

    def examine(lo: int, hi: int) -> SegmentNode:
        length = hi - lo + 1
        usable = [d for d in d_tuple if d + 2 < length]
        if length < min_segment or not usable:
            return SegmentNode(lo, hi, "too-short", {})
        segment = sample.rows(lo, hi)
        try:
            eig = sample_eigensystem(segment, max(usable))
        except DegenerateDataError:
            return SegmentNode(lo, hi, "degenerate", {})
        usable = [d for d in usable if d <= eig.d]
        if not usable:
            return SegmentNode(lo, hi, "degenerate", {})
        cusum = cusum_matrix(compute_scores(segment, eig, max(usable)))
        stats = _statistics(cusum.values, "cvm2d", usable)
        p_values = dict(zip(usable, law.p_value(stats).tolist()))
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
