"""The limit distribution of the two-parameter CUSUM functional.

Under the null, the integrated squared process converges to
``sum_{k,l} lambda_k nu_l N_{k,l}^2`` where the ``N_{k,l}`` are independent
standard normals, ``lambda_k = (pi (k - 1/2))^{-2}`` are the eigenvalues of
the Wiener covariance min(t, s), and ``nu_l`` are the eigenvalues of the
kernel ``2 (min(t, s) - t s)^2`` (the covariance of a squared Brownian
bridge). ``simulate_tld`` samples that law from its truncated double series;
the tests check it against an independent Gaussian-sheet sampler
(``tests/_references.py``).

The ``nu_l`` are those of the kernel's Nystrom discretization on a fixed
1000-point grid, which never change, so they are stored, not recomputed:
``_NYSTROM_TABLE`` at the end of the module holds the 250 leading ones, and
``bridge_sq_kernel_eigenvalues`` serves every law from it. Any other grid,
or the whole discretized spectrum, is an eigenvalue-only solve of the
symmetric matrix W^{1/2} K W^{1/2} (K the kernel on the grid, W its
trapezoid weights), as ``demos/01_limit_law.py`` shows;
``test_limitdist.TestNystromTable`` checks the table against that solve.

It also gives the mean and sd of the maximum of a squared Brownian bridge on
a grid, in closed form, for the ``sup-bridge`` normal-limit test, and the
upper-tail p-value ``normal_p_value`` of every test with a standard normal
limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from ._parallel import run_replicates
from ._rng import _seed_sequence, replicate_rngs
from .curves import _frozen
from .errors import ConfigurationError, ResolutionError

__all__ = [
    "wiener_eigenvalues",
    "bridge_sq_kernel_eigenvalues",
    "MAX_TRUNCATION",
    "LimitLaw",
    "normal_p_value",
    "simulate_tld",
    "bridge_sup_moments",
]

STANDARD_ALPHAS = (0.01, 0.05, 0.10)

#: Fewest Monte Carlo draws the sampler accepts.
MIN_REPS = 100

#: Grid points of the Nystrom discretization of the bridge-square kernel.
NYSTROM_POINTS = 1000

#: Largest truncation of the simulated law: the eigenvalues a Nystrom grid
#: resolves individually, a quarter of it, all stored in ``_NYSTROM_TABLE``.
MAX_TRUNCATION = NYSTROM_POINTS // 4


def wiener_eigenvalues(count: int) -> np.ndarray:
    """Eigenvalues (pi (k - 1/2))^{-2} of the covariance min(t, s); sum -> 1/2."""
    if count < 1:
        raise ConfigurationError(f"count must be >= 1, got {count}")
    k = np.arange(1, count + 1)
    return 1.0 / (np.pi * (k - 0.5)) ** 2


def bridge_sq_kernel_eigenvalues(count: int) -> np.ndarray:
    """Leading ``count`` eigenvalues of the kernel 2 (min(t,s) - ts)^2, largest first.

    They are the Nystrom eigenvalues of the kernel on the ``NYSTROM_POINTS``
    uniform trapezoid grid, those of the symmetric matrix W^{1/2} K W^{1/2},
    returned as a fresh array of the first ``count`` entries of
    ``_NYSTROM_TABLE``. ``count`` runs from 1 to ``MAX_TRUNCATION``. For
    another grid, or the whole discretized spectrum (whose sum reproduces
    the kernel trace 1/15 to quadrature accuracy), solve that matrix on the
    grid with ``numpy.linalg.eigvalsh``.
    """
    if count < 1:
        raise ConfigurationError(f"count must be >= 1, got {count}")
    if count > MAX_TRUNCATION:
        raise ResolutionError(
            f"the {NYSTROM_POINTS}-point Nystrom grid resolves at most "
            f"{MAX_TRUNCATION} eigenvalues, got count={count}"
        )
    return np.array(_NYSTROM_TABLE[:count])


def _check_alpha(alpha: float) -> None:
    """Refuse a test level outside (0, 1)."""
    if not 0.0 < alpha < 1.0:
        raise ConfigurationError(f"alpha must be in (0, 1), got {alpha}")


@dataclass(frozen=True, eq=False)
class LimitLaw:
    """Simulated law: its spectra follow from ``truncation``, ``reps`` from ``samples``."""

    truncation: int
    samples: np.ndarray = field(repr=False)  # sorted ascending
    seed: int

    def __post_init__(self) -> None:
        samples = _frozen(self.samples)
        object.__setattr__(self, "samples", samples)
        if samples.ndim != 1 or np.any(np.diff(samples) < 0):
            raise ValueError("samples must be a sorted 1-d array, one per replicate")

    @property
    def reps(self) -> int:
        return self.samples.size

    @property
    def wiener_eigs(self) -> np.ndarray:
        return _frozen(wiener_eigenvalues(self.truncation))

    @property
    def bridge_sq_eigs(self) -> np.ndarray:
        return _frozen(bridge_sq_kernel_eigenvalues(self.truncation))

    def critical_value(self, alpha: float) -> float:
        """Type-7 (linearly interpolated) upper quantile at level ``alpha``."""
        _check_alpha(alpha)
        return float(np.quantile(self.samples, 1.0 - alpha))

    def p_value(self, statistic: float | np.ndarray) -> float | np.ndarray:
        """Add-one smoothed Monte Carlo p-value (1 + #exceed) / (1 + reps).

        A scalar statistic gives a float, an array an array of the same shape.
        """
        exceed = self.reps - np.searchsorted(self.samples, statistic, side="right")
        p = (1 + exceed) / (1 + self.reps)
        return float(p) if np.ndim(p) == 0 else p


_erfc = np.vectorize(math.erfc, otypes=[float])


def normal_p_value(z: float | np.ndarray) -> float | np.ndarray:
    """Upper-tail p-value P(N(0, 1) > z) = erfc(z / sqrt(2)) / 2 of a normal-limit test.

    A scalar statistic gives a float, an array an array of the same shape.
    """
    p = 0.5 * _erfc(np.multiply(z, math.sqrt(0.5)))
    return float(p) if np.ndim(p) == 0 else p


#: Bytes of normals a ``_tld_chunk`` block holds: 16 draws at K = 49, one
#: at K = 250 (a draw is never split).
_BLOCK_BYTES = 16 * 49 * 49 * 8


def _tld_chunk(seed: int, lam: np.ndarray, nu: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Draws ``start`` to ``stop - 1`` of the law, squared and weighed a block at a time.

    Each replicate fills its own slice of the block from its stream; the
    block is then squared once, ``lam @ block`` gives row i as ``lam @
    block[i]``, and the stacked (1, K) @ (K, 1) products are the same dot
    as ``v @ nu``, so every draw keeps the bits of a one-draw loop. The
    block is allocated per call, since threads run calls concurrently, and
    is at most a quarter of the chunk, so that the blocks of a small law's
    threads do not add up with the core count.
    """
    n = stop - start
    size = max(1, min(_BLOCK_BYTES // (8 * lam.size * nu.size), -(-n // 4)))
    block = np.empty((size, lam.size, nu.size))
    out = np.empty(n)
    rngs = replicate_rngs(seed, start, stop)
    for lo in range(0, n, size):
        g = block[: min(size, n - lo)]
        for cell, rng in zip(g, rngs):
            rng.standard_normal(out=cell)
        np.multiply(g, g, out=g)
        out[lo : lo + len(g)] = ((lam @ g)[:, None, :] @ nu[:, None])[:, 0, 0]
    return out


def simulate_tld(
    truncation: int = 49,
    reps: int = 100_000,
    seed: int = 0,
    workers: int = 1,
) -> LimitLaw:
    """Simulate the truncated double series and package it as a ``LimitLaw``.

    The replicates are drawn in threads on the process's cores: about 90% of
    a draw is numpy's normal fill, which runs without the GIL, and the square
    and the weighted sums run once per block of draws. Replicate r draws from
    stream ``(seed, r)``, so the samples do not depend on the core count.
    ``workers`` is checked (>= 1) and otherwise unused; it is kept so that
    existing calls run.
    """
    if reps < MIN_REPS:
        raise ConfigurationError(f"reps must be >= {MIN_REPS}, got {reps}")
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    lam = wiener_eigenvalues(truncation)
    nu = bridge_sq_kernel_eigenvalues(truncation)
    # The seed's SeedSequence is built here, in the calling thread: the first
    # one imports numpy.random, whose allocations would otherwise stay in a
    # drawing thread's malloc arena (about 0.8 MB more peak RSS).
    _seed_sequence(seed)
    draws = run_replicates(partial(_tld_chunk, seed, lam, nu), reps)
    draws.sort()
    return LimitLaw(truncation=truncation, samples=draws, seed=seed)


#: zeta(3) and zeta(1/2), for the moments of the Kolmogorov law and its
#: discrete-maximum correction.
_ZETA3 = 1.2020569031595942
_ZETA_HALF = -1.4603545088095868


def bridge_sup_moments(n: int) -> tuple[float, float]:
    """Mean and sd of max_k B(k/n)^2, k = 0..n, for a Brownian bridge B.

    K = sup|B| has the Kolmogorov law, whose raw moments are E K =
    sqrt(pi/2) ln 2, E K^2 = pi^2/12, E K^3 = (9/16) sqrt(pi/2) zeta(3) and
    E K^4 = 7 pi^4/720. The maximum over n + 1 equally spaced points falls
    short of K by about beta / sqrt(n), beta = -zeta(1/2) / sqrt(2 pi)
    (Broadie, Glasserman & Kou, Math. Finance 7 (1997) 325-349), so these
    are the mean and sd of (K - beta / sqrt(n))^2.
    """
    if n < 1:
        raise ConfigurationError(f"n must be >= 1, got {n}")
    root = math.sqrt(math.pi / 2.0)
    k1 = root * math.log(2.0)
    k2 = math.pi**2 / 12.0
    k3 = 9.0 / 16.0 * root * _ZETA3
    k4 = 7.0 * math.pi**4 / 720.0
    c = -_ZETA_HALF / math.sqrt(2.0 * math.pi) / math.sqrt(n)
    mean = k2 - 2.0 * c * k1 + c * c
    fourth = k4 - 4.0 * c * k3 + 6.0 * c * c * k2 - 4.0 * c**3 * k1 + c**4
    return mean, math.sqrt(fourth - mean * mean)


#: The ``MAX_TRUNCATION`` = 250 leading eigenvalues of the bridge-square
#: kernel on the ``NYSTROM_POINTS`` grid, largest first, as an eigenvalue-only
#: solve (``numpy.linalg.eigvalsh``) of the weighted kernel gave them (numpy
#: 2.4.6 with its bundled OpenBLAS, x86-64). Each is written with ``repr``, so
#: the floats round-trip bit for bit. All lie above the eigenvalue floor of
#: the first.
_NYSTROM_TABLE = (
    0.032870352495497954, 0.011531638945494669, 0.0057408304229328525,
    0.003410325391154308, 0.0022523076532603757, 0.0015960182341471687,
    0.0011890819162053566, 0.0009197134644354781, 0.0007323279851602834,
    0.000596788126621057, 0.0004956169445368857, 0.0004181187516264918,
    0.00035745280757115607, 0.00030907994027909306, 0.0002698928109591078,
    0.00023770657824356904, 0.00021094894781585385, 0.00018846518956562393,
    0.00016939186909825833, 0.00015307296097340917, 0.00013900283882330308,
    0.00012678673668008536, 0.0001161128219719887, 0.00010673214159172238,
    9.844400368326324e-05, 9.10851747253665e-05, 8.452179521322166e-05,
    7.864325946778738e-05, 7.335753268404593e-05, 6.858753213059303e-05,
    6.426830491157681e-05, 6.034480807237272e-05, 5.677014851458031e-05,
    5.350417703060973e-05, 5.051235732826875e-05, 4.776485026272356e-05,
    4.523576772442796e-05, 4.290256119646627e-05, 4.0745517905932025e-05,
    3.8747343466602084e-05, 3.689281445416623e-05, 3.516848783770963e-05,
    3.356245687854365e-05, 3.206414519498635e-05, 3.066413232342395e-05,
    2.9354005388979218e-05, 2.8126232513686244e-05, 2.697405439669381e-05,
    2.5891391145631814e-05, 2.487276195597239e-05, 2.391321565293247e-05,
    2.3008270449061042e-05, 2.21538615462734e-05, 2.1346295436414643e-05,
    2.0582209939358026e-05, 1.9858539169992085e-05, 1.9172482751429813e-05,
    1.8521478696329494e-05, 1.7903179465264997e-05, 1.7315430783818417e-05,
    1.6756252861028808e-05, 1.6223823703068966e-05, 1.5716464259239545e-05,
    1.5232625173904167e-05, 1.4770874948972077e-05, 1.4329889347875611e-05,
    1.3908441894450901e-05, 1.3505395339306285e-05, 1.3119693982718012e-05,
    1.275035675719256e-05, 1.239647098499362e-05, 1.2057186736406625e-05,
    1.1731711723571205e-05, 1.1419306672558877e-05, 1.1119281123185953e-05,
    1.0830989611970124e-05, 1.055382819880619e-05, 1.0287231302438035e-05,
    1.0030668813748176e-05, 9.783643459337007e-06, 9.545688390896003e-06,
    9.316364978542074e-06, 9.095260788629371e-06, 8.881987728620194e-06,
    8.67618034342777e-06, 8.477494249261166e-06, 8.285604692432826e-06,
    8.10020522186358e-06, 7.921006465149126e-06, 7.747734999056171e-06,
    7.580132306214033e-06, 7.417953810564606e-06, 7.260967984850553e-06,
    7.108955524055627e-06, 6.96170857928856e-06, 6.819030047109238e-06,
    6.680732909760372e-06, 6.546639622179175e-06, 6.4165815420364045e-06,
    6.290398399386074e-06, 6.167937802810308e-06, 6.0490547792176805e-06,
    5.9336113446989656e-06, 5.82147610406858e-06, 5.712523876920844e-06,
    5.606635348213149e-06, 5.50369674155548e-06, 5.403599513534895e-06,
    5.3062400675417384e-06, 5.21151948568798e-06, 5.119343277523105e-06,
    5.029621144354583e-06, 4.942266758075783e-06, 4.8571975534893485e-06,
    4.7743345331932006e-06, 4.693602084168327e-06, 4.614927805272979e-06,
    4.5382423449079646e-06, 4.463479248174396e-06, 4.3905748128939286e-06,
    4.319467953909205e-06, 4.2501000751250235e-06, 4.1824149487898485e-06,
    4.116358601552109e-06, 4.0518792068619105e-06, 3.988926983316285e-06,
    3.927454098575511e-06, 3.867414578506066e-06, 3.8087642212254298e-06,
    3.751460515750558e-06, 3.6954625649698995e-06, 3.6407310126775166e-06,
    3.587227974428041e-06, 3.5349169719838725e-06, 3.483762871143406e-06,
    3.433731822753346e-06, 3.38479120671868e-06, 3.336909578838188e-06,
    3.2900566203041884e-06, 3.2442030897140143e-06, 3.1993207774519847e-06,
    3.155382462309133e-06, 3.1123618702158045e-06, 3.0702336349704127e-06,
    3.02897326085489e-06, 2.988557087033863e-06, 2.948962253640873e-06,
    2.9101666694609e-06, 2.872148981124231e-06, 2.834888543730836e-06,
    2.798365392830448e-06, 2.7625602176868192e-06, 2.727454335759647e-06,
    2.6930296683410455e-06, 2.6592687172873445e-06, 2.6261545427902025e-06,
    2.593670742134455e-06, 2.5618014293927296e-06, 2.530531216010059e-06,
    2.4998451922344094e-06, 2.4697289093505577e-06, 2.4401683626790517e-06,
    2.4111499753012856e-06, 2.3826605824768004e-06, 2.354687416718659e-06,
    2.3272180934954938e-06, 2.300240597530669e-06, 2.273743269669038e-06,
    2.2477147942866844e-06, 2.2221441872158644e-06, 2.1970207841626688e-06,
    2.1723342295941562e-06, 2.1480744660732384e-06, 2.124231724020865e-06,
    2.1007965118861405e-06, 2.0777596067057297e-06, 2.0551120450353276e-06,
    2.0328451142360696e-06, 2.0109503441006527e-06, 1.9894194988038306e-06,
    1.9682445691624553e-06, 1.94741776519305e-06, 1.9269315089520554e-06,
    1.906778427647825e-06, 1.8869513470122709e-06, 1.8674432849210797e-06,
    1.8482474452515576e-06, 1.8293572119685906e-06, 1.8107661434286186e-06,
    1.792467966893083e-06, 1.7744565732417267e-06, 1.7567260118781452e-06,
    1.7392704858196534e-06, 1.722084346963165e-06, 1.7051620915209744e-06,
    1.6884983556186441e-06, 1.6720879110488094e-06, 1.6559256611744764e-06,
    1.6400066369761611e-06, 1.624325993236861e-06, 1.6088790048589001e-06,
    1.5936610633089663e-06, 1.5786676731842159e-06, 1.5638944488966396e-06,
    1.5493371114698667e-06, 1.534991485444458e-06, 1.5208534958876078e-06,
    1.5069191655032092e-06, 1.4931846118380418e-06, 1.4796460445812238e-06,
    1.4662997629525616e-06, 1.4531421531773086e-06, 1.4401696860431071e-06,
    1.427378914536899e-06, 1.4147664715586938e-06, 1.4023290677085666e-06,
    1.3900634891455675e-06, 1.377966595514708e-06, 1.3660353179399027e-06,
    1.3542666570811048e-06, 1.3426576812521723e-06, 1.331205524598295e-06,
    1.3199073853303586e-06, 1.3087605240140534e-06, 1.2977622619126504e-06,
    1.2869099793802242e-06, 1.2762011143048842e-06, 1.2656331605991555e-06,
    1.2552036667368435e-06, 1.2449102343339182e-06, 1.2347505167723065e-06,
    1.2247222178655217e-06, 1.2148230905635593e-06, 1.2050509356970324e-06,
    1.1954036007582503e-06, 1.1858789787184903e-06, 1.1764750068800713e-06,
    1.1671896657620755e-06, 1.1580209780186176e-06, 1.148967007388674e-06,
    1.1400258576759634e-06, 1.1311956717589395e-06, 1.122474630628334e-06,
    1.1138609524530845e-06, 1.105352891672379e-06, 1.0969487381134099e-06,
    1.0886468161343996e-06, 1.0804454837915762e-06, 1.0723431320294758e-06,
    1.0643381838937854e-06,
)
