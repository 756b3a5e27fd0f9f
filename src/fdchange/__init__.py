"""Change-point and two-sample mean inference for functional data.

The methods project curves onto an increasing number of empirical principal
components, aggregate normalized CUSUM bridges across components, and compare
against a simulated two-parameter limit law (or its normal-limit companions).
A simulation harness reproduces size/power behaviour under a Brownian-motion
protocol, and a small CLI exposes the main operations on CSV inputs.
"""

from .changepoint import (
    CusumMatrix,
    ProcessGrid,
    SegmentationTree,
    SegmentNode,
    TestOutcome,
    binary_segmentation,
    corollary_tests,
    cusum_matrix,
    cvm2d_test,
    estimate_changepoint,
    sample_cusum,
    z_process,
)
from .curves import (
    CovarianceSurface,
    Curve,
    FunctionalSample,
    Grid,
    empirical_covariance,
    inner_product,
    sample_mean,
)
from .errors import (
    ConfigurationError,
    DegenerateDataError,
    DimensionError,
    FdchangeError,
    GridMismatchError,
    InsufficientSampleError,
    ParseError,
    ResolutionError,
)
from .fpca import (
    EigenSystem,
    ScoreMatrix,
    compute_scores,
    eigendecompose,
    sample_eigensystem,
    suggest_d,
    variance_explained,
)
from .ingest import IngestionConfig, ingest, write_sample_csv
from .limitdist import (
    LimitLaw,
    bridge_sq_kernel_eigenvalues,
    bridge_sup_moments,
    simulate_gamma_functional,
    simulate_tld,
    wiener_eigenvalues,
)
from .simulation import (
    SimReport,
    SimScenario,
    confidence_band,
    generate_bm_sample,
    inject_shift,
    run_size_power,
)
from .twosample import (
    PooledEigen,
    TwoSampleOutcome,
    pooled_covariance,
    pooled_eigensystem,
    two_sample_test,
)

__version__ = "0.1.0"
