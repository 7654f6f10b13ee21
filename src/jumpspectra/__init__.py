"""Convergence indices of real sequences and the limit spectra of Lagrange
(Chebyshev-node) and Shepard operators at jump discontinuities."""

from .density import (
    DEFAULT_EPS_GRID,
    Cluster,
    ClusterReport,
    IndexEstimate,
    IntervalUnion,
    SequencePrefix,
    complement_identity_check,
    detect_clusters,
    empirical_index,
    index_sum_audit,
    lower_density,
    set_index,
    upper_density,
)
from .harness import (
    ComparisonReport,
    ConfigError,
    ExperimentConfig,
    compare,
    ks_uniform_distance,
    predict,
    run_sequence,
)
from .lagrange import (
    ChebyshevGrid,
    fundamental_eval,
    fundamental_weights,
    lagrange_at_jump,
    lagrange_eval,
)
from .piecewise import (
    ContinuousPart,
    JumpFunction,
    JumpSpec,
    from_steps,
    load_descriptor,
    node_offsets,
    pure_step,
    save_descriptor,
)
from .shepard import ShepardConfig, shepard_at_jump, shepard_eval, step_sweep
from .specfun import (
    LimitProfile,
    ProfileMonotonicityError,
    ZetaEval,
    g_lagrange,
    g_shepard,
    hurwitz_zeta,
    j_zeta_relation_residual,
    lagrange_profile,
    lerch_j,
    profile_preimage_measure,
    shepard_profile,
)
from .theory import (
    Atom,
    ContinuousSpectrum,
    Irrational,
    PredictedSpectrum,
    predict_lagrange,
    predict_shepard,
    predicted_set_index,
)

__version__ = "0.1.0"
