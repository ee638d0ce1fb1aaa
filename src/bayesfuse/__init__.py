"""Bayesian variable fusion for linear regression.

Spike-and-slab priors on adjacent coefficient differences, a Gibbs
sampler driven by a closed-form marginal likelihood, the classical
selection sampler as a baseline, and a Monte Carlo bench.
"""

__version__ = "0.1.0"

from .baseline import (
    FSlab,
    GSlab,
    ISlab,
    selection_gibbs,
    selection_log_marginal,
    selection_posterior_factors,
    summarize_selection,
)
from .fusion_prior import difference_covariance, difference_matrix
from .model import (
    BayesFuseError,
    Chain,
    ConstantColumn,
    Dataset,
    DegenerateGroups,
    DegenerateScale,
    DimensionMismatch,
    EmptyChain,
    EmptyInput,
    FusionIndicator,
    GibbsState,
    HyperParams,
    InadmissibleState,
    PosteriorSummary,
    SingularDesign,
    SingularSystem,
    delta_from_partition,
    partition_from_delta,
    standardize,
)
from .sampler import (
    FusionKernel,
    SamplerConfig,
    delta_conditional_prob,
    gibbs_sweep,
    log_marginal_likelihood,
    run_chain,
    sample_beta,
    sample_omega,
    sample_sigma2,
    summarize,
)
from .simbench import (
    SimCase,
    StudyResult,
    compute_mse,
    compute_pb,
    compute_pse,
    generate_case,
    make_case,
    run_study,
)
