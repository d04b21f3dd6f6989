"""gapdp: differentially private selection with free gap information.

Selection mechanisms (sparse vector, noisy top-k, their hybrids, and the
exponential mechanism) internally compute noisy margins they normally throw
away.  This package implements variants that release those margins at no
extra privacy cost, the post-processing that turns them into better query
estimates, budget accounting, and a Monte-Carlo privacy auditor.
"""

from .audit import AuditConfig, AuditReport, Release, estimate_epsilon, tie_probability_bound
from .expmech import (
    ExpMechResult,
    UtilityTable,
    exp_mech_blackbox_gap,
    exp_mech_gumbel,
    log_sum_exp_excluding,
)
from .hybrid import HybridResult, hybrid_estimates, hybrid_identity
from .noise import (
    Exponential,
    Geometric,
    Gumbel,
    Laplace,
    Logistic,
    RandomSource,
    ReplayExhaustedError,
    ReplaySource,
    SeededSource,
    mean_of,
    sample,
    sample_logistic_nonneg,
    variance_of,
)
from .postprocess import (
    BlueInput,
    VarianceModel,
    blue_topk,
    blue_variance_ratio,
    fuse_svt,
    svt_variance_model,
)
from .queries import (
    ParseError,
    QuerySet,
    TransactionDB,
    adjacent_counts,
    item_counts,
    load_transactions,
)
from .svt import (
    SvtConfig,
    SvtItem,
    SvtResult,
    adaptive_svt,
    gap_svt,
    lower_confidence_t,
    tail_probability,
    theta_optimal,
)
from .topk import TopKResult, gap_topk, pairwise_gap

__version__ = "0.1.0"
