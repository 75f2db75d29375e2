"""Privacy-aware stochastic sampling and reconstruction.

A sampler with access to an observable process decides, step by step,
whether to share or discard the current value, trading reconstruction
accuracy at a remote estimator against information leaked about a
correlated private process. The package provides exact closed-form
machinery for linear-Gaussian systems (belief recursion, analytic
losses, policy-gradient optimization) and an exact finite-alphabet
engine for the general theory (belief updates, decomposed losses,
mutual-information enumeration, belief-tree value recursion).
"""

__version__ = "0.1.0"

from .lingauss import LinearGaussianSystem
from .belief import (
    GaussianBelief,
    init_belief,
    marginal_y_current,
    predict,
    update_no_sample,
    update_sample,
)
from .policy import (
    SamplerSchedule,
    degenerate_schedule,
    no_sample_prob_pointwise,
    open_loop_schedule,
    privacy_aware_schedule,
)
from .loss import (
    LossBreakdown,
    belief_rollout,
    mi_accumulate,
    no_sample_prob_marginal,
    one_step_loss,
    trajectory_objective,
)
from .reconstruct import (
    ReconstructionReport,
    estimate_y,
    evaluate_schedule,
    kalman_additive_baseline,
    reconstruct_x,
)
from .optimizer import (
    FeedbackPolicyParams,
    OptimizerConfig,
    follower_gradient,
    general_policy_gradient,
    objective_gradient_linear,
    optimize_lambda,
    stackelberg_optimize,
)
from .finite import (
    DiscreteBelief,
    DpGridSpec,
    FiniteModel,
    PolicyCollection,
    belief_step,
    dp_solve,
    mi_bruteforce,
    one_step_losses,
    optimal_reconstruction_finite,
)
