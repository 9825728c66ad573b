"""Trajectory distillation as operator merging.

Closed-form teacher/student operators for diagonal-Gaussian data, optimal
merge-plan search by Pareto dynamic programming, and mixture-of-experts
compression bounds for Gaussian-mixture data.
"""

from .schedule import (
    NoiseSchedule,
    make_cosine_schedule,
    read_schedule_csv,
    validate_schedule,
    write_schedule_csv,
)
from .linear_op import (
    DiagGaussian,
    DiagOperator,
    ShrinkageProfile,
    composite_operator,
    contraction_certificate,
    critical_variance,
    gradient_flow_trajectory,
    shrinkage,
    single_step_operator,
    surrogate_target,
    w2_objective,
)
from .strategy import (
    MergePlan,
    PlanLabel,
    evaluate_plan,
    format_plan,
    parse_plan,
    plan_label,
    plan_progressive,
    plan_sequential_boot,
    plan_sequential_consistency,
    plan_vanilla,
)
from .pareto_dp import (
    PreferenceVector,
    brute_force_optimum,
    pareto_dp,
)
from .gmm import (
    GaussianMixture,
    MoeOperator,
    NoisySampler,
    apply_chain,
    compose_expand,
    choose_partition,
    distill_chain,
    error_propagation_audit,
    fit_cluster_student,
    make_circle_mixture,
    mc_distillation_loss,
    optimal_mixture_denoiser,
    posterior_weights,
    single_step_moe,
)

__version__ = "0.1.0"
