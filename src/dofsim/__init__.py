"""DoF toolkit for the two-user, two-subband MISO downlink with imperfect CSIT."""

from .channel import (
    MATCHED,
    UNMATCHED,
    ChannelPair,
    QualityPair,
    Scenario,
    db_to_linear,
    measure_error_exponent,
    sample_pair,
    sample_realization,
    trial_rng,
    zf_direction,
)
from .linkmc import (
    SimReport,
    estimate_dof,
    received_power,
    sic_rates,
)
from .regions import (
    DofRegion,
    canonical,
    compose_matched,
    compose_unmatched,
    contains,
    minkowski_sum,
    outer_bound,
    region_equal,
    scale,
)
from .schemes import (
    AchievabilityError,
    DecodeStep,
    PowerTerm,
    Precoder,
    SchemeDescriptor,
    SymbolSpec,
    analytic_sum_dof,
    build_descriptor,
    fdma_descriptor,
    matched_descriptor,
    optimal_unmatched_descriptor,
    s3_descriptor,
    static_achievability_check,
    sum_dof_exponent,
    user_dof_exponents,
    zfbf_descriptor,
)
from .switcher import SweepCell, SweepMap, best_strategy, sweep

__version__ = "0.1.0"
