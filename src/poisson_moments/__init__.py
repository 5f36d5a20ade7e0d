"""Exact moment distances between arrival events of i.i.d. Poisson
processes, with independent oracles, identity verifiers, and matching
experiments on the line."""

from .closed_forms import (
    CrossCheckError,
    MomentQuery,
    MomentValue,
    diagonal_moment,
    even_moment_general,
    moment,
    odd_moment_lemma2,
    odd_moment_lemma3,
    odd_moment_theorem4,
    sum_moments,
)
from .exact_arith import Rat, binomial, pochhammer
from .matching_lab import (
    MatchingRun,
    ScalingFit,
    expected_sorted_cost_exact,
    mc_sorted_cost,
    optimal_matching_cost_bruteforce,
    sample_matching_run,
    scaling_experiment,
    sorted_matching_cost,
)
from .oracles import (
    MCEstimate,
    exact_moment_first_principles,
    mc_moment,
    sample_arrivals,
)

__version__ = "0.1.0"
