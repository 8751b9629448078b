"""Base-3 look-and-say dynamics.

Iterate the run-length describing step in any digit base (or in token
mode), split base-3 strings into independently evolving segments, verify
exhaustively that every essential ancient string decays into the 24 common
particles, and reproduce the growth rate and limiting fermion frequencies
from the transition matrix.
"""

from .core import (
    AudioactiveError,
    ConvergenceError,
    DigitString,
    InvalidDigitError,
    SearchBudgetError,
    SplitDomainError,
    TokenString,
    fixed_point_search,
    is_ancient,
    is_run_bounded,
    iterate,
    iterate_tokens,
    lookandsay_step,
    runs,
    step_of_runs,
    token_step,
)
from .particles import (
    DecayRule,
    Particle,
    ParticleClass,
    decay_chart,
    evolve,
    identify,
    limit_sets,
    lookup,
    registry,
    registry_json,
)
from .splitting import (
    Decomposition,
    decompose,
    derive_decay_chart,
    is_common,
    is_flf,
    length_sequence,
    split_points,
)
from .cosmology import (
    CosmologyReport,
    DecayTable,
    KValueReport,
    enumerate_essential_ancient,
    f_closed,
    f_recursive,
    iterations_to_common,
    k_value,
    verify_cosmological,
)
from .spectral import (
    GROWTH_POLYNOMIAL,
    GrowthEstimate,
    TransitionMatrix,
    characteristic_polynomial,
    dominant_eigenvalue,
    eigenvalues,
    empirical_growth,
    fermion_matrix,
    limiting_frequencies,
    polynomial_division,
    primitivity_power,
)

__version__ = "0.1.0"

# No command uses the digit-tally sequences, so the names below are found
# on first access (PEP 562) and importing the CLI compiles no descriptors.
_DESCRIPTORS = frozenset({
    "CountDescriptor",
    "FrequencyVector",
    "counting_sequence",
    "counting_step",
    "selfdesc_sequence",
    "selfdesc_step",
})


def __getattr__(name: str):
    if name in _DESCRIPTORS:
        from . import descriptors

        return getattr(descriptors, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AudioactiveError",
    "ConvergenceError",
    "CosmologyReport",
    "CountDescriptor",
    "DecayRule",
    "DecayTable",
    "Decomposition",
    "DigitString",
    "FrequencyVector",
    "GROWTH_POLYNOMIAL",
    "GrowthEstimate",
    "InvalidDigitError",
    "KValueReport",
    "Particle",
    "ParticleClass",
    "SearchBudgetError",
    "SplitDomainError",
    "TokenString",
    "TransitionMatrix",
    "characteristic_polynomial",
    "counting_sequence",
    "counting_step",
    "decay_chart",
    "decompose",
    "derive_decay_chart",
    "dominant_eigenvalue",
    "eigenvalues",
    "empirical_growth",
    "enumerate_essential_ancient",
    "evolve",
    "f_closed",
    "f_recursive",
    "fermion_matrix",
    "fixed_point_search",
    "identify",
    "is_ancient",
    "is_common",
    "is_flf",
    "is_run_bounded",
    "iterate",
    "iterate_tokens",
    "iterations_to_common",
    "k_value",
    "length_sequence",
    "limit_sets",
    "limiting_frequencies",
    "lookandsay_step",
    "lookup",
    "polynomial_division",
    "primitivity_power",
    "registry",
    "registry_json",
    "runs",
    "selfdesc_sequence",
    "selfdesc_step",
    "split_points",
    "step_of_runs",
    "token_step",
    "verify_cosmological",
]
