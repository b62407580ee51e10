"""Detectability-lemma Gibbs sampling toolkit.

Quantum detailed balance in the KMS inner product, detectability-lemma
mixing bounds for local Lindbladians, Chebyshev ground-space projectors,
frustration-free parent Hamiltonians of purified Gibbs states, and
temperature-path state preparation, with an experiment harness on top.
"""

from __future__ import annotations

from .anneal import (
    AnnealingRun,
    ErrorBudget,
    Schedule,
    boost_coefficients,
    boost_degree,
    error_budget,
    make_schedule,
    overlap,
    run_annealing,
)
from .config import (
    ExperimentConfig,
    ModelConfig,
    OutputConfig,
    WeightsConfig,
    config_hash,
    parse_config,
    serialize_config,
)
from .errors import DlGibbsError
from .hamiltonians import (
    LocalHamiltonian,
    LocalOperator,
    assemble,
    commutation_degree,
    embed,
    interaction_degree,
    make_instance,
    noncommutation_degree,
    standard_couplings,
)
from .harness import (
    ExperimentResult,
    ResourceEstimate,
    resource_estimate,
    run_experiment,
)
from .jumps import (
    WeightProfile,
    build_coherent,
    build_jump,
    build_model,
)
from .kms import (
    KmsForm,
    LindbladTerm,
    Superoperator,
    choi_matrix,
    coherent_form,
    cptp_check,
    stationary_channel,
    term_superoperator,
)
from .linalg import (
    hermitian_eigendecompose,
    partial_trace,
    schatten1_distance,
    singular_value_decompose,
    spectral_norm,
    vectorize,
)
from .parent import (
    ParentHamiltonian,
    build_parent,
    parent_projector_input,
    purified_gibbs,
    verify_parent,
)
from .projector import (
    DlOperator,
    ProjectorPoly,
    approximate_projector,
    chebyshev_poly,
    degree_for_error,
    dl_operator,
    planted_spectrum,
    singular_gap,
    speedup_slope,
)
from .sampler import (
    DlChannel,
    MixingTrace,
    compose_dl_channel,
    contraction_check,
    iterate,
    superop_hamiltonian,
)

__version__ = "0.1.0"
