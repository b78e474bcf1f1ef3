"""Coordinate-Bethe-ansatz toolkit for three-state U(1)-invariant spin chains.

Decides whether a nearest-neighbour periodic three-state Hamiltonian is
solvable by coordinate Bethe ansatz, classifies it into one of ten solution
families modulo parity / charge conjugation / time reversal and gauge, and
produces and verifies its Bethe spectrum (roots, energies, eigenvectors)
against dense exact diagonalization.
"""

from .hamiltonian import (
    ChainSpec,
    DiagonalInvariants,
    GateViolation,
    HamiltonianParams,
    apply_charge_conjugation,
    apply_frame,
    apply_gauge,
    apply_parity,
    apply_telescopic,
    apply_time_reversal,
    chain_matrix,
    invariants,
    max_chain_length,
    params_from_dict,
    params_to_dict,
    sector_basis,
    two_site_matrix,
    with_zero_v00,
)
from .constraints import (
    SolvabilityVerdict,
    constraint_e12,
    constraint_e21,
    constraint_e22,
    is_cba_solvable,
    lambda_fn,
    n_factor,
    s_matrix,
)
from .families import (
    FAMILIES,
    FAMILY_ORDER,
    FamilyMatch,
    ReducedParams,
    TRIVIAL_S_TAGS,
    classify,
    construct,
    family_n_factor,
    family_reduced,
    family_s_matrix,
    reduced_parameters,
)
from .reductions import reduce_hamiltonian, reduce_two_site
from .bethe import (
    BetheSolution,
    SectorEigenvector,
    SolverConfig,
    amplitude,
    assemble_eigenvector,
    bae_residual,
    energy,
    momentum,
    solve_bae,
    verify_eigenpair,
)
from .oracle import (
    SectorReport,
    SectorSpectrum,
    compare,
    sector_matrix,
    sector_spectrum,
    verify_sector,
)

__version__ = "0.1.0"
