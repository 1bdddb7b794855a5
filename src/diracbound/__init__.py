"""Relativistic bound states for a screened Coulomb potential family.

Solves the radial Dirac problem with combined Hulthen, Yukawa and inversely
quadratic Yukawa terms plus a Coulomb-like tensor coupling, in the spin and
pseudospin symmetry limits.  Closed-form spectra and spinor components are
cross-checked by an independent shooting-method oracle.
"""

from .errors import (
    DiracboundError,
    DomainError,
    InvalidBranchError,
    NoEigenvalueError,
    NotConvergedError,
    PoleError,
    SingularCouplingError,
)
from .potentials import (
    BENCHMARK_C_PSEUDO,
    BENCHMARK_C_SPIN,
    PotentialParams,
    ReducedEquation,
    SymmetryLimit,
    approx_potential,
    benchmark_params,
    centrifugal_approx,
    centrifugal_exact,
    effective_potential,
    exact_potential,
    radial_poly_degree,
    target_eigenvalue,
)
from .oracle import (
    OracleConfig,
    OracleResult,
    dirac_eigenvalue,
    schrodinger_eigenvalue,
)
from .spectra import (
    SPECTROSCOPIC_LETTERS,
    EnergyRoot,
    QuantumNumbers,
    doublet_partner,
    nu_residual,
    scan_v0_c,
    select_table_root,
    solve_levels,
    solve_levels_batch,
    sweep_delta,
    table_energies,
)
from .wavefunctions import (
    SpinorSolution,
    WaveContext,
    default_grid,
    hyp2f1_terminating,
    jacobi_p,
    norm_constant,
    paired_component,
    solve_wavefunction,
    solved_component,
    wave_context,
)
from .susyqm import (
    SuperpotentialConstants,
    ground_state_unnormalized,
    partner_potentials_at,
    shape_invariance_remainder,
    solve_constants,
    superpotential_at,
    superpotential_deriv_at,
    susy_residual,
)
from .limits import (
    NonRelParams,
    coulomb_energy,
    hulthen_residual,
    hulthen_roots,
    iq_yukawa_residual,
    kratzer_fues_residual,
    nonrel_energy,
    nonrel_energy_coulomb,
    nonrel_energy_hulthen,
    swave_exponents,
    swave_residual,
    swave_wavefunction,
    yukawa_residual,
)

__version__ = "1.0.0"
