"""Relativistic bound states for a screened Coulomb potential family.

Solves the radial Dirac problem with combined Hulthen, Yukawa and inversely
quadratic Yukawa terms plus a Coulomb-like tensor coupling, in the spin and
pseudospin symmetry limits.  Closed-form spectra and spinor components are
cross-checked by an independent shooting-method oracle.
"""

from .errors import (
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
    spin_orbit_strength,
    target_eigenvalue,
)
from .oracle import (
    OracleConfig,
    OracleResult,
    dirac_eigenvalue,
    numerov_integrate,
    schrodinger_eigenvalue,
)
from .spectra import (
    EnergyRoot,
    QuantumNumbers,
    SearchConfig,
    doublet_partner,
    nu_residual_pseudo,
    nu_residual_spin,
    scan_v0_c,
    select_table_root,
    solve_levels,
    sweep_delta,
)
from .wavefunctions import (
    SpinorSolution,
    WaveContext,
    count_nodes,
    default_grid,
    hyp2f1_terminating,
    jacobi_p,
    jacobi_rodrigues,
    lower_g_pseudo,
    lower_g_spin,
    norm_constant,
    solve_wavefunction,
    upper_f_pseudo,
    upper_f_spin,
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
    susy_residual_pseudo,
    susy_residual_spin,
)
from .limits import (
    NonRelParams,
    coulomb_energy,
    hulthen_residual,
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
