"""Special functions, spinor components, grids and normalization."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import eval_jacobi

from diracbound import (
    DomainError,
    NoEigenvalueError,
    PotentialParams,
    QuantumNumbers,
    SingularCouplingError,
    SymmetryLimit,
    WaveContext,
    default_grid,
    effective_potential,
    hyp2f1_terminating,
    jacobi_p,
    norm_constant,
    paired_component,
    select_table_root,
    solve_levels,
    solve_levels_batch,
    solve_wavefunction,
    solved_component,
    target_eigenvalue,
    wave_context,
)
from diracbound.potentials import ReducedEquation, radial_poly_degree

from conftest import count_nodes


def test_jacobi_polynomial_against_scipy_reference():
    rng = np.random.default_rng(7)
    x = np.linspace(-1.0, 1.0, 41)
    for _ in range(25):
        n = int(rng.integers(0, 7))
        a = float(rng.uniform(-0.9, 6.0))
        b = float(rng.uniform(-0.9, 6.0))
        ours = jacobi_p(n, a, b, x)
        ref = eval_jacobi(n, a, b, x)
        assert np.allclose(ours, ref, rtol=1e-10, atol=1e-12)


def _falling(z: float, k: int) -> float:
    out = 1.0
    for i in range(k):
        out *= z - i
    return out


def jacobi_rodrigues(n: int, a: float, b: float, x):
    """Jacobi polynomial from the expanded Rodrigues representation.

    The n-th derivative in the Rodrigues formula is expanded by the Leibniz
    rule into a finite sum, so the evaluation is exact up to rounding and
    independent of the recurrence in jacobi_p.
    """
    x = np.asarray(x, dtype=float)
    total = np.zeros_like(x)
    for k in range(n + 1):
        coeff = math.comb(n, k) * ((-1.0) ** k) \
            * _falling(a + n, k) * _falling(b + n, n - k)
        total = total + coeff * (1.0 - x) ** (n - k) * (1.0 + x) ** k
    return total * ((-1.0) ** n) / (2.0 ** n * math.factorial(n))


def test_jacobi_rodrigues_matches_series_form():
    rng = np.random.default_rng(11)
    x = np.linspace(-0.99, 0.99, 21)
    for _ in range(25):
        n = int(rng.integers(0, 7))
        a = float(rng.uniform(-0.9, 6.0))
        b = float(rng.uniform(-0.9, 6.0))
        assert np.allclose(jacobi_rodrigues(n, a, b, x), jacobi_p(n, a, b, x),
                           rtol=1e-9, atol=1e-11)


def test_jacobi_value_at_unit_argument():
    # P_n^{(a,b)}(1) = Gamma(n+a+1) / (Gamma(a+1) n!)
    for n, a, b in ((0, 0.5, 1.0), (3, 0.5, 2.5), (5, 2.0, 0.1)):
        expected = math.gamma(n + a + 1.0) / (math.gamma(a + 1.0)
                                              * math.factorial(n))
        assert jacobi_p(n, a, b, 1.0) == pytest.approx(expected, rel=1e-12)


def test_terminating_hypergeometric_equals_jacobi():
    # 2F1(-m, m+a+b+1; a+1; s) relates to P_m^{(a,b)}(1-2s) by the binomial
    # prefactor; both code paths must agree.
    s = np.linspace(0.0, 1.0, 31)
    for m, a, b in ((0, 1.2, 0.7), (2, 0.4, 3.0), (5, 2.5, 1.5)):
        lhs = hyp2f1_terminating(m, m + a + b + 1.0, a + 1.0, s)
        binom = math.gamma(m + a + 1.0) / (math.gamma(a + 1.0)
                                           * math.factorial(m))
        rhs = jacobi_p(m, a, b, 1.0 - 2.0 * s) / binom
        assert np.allclose(lhs, rhs, rtol=1e-11, atol=1e-13)


def test_count_nodes_on_synthetic_samples():
    r = np.linspace(0.0, 1.0, 501)
    assert count_nodes(np.sin(3.0 * math.pi * r)) == 2
    assert count_nodes(np.ones(10)) == 0
    # A touch of zero without a sign change is not a node.
    assert count_nodes(np.array([1.0, 0.5, 0.0, 0.5, 1.0])) == 0
    # An exact zero at a crossing counts once.
    assert count_nodes(np.array([1.0, 0.5, 0.0, -0.5, -1.0])) == 1
    with pytest.raises(DomainError):
        count_nodes(np.ones((3, 3)))


def test_wave_context_exponents_and_coupling(params_h5, spin_sym, pseudo_sym):
    qn = QuantumNumbers(0, 1)
    E = 0.26229015
    ctx = wave_context(qn, spin_sym, params_h5, E)
    eq = ReducedEquation.of(params_h5, spin_sym, qn)
    _, lhs, _, gamma2, _ = eq.terms(E)
    assert ctx.beta == pytest.approx(math.sqrt(lhs / eq.four_d2), rel=1e-12)
    assert (2.0 * ctx.xi - 1.0) ** 2 == pytest.approx(
        1.0 + 4.0 * (gamma2 + eq.lam), rel=1e-12)
    assert ctx.coupling == pytest.approx(params_h5.M + E - spin_sym.constant)
    assert ctx.degree == radial_poly_degree(qn, "spin")

    qn = QuantumNumbers(0, 2)
    E = -0.28786907
    ctx = wave_context(qn, pseudo_sym, params_h5, E)
    eq = ReducedEquation.of(params_h5, pseudo_sym, qn)
    _, lhs, _, gamma2, _ = eq.terms(E)
    assert ctx.beta == pytest.approx(math.sqrt(lhs / eq.four_d2), rel=1e-12)
    assert (2.0 * ctx.xi - 1.0) ** 2 == pytest.approx(
        1.0 + 4.0 * (gamma2 + eq.lam), rel=1e-12)
    assert ctx.coupling == pytest.approx(params_h5.M - E + pseudo_sym.constant)
    assert ctx.degree == radial_poly_degree(qn, "pseudospin")


def test_solve_wavefunction_solves_energy_and_samples(params_h5, spin_sym):
    qn = QuantumNumbers(0, 1)
    sol = solve_wavefunction(qn, spin_sym, params_h5)
    assert sol.E == pytest.approx(0.26229015, abs=1e-6)
    r, F, G = sol.samples[:, 0], sol.samples[:, 1], sol.samples[:, 2]
    assert sol.samples.shape[1] == 3
    assert np.all(np.diff(r) > 0.0)
    # Boundary behavior: the solved component vanishes at both ends.
    fmax = np.max(np.abs(F))
    assert abs(F[0]) <= 1e-6 * fmax
    assert abs(F[-1]) <= 1e-6 * fmax
    # The sampling grid integrates the solved component close to unit norm.
    assert np.trapezoid(F ** 2, r) == pytest.approx(1.0, abs=1e-4)


def test_closed_form_norm_constant_against_quadrature(params_h5, spin_sym,
                                                      pseudo_sym):
    for sym, qn in ((spin_sym, QuantumNumbers(1, 1)),
                    (pseudo_sym, QuantumNumbers(1, 2))):
        sol = solve_wavefunction(qn, sym, params_h5)
        ctx = wave_context(qn, sym, params_h5, sol.E)
        nc = norm_constant(ctx)
        assert nc == pytest.approx(sol.norm_const, rel=1e-12)
        upper = 40.0 / (2.0 * params_h5.delta * ctx.beta)
        norm, err = quad(lambda rr: solved_component(rr, ctx, nc) ** 2, 0.0,
                         upper, limit=300)
        assert err < 1e-8
        assert norm == pytest.approx(1.0, abs=1e-6)


def test_constructed_component_uses_first_order_relation(params_h5, spin_sym):
    # G = [F' + (eta/r) F] / (M + E - C): check against a numeric
    # derivative of the solved component.
    qn = QuantumNumbers(0, 1)
    sol = solve_wavefunction(qn, spin_sym, params_h5)
    ctx = wave_context(qn, spin_sym, params_h5, sol.E)
    nc = norm_constant(ctx)
    eta = qn.kappa + params_h5.H
    h = 1e-4
    for r0 in (0.7, 2.0, 6.0, 12.0):
        df = (solved_component(r0 + h, ctx, nc)
              - solved_component(r0 - h, ctx, nc)) / (2.0 * h)
        expected = (df + (eta / r0) * solved_component(r0, ctx, nc)) \
            / ctx.coupling
        got = paired_component(np.array([r0]), ctx, nc)[0]
        assert got == pytest.approx(expected, rel=1e-6)


def test_singular_coupling_raises(params_h0, spin_sym):
    # With C = M + E the envelope exponent collapses together with the
    # first-order coupling, so the context builder itself refuses.
    qn = QuantumNumbers(0, -2)
    E = 0.5
    with pytest.raises(DomainError):
        wave_context(qn, SymmetryLimit.spin(params_h0.M + E), params_h0, E)
    # A context forced to zero coupling trips the dedicated error in the
    # constructed component.
    base = wave_context(qn, spin_sym, params_h0, 0.24181258)
    forced = WaveContext(qn=base.qn, symmetry=base.symmetry, E=base.E,
                         p=base.p, beta=base.beta, xi=base.xi,
                         degree=base.degree, coupling=0.0)
    with pytest.raises(SingularCouplingError):
        paired_component(np.array([1.0]), forced)
    # The solved component does not need the coupling.
    assert solved_component(1.0, forced) == solved_component(1.0, base)


# At delta = 1e-12 fm^-1, beta is about 2.6e11 at E = 0.3, and a value
# the components take from log space overflows a float.
_FAINT = PotentialParams(V0=2.0, A=1.0, B=1.0, delta=1e-12, H=0.0, M=4.76)


def test_a_normalization_constant_beyond_a_float_is_a_domain_error(
        spin_sym):
    with pytest.raises(DomainError, match="normalization constant overflows"):
        solve_wavefunction(QuantumNumbers(0, -50), spin_sym, _FAINT, 0.3)


def test_a_polynomial_prefactor_beyond_a_float_is_a_domain_error(spin_sym):
    ctx = wave_context(QuantumNumbers(60, -2), spin_sym, _FAINT, 0.3)
    with pytest.raises(DomainError, match="polynomial prefactor overflows"):
        solved_component(1.0, ctx)


def test_default_grid_covers_the_tail(params_h5, pseudo_sym):
    qn = QuantumNumbers(0, 2)
    sol = solve_wavefunction(qn, pseudo_sym, params_h5)
    ctx = wave_context(qn, pseudo_sym, params_h5, sol.E)
    r = default_grid(ctx)
    assert r[0] > 0.0
    assert r[-1] >= 30.0
    solved = solved_component(r, ctx, norm_constant(ctx))
    assert abs(solved[-1]) <= 1e-6 * np.max(np.abs(solved))


def test_solve_wavefunction_unbound_state_raises(params_h0):
    with pytest.raises(NoEigenvalueError):
        solve_wavefunction(QuantumNumbers(0, -2), SymmetryLimit.spin(0.0),
                           params_h0)


def test_solve_wavefunction_accepts_explicit_energy(params_h5, spin_sym):
    qn = QuantumNumbers(0, 1)
    sol = solve_wavefunction(qn, spin_sym, params_h5, E=0.26229015)
    assert sol.E == 0.26229015


def test_pseudospin_constructed_component(params_h5, pseudo_sym):
    # F = [G' - (eta/r) G] / (M - E + C) for the pseudospin reduction.
    qn = QuantumNumbers(0, 2)
    sol = solve_wavefunction(qn, pseudo_sym, params_h5)
    ctx = wave_context(qn, pseudo_sym, params_h5, sol.E)
    nc = norm_constant(ctx)
    eta = qn.kappa + params_h5.H
    h = 1e-4
    for r0 in (0.7, 2.0, 6.0):
        dg = (solved_component(r0 + h, ctx, nc)
              - solved_component(r0 - h, ctx, nc)) / (2.0 * h)
        expected = (dg - (eta / r0) * solved_component(r0, ctx, nc)) \
            / ctx.coupling
        got = paired_component(np.array([r0]), ctx, nc)[0]
        assert got == pytest.approx(expected, rel=1e-6)


# The radii (fm) at which both residual checks compare the components.
_ODE_R = np.linspace(0.5, 60.0, 600)


def _ode_residual(ctx):
    """Residual of u'' = [U_eff - eps] u for the solved component u.

    u'' is the second difference with h = 3e-4 fm; the largest residual on
    _ODE_R is divided by the largest of the equation's three terms.
    """
    h = 3e-4
    lo, u, hi = (solved_component(_ODE_R + k * h, ctx) for k in (-1, 0, 1))
    d2u = (hi - 2.0 * u + lo) / h ** 2
    pot = effective_potential(_ODE_R, ctx.E, ctx.p, ctx.symmetry, ctx.qn) * u
    eps = target_eigenvalue(ctx.E, ctx.symmetry, ctx.p.M) * u
    scale = max(np.max(np.abs(t)) for t in (d2u, pot, eps))
    return np.max(np.abs(d2u - pot + eps)) / scale


def _first_order_residual(ctx):
    """paired_component against a five-point derivative of the solved one,
    relative to the largest term of the first-order relation."""
    h = 1e-3
    f = [solved_component(_ODE_R + k * h, ctx) for k in (-2, -1, 0, 1, 2)]
    du = (f[0] - 8.0 * f[1] + 8.0 * f[3] - f[4]) / (12.0 * h)
    eta = ctx.qn.kappa + ctx.p.H
    cent = ctx.symmetry.sign * (eta / _ODE_R) * f[2]
    paired = paired_component(_ODE_R, ctx) * ctx.coupling
    scale = max(np.max(np.abs(t)) for t in (du, cent, paired))
    return np.max(np.abs(paired - du - cent)) / scale


_STATE_SET = [QuantumNumbers(n, kappa) for n in range(3)
              for kappa in (-3, -2, -1, 1, 2, 3)]


def _q_positive_contexts(kind, V0, A, B, delta, H, C):
    """A context for every nu_branch = +1 root, of every state in
    _STATE_SET, that wave_context accepts."""
    p = PotentialParams(V0=V0, A=A, B=B, delta=delta, H=H, M=4.76)
    sym = SymmetryLimit(kind, C)
    levels = solve_levels_batch([(qn, sym, p) for qn in _STATE_SET])
    out = []
    for qn, roots in zip(_STATE_SET, levels):
        for root in roots:
            if root.nu_branch == 1:
                try:
                    out.append(wave_context(qn, sym, p, root.E))
                except DomainError:
                    pass
    return out


_POTENTIALS = st.tuples(
    st.sampled_from(["spin", "pseudospin"]), st.floats(-4.0, 4.0),
    st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.floats(0.02, 0.25),
    st.floats(0.0, 6.0), st.floats(-8.0, 8.0))


# Worst cases measured over these draws (about 600 and 530 roots, 75 and 80
# with D < 1): 2.2e-5 for the second-order equation and 2.5e-8 for the
# first-order relation.  Both are the closed form's rounding (up to about
# 1e-11 of chi where its 2F1 cancels) divided by h^2 and h: the worst
# second-order state gives 5.6e-8 from 40-digit values of chi.
_ODE_BOUND = 1e-4
_FIRST_ORDER_BOUND = 1e-7


@settings(max_examples=100, derandomize=True, deadline=None)
@given(_POTENTIALS)
# The three kappa = -3 roots of this potential have D = 0.053 < 1: there
# the solved component starts as r^(1/2 + sqrt D), where a wrong branch of
# the origin exponent would show.  The draws hold D < 1 roots too.
@example(("pseudospin", 0.0, -1.25, 0.0, 0.225, 3.73, 3.12))
def test_q_positive_spinors_solve_the_second_order_equation(potential):
    for ctx in _q_positive_contexts(*potential):
        assert _ode_residual(ctx) <= _ODE_BOUND, ctx


def test_a_table_root_spinor_fails_the_second_order_equation(params_h5,
                                                             spin_sym):
    # The preset spin 0p1/2 table root is a Q < 0 zero of the squared
    # relation, not an eigenvalue, so the residual test has to reject it.
    qn = QuantumNumbers(0, 1)
    root = select_table_root(solve_levels(qn, spin_sym, params_h5))
    assert root.nu_branch == -1
    ctx = wave_context(qn, spin_sym, params_h5, root.E)
    assert _ode_residual(ctx) > 1e3 * _ODE_BOUND


@settings(max_examples=100, derandomize=True, deadline=None)
@given(_POTENTIALS)
@example(("pseudospin", 0.0, -1.25, 0.0, 0.225, 3.73, 3.12))
def test_q_positive_paired_components_follow_the_first_order_relation(
        potential):
    for ctx in _q_positive_contexts(*potential):
        assert _first_order_residual(ctx) <= _FIRST_ORDER_BOUND, ctx


def test_solve_wavefunction_samples_the_component_functions_bit_for_bit(
        params_h5, spin_sym, pseudo_sym):
    for sym, qn, degree in ((spin_sym, QuantumNumbers(0, 1), 0),
                            (spin_sym, QuantumNumbers(1, -2), 1),
                            (pseudo_sym, QuantumNumbers(0, -1), 0),
                            (pseudo_sym, QuantumNumbers(0, 2), 1)):
        sol = solve_wavefunction(qn, sym, params_h5)
        ctx = wave_context(qn, sym, params_h5, sol.E)
        assert ctx.degree == degree
        r, F, G = sol.samples.T
        solved = solved_component(r, ctx, sol.norm_const)
        paired = paired_component(r, ctx, sol.norm_const)
        assert np.array_equal((F, G) if sym.is_spin else (G, F),
                              (solved, paired))
        # A scalar r gives a Python float.  numpy may evaluate a lone
        # element by another code path than an array, so only the value,
        # not every bit, is compared.
        for i in (0, 999, -1):
            one = (solved_component(float(r[i]), ctx, sol.norm_const),
                   paired_component(float(r[i]), ctx, sol.norm_const))
            assert [type(v) for v in one] == [float, float]
            assert one == pytest.approx((solved[i], paired[i]), rel=1e-14)
