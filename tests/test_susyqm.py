"""Superpotential algebra and its equivalence with the quantization route."""

import math

import numpy as np
import pytest

from diracbound import (
    DomainError,
    PotentialParams,
    QuantumNumbers,
    ReducedEquation,
    SuperpotentialConstants,
    SymmetryLimit,
    benchmark_params,
    ground_state_unnormalized,
    nu_residual,
    partner_potentials_at,
    radial_poly_degree,
    select_table_root,
    shape_invariance_remainder,
    solve_constants,
    solve_levels,
    superpotential_at,
    superpotential_deriv_at,
    susy_residual,
)
from diracbound.errors import InvalidBranchError


def test_constants_sign_conventions(params_h0, spin_sym):
    consts = solve_constants(0.24181258, params_h0, spin_sym,
                             QuantumNumbers(0, -2))
    assert consts.B_w > 0.0
    assert consts.A_w < 0.0
    eq = ReducedEquation.of(params_h0, spin_sym, QuantumNumbers(0, -2))
    _, _, _, gamma2, _ = eq.terms(0.24181258)
    expected_b = params_h0.delta * (
        1.0 + 2.0 * math.sqrt(0.25 + eq.lam + gamma2))
    assert consts.B_w == pytest.approx(expected_b, rel=1e-12)


def test_constants_error_branches():
    qn = QuantumNumbers(0, -2)
    sym = SymmetryLimit.spin(0.0)
    strong = PotentialParams(V0=5.0, A=5.0, B=0.0, delta=0.05, H=0.0, M=4.76)
    with pytest.raises(InvalidBranchError):
        solve_constants(0.5, strong, sym, qn)
    repulsive_disc = PotentialParams(V0=5.0, A=5.0, B=0.5, delta=0.05,
                                     H=0.0, M=4.76)
    with pytest.raises(DomainError):
        solve_constants(0.5, repulsive_disc, sym, qn)
    with pytest.raises(InvalidBranchError):
        SuperpotentialConstants(A_w=-1.0, B_w=0.0)


def test_partner_potentials_satisfy_riccati_relation(params_h5, pseudo_sym):
    E = -0.28786907
    consts = solve_constants(E, params_h5, pseudo_sym, QuantumNumbers(0, 2))
    r = np.linspace(0.4, 18.0, 25)
    w = superpotential_at(r, consts, params_h5.delta)
    dw = superpotential_deriv_at(r, consts, params_h5.delta)
    v_minus, v_plus = partner_potentials_at(r, consts, params_h5.delta)
    assert np.allclose(v_minus, w ** 2 - dw, rtol=1e-12, atol=1e-12)
    assert np.allclose(v_plus, w ** 2 + dw, rtol=1e-12, atol=1e-12)
    # The analytic derivative agrees with a numeric one.
    h = 1e-6
    mid = 3.0
    numeric = (superpotential_at(mid + h, consts, params_h5.delta)
               - superpotential_at(mid - h, consts, params_h5.delta)) \
        / (2.0 * h)
    assert superpotential_deriv_at(mid, consts, params_h5.delta) \
        == pytest.approx(numeric, rel=1e-8)


def test_ground_state_log_derivative_is_minus_superpotential(params_h0,
                                                             spin_sym):
    consts = solve_constants(0.24181258, params_h0, spin_sym,
                             QuantumNumbers(0, -2))
    h = 1e-6
    for r0 in (0.8, 2.5, 7.0):
        up = ground_state_unnormalized(r0 + h, consts, params_h0.delta)
        dn = ground_state_unnormalized(r0 - h, consts, params_h0.delta)
        mid = ground_state_unnormalized(r0, consts, params_h0.delta)
        assert mid > 0.0
        logderiv = (up - dn) / (2.0 * h) / mid
        expected = -superpotential_at(r0, consts, params_h0.delta)
        assert logderiv == pytest.approx(expected, rel=1e-7)
    # A_w < 0 makes the formal zero mode grow at large radius; the
    # sign-resolved variant with A_w > 0 decays.
    assert ground_state_unnormalized(40.0, consts, params_h0.delta) \
        > ground_state_unnormalized(10.0, consts, params_h0.delta)
    resolved = SuperpotentialConstants(A_w=-consts.A_w, B_w=consts.B_w)
    assert ground_state_unnormalized(40.0, resolved, params_h0.delta) \
        < ground_state_unnormalized(10.0, resolved, params_h0.delta)
    # Near the origin the (1-s) factor drives both variants to zero.
    assert ground_state_unnormalized(1e-4, consts, params_h0.delta) < 1e-6


def test_shape_invariance_remainder_telescopes(params_h0, spin_sym):
    qn = QuantumNumbers(3, -2)
    root = select_table_root(solve_levels(qn, spin_sym, params_h0))
    consts = solve_constants(root.E, params_h0, spin_sym, qn)
    eq = ReducedEquation.of(params_h0, spin_sym, qn)
    _, lhs, alpha2, gamma2, _ = eq.terms(root.E)
    g = alpha2 + gamma2
    delta = params_h0.delta
    m = radial_poly_degree(qn, "spin")

    def a_of(b):
        return -0.5 * b + 2.0 * delta ** 2 * g / b

    total = sum(shape_invariance_remainder(i, consts, g, delta)
                for i in range(1, m + 1))
    a_m = a_of(consts.B_w + 2.0 * m * delta)
    assert total == pytest.approx(consts.A_w ** 2 - a_m ** 2, rel=1e-10)
    # At a quantization root the m-step ladder closure pins the envelope
    # exponent: 4 delta^2 beta^2 = lhs = A_m^2.
    assert lhs == pytest.approx(a_m ** 2, rel=1e-8)
    with pytest.raises(DomainError):
        shape_invariance_remainder(0, consts, g, delta)


def test_residual_routes_agree_pointwise(params_h0, params_h5):
    qn = QuantumNumbers(1, -2)
    spin = SymmetryLimit.spin(5.0)
    for E in (0.05, 0.20, 0.40):
        nu = nu_residual(E, params_h5, spin, qn)
        su = susy_residual(E, params_h5, spin, qn)
        assert abs(nu - su) <= 1e-9 * (1.0 + abs(nu))
    pseudo = SymmetryLimit.pseudospin(-5.0)
    for E in (-0.05, -0.20, -0.40):
        nu = nu_residual(E, params_h0, pseudo, qn)
        su = susy_residual(E, params_h0, pseudo, qn)
        assert abs(nu - su) <= 1e-9 * (1.0 + abs(nu))


def test_residual_routes_share_roots(params_h0, spin_sym):
    # The ladder-closure residual vanishes exactly where the quantization
    # residual does.
    root = select_table_root(solve_levels(QuantumNumbers(0, -2), spin_sym,
                                          params_h0))
    assert abs(susy_residual(root.E, params_h0, spin_sym,
                             QuantumNumbers(0, -2))) < 1e-8


def test_susy_residual_array_mode():
    # A strong inversely-quadratic term pushes the ladder discriminant
    # negative over part of the window; those entries become NaN while the
    # rest stay finite.
    p = PotentialParams(V0=5.0, A=5.0, B=0.5, delta=0.05, H=0.0, M=4.76)
    E = np.linspace(-6.0, 6.0, 121)
    res = susy_residual(E, p, SymmetryLimit.spin(0.0), QuantumNumbers(0, -2))
    assert res.shape == E.shape
    assert np.any(np.isfinite(res))
    assert np.any(np.isnan(res))
