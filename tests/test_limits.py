"""Special-case residuals, closed forms and nonrelativistic reductions."""

from dataclasses import replace

import numpy as np
import pytest

from diracbound import (
    DomainError,
    NonRelParams,
    PotentialParams,
    QuantumNumbers,
    SymmetryLimit,
    benchmark_params,
    coulomb_energy,
    hulthen_residual,
    hulthen_roots,
    iq_yukawa_residual,
    kratzer_fues_residual,
    nonrel_energy,
    nonrel_energy_coulomb,
    nonrel_energy_hulthen,
    norm_constant,
    nu_residual,
    swave_exponents,
    swave_residual,
    swave_wavefunction,
    solved_component,
    wave_context,
    yukawa_residual,
)

from conftest import pointwise, scan_roots

TOL = 1e-14


def test_swave_residual_specializes_the_general_one(params_h5, spin_sym,
                                                    pseudo_sym):
    for E in (0.05, 0.21, 0.38):
        for n in (0, 1, 3):
            assert swave_residual(E, params_h5, spin_sym, n) == pytest.approx(
                nu_residual(E, params_h5, spin_sym, QuantumNumbers(n, -1)),
                rel=1e-12, abs=1e-12)
    # The pseudospin s-wave at radial label n equals the general residual
    # of the (n-1, kappa=+1) state: both carry polynomial degree n.
    for E in (-0.05, -0.26, -0.38):
        for n in (1, 2, 4):
            assert swave_residual(E, params_h5, pseudo_sym, n) \
                == pytest.approx(
                    nu_residual(E, params_h5, pseudo_sym,
                                QuantumNumbers(n - 1, 1)),
                    rel=1e-12, abs=1e-12)


def test_swave_degree_validation(params_h5, spin_sym):
    with pytest.raises(DomainError):
        swave_residual(0.2, params_h5, spin_sym, -1)


@pytest.mark.parametrize("bad", [1.0, np.float64(2.0), "1", None])
def test_radial_index_and_l_follow_the_integer_rule(bad, params_h5, spin_sym):
    # QuantumNumbers' rule: only an integer (numpy's included) is a radial
    # index or an l; a float equal to one, a string or None raises
    # DomainError, and no reduced form reads it as the nearest integer.
    nrp = NonRelParams(m=1.0, l=np.int64(1), Ze2=1.0, A=0.0, B=0.0,
                       delta=0.05)
    assert swave_residual(0.3, params_h5, spin_sym, np.int64(1)) \
        == swave_residual(0.3, params_h5, spin_sym, 1)
    calls = [lambda: swave_residual(0.3, params_h5, spin_sym, bad),
             lambda: swave_wavefunction(np.array([1.0]), 0.3, params_h5,
                                        spin_sym, bad),
             lambda: nonrel_energy(nrp, bad),
             lambda: nonrel_energy_hulthen(nrp, bad),
             lambda: nonrel_energy_coulomb(nrp, bad),
             lambda: NonRelParams(m=1.0, l=bad, Ze2=1.0, A=0.0, B=0.0,
                                  delta=0.05)]
    for call in calls:
        with pytest.raises(DomainError):
            call()


def test_swave_exponents_match_quantization_pieces(params_h5, spin_sym):
    roots = scan_roots(
        pointwise(lambda e: swave_residual(e, params_h5, spin_sym, 1)),
        np.linspace(0.01, 1.0, 4000), TOL)
    assert roots
    E = roots[0]
    theta, zeta = swave_exponents(E, params_h5, spin_sym)
    assert theta > 0.0 and zeta > 0.0
    # theta^2 reproduces the envelope combination of E, M and C.
    M, C = params_h5.M, spin_sym.constant
    assert theta ** 2 == pytest.approx(M * M - E * E - C * (M - E), rel=1e-12)
    # Below the spin bound-state window the envelope exponent turns
    # imaginary: M + E - C < 0 while M - E > 0.
    with pytest.raises(DomainError):
        swave_exponents(0.1, params_h5, spin_sym)


def test_swave_wavefunction_proportional_to_general_component(params_h5,
                                                              spin_sym):
    roots = scan_roots(
        pointwise(lambda e: swave_residual(e, params_h5, spin_sym, 1)),
        np.linspace(0.01, 1.0, 4000), TOL)
    E = roots[0]
    r = np.linspace(0.4, 22.0, 50)
    special = swave_wavefunction(r, E, params_h5, spin_sym, 1)
    ctx = wave_context(QuantumNumbers(1, -1), spin_sym, params_h5, E)
    general = solved_component(r, ctx, norm_constant(ctx))
    ratio = special / general
    assert np.max(ratio) - np.min(ratio) <= 1e-10 * abs(np.mean(ratio))


def test_hulthen_dual_path_roots(params_h0, params_h5):
    # Pure screened-Coulomb term: the specialized residual and the general
    # solver restricted to A = B = 0 share every root.
    cases = [
        (SymmetryLimit.spin(5.0), QuantumNumbers(0, 1), 0.0, (0.01, 4.7)),
        (SymmetryLimit.pseudospin(-5.0), QuantumNumbers(0, -2), 5.0,
         (-4.7, -0.01)),
    ]
    for sym, qn, h, window in cases:
        p = PotentialParams(V0=2.0, A=0.0, B=0.0, delta=0.05, H=h, M=4.76)
        grid = np.linspace(*window, 4000)
        general = scan_roots(lambda e: nu_residual(e, p, sym, qn), grid, TOL)
        special = scan_roots(
            pointwise(lambda e: hulthen_residual(e, p, sym, qn)), grid, TOL)
        assert general and len(general) == len(special)
        assert np.allclose(general, special, atol=1e-10, rtol=0.0)


def test_yukawa_dual_path_roots():
    sym = SymmetryLimit.spin(5.0)
    qn = QuantumNumbers(0, 1)
    p = PotentialParams(V0=0.0, A=2.0, B=0.0, delta=0.05, H=0.0, M=4.76)
    grid = np.linspace(0.01, 4.7, 4000)
    general = scan_roots(lambda e: nu_residual(e, p, sym, qn), grid, TOL)
    special = scan_roots(pointwise(lambda e: yukawa_residual(e, p, sym, qn)),
                         grid, TOL)
    assert general and len(general) == len(special)
    assert np.allclose(general, special, atol=1e-10, rtol=0.0)


def test_closed_bracket_roots_match_a_scan():
    # The quadratic-formula zeros of the closed Hulthen bracket against a
    # scan of its residual, in both limits.
    p = PotentialParams(V0=2.0, A=0.0, B=0.0, delta=0.05, H=0.0, M=4.76)
    spin, pseudo = SymmetryLimit.spin(5.0), SymmetryLimit.pseudospin(-5.0)
    cases = [
        (p, spin, QuantumNumbers(0, 1)),
        (replace(p, H=5.0), spin, QuantumNumbers(1, -3)),
        (replace(p, H=5.0), pseudo, QuantumNumbers(0, -2)),
        (replace(p, V0=4.0, delta=0.1), pseudo, QuantumNumbers(1, 3)),
    ]
    for p_case, sym, qn in cases:
        closed = hulthen_roots(p_case, sym, qn)
        scanned = scan_roots(
            pointwise(lambda e: hulthen_residual(e, p_case, sym, qn)),
            np.linspace(-p_case.M - 6.0, p_case.M + 6.0, 4000), TOL)
        assert closed == sorted(closed)
        assert closed and len(closed) == len(scanned)
        assert np.allclose(closed, scanned, atol=1e-10, rtol=0.0)
    # n + kappa + H + 1 = 0 leaves no bracket, as in the residual.
    with pytest.raises(DomainError):
        hulthen_roots(p, spin, QuantumNumbers(0, -1))


def test_iq_yukawa_residual_is_pointwise_specialization():
    p = PotentialParams(V0=0.0, A=0.0, B=1.5, delta=0.05, H=5.0, M=4.76)
    spin = SymmetryLimit.spin(5.0)
    pseudo = SymmetryLimit.pseudospin(-5.0)
    for qn in (QuantumNumbers(0, -2), QuantumNumbers(1, 3)):
        for E in (0.05, 0.30):
            assert iq_yukawa_residual(E, p, spin, qn) == pytest.approx(
                nu_residual(E, p, spin, qn), rel=1e-12, abs=1e-12)
        for E in (-0.05, -0.30):
            assert iq_yukawa_residual(E, p, pseudo, qn) == pytest.approx(
                nu_residual(E, p, pseudo, qn), rel=1e-12, abs=1e-12)


def test_coulomb_closed_form_values():
    # Spin: E = [A^2 (C - M) + 4 M N^2] / [A^2 + 4 N^2], N = m+kappa+H+1.
    assert coulomb_energy(SymmetryLimit.spin(5.0), QuantumNumbers(0, 1),
                          A=1.0, M=4.76) \
        == pytest.approx((0.24 + 4.0 * 4.76 * 4.0) / 17.0, rel=1e-12)
    # C is the limit's constant: the same state at C = 7.
    assert coulomb_energy(SymmetryLimit.spin(7.0), QuantumNumbers(0, 1),
                          A=1.0, M=4.76) \
        == pytest.approx((2.24 + 4.0 * 4.76 * 4.0) / 17.0, rel=1e-12)
    # Pseudospin counts the polynomial degree, so (0, +2) at H=0 uses N=3.
    assert coulomb_energy(SymmetryLimit.pseudospin(-5.0),
                          QuantumNumbers(0, 2), A=1.0, M=4.76) \
        == pytest.approx((-0.24 - 4.0 * 4.76 * 9.0) / 37.0, rel=1e-12)
    assert coulomb_energy(SymmetryLimit.pseudospin(-5.0),
                          QuantumNumbers(0, -2), A=1.0, M=4.76, H=5.0) \
        == pytest.approx((-0.24 - 4.0 * 4.76 * 9.0) / 37.0, rel=1e-12)


def test_coulomb_limit_of_screened_roots():
    # As delta -> 0 the screened single-term root converges to the closed
    # Coulomb energy on the branch where the printed bracket applies.
    sym = SymmetryLimit.spin(5.0)
    qn = QuantumNumbers(0, 1)
    target = coulomb_energy(sym, qn, A=1.0, M=4.76)
    gaps = []
    for delta in (1e-2, 1e-4, 1e-6):
        p = PotentialParams(V0=0.0, A=1.0, B=0.0, delta=delta, H=0.0, M=4.76)
        roots = scan_roots(
            pointwise(lambda e: yukawa_residual(e, p, sym, qn)),
            np.linspace(4.2, 4.759, 6000), TOL)
        assert roots
        gaps.append(min(abs(r - target) for r in roots))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] <= 1e-4


def test_kratzer_fues_reduces_to_coulomb_at_zero_b():
    for sym, qn, H in ((SymmetryLimit.pseudospin(-5.0),
                        QuantumNumbers(0, -2), 5.0),
                       (SymmetryLimit.spin(7.0), QuantumNumbers(0, 1), 0.0)):
        e = coulomb_energy(sym, qn, A=1.0, M=4.76, H=H)
        assert abs(kratzer_fues_residual(e, sym, qn, A=1.0, B=0.0, M=4.76,
                                         H=H)) < 1e-12


def test_kratzer_fues_root_moves_with_b():
    sym = SymmetryLimit.spin(5.0)
    qn = QuantumNumbers(0, 1)
    e0 = coulomb_energy(sym, qn, A=1.0, M=4.76)
    roots = scan_roots(
        pointwise(lambda e: kratzer_fues_residual(e, sym, qn, A=1.0, B=0.2,
                                                  M=4.76)),
        np.linspace(4.0, 4.759, 6000), TOL)
    assert roots
    assert min(abs(r - e0) for r in roots) > 1e-6


def test_kratzer_fues_domain_error():
    sym = SymmetryLimit.spin(5.0)
    qn = QuantumNumbers(0, 1)
    with pytest.raises(DomainError):
        kratzer_fues_residual(0.0, sym, qn, A=1.0, B=-50.0, M=4.76)


def test_nonrel_params_validation():
    with pytest.raises(DomainError):
        NonRelParams(m=0.0, l=0, Ze2=1.0, A=0.0, B=0.0, delta=0.05)
    with pytest.raises(DomainError):
        NonRelParams(m=1.0, l=-1, Ze2=1.0, A=0.0, B=0.0, delta=0.05)
    with pytest.raises(DomainError):
        NonRelParams(m=1.0, l=0, Ze2=1.0, A=0.0, B=0.0, delta=0.0)


def test_nonrel_params_from_potential_maps_strengths():
    p = PotentialParams(V0=2.0, A=1.0, B=1.0, delta=0.05, H=0.0, M=4.76)
    nrp = NonRelParams.from_potential(p, l=1)
    assert nrp.m == p.M
    assert nrp.Ze2 == pytest.approx(p.V0 / (2.0 * p.delta))
    assert (nrp.A, nrp.B, nrp.delta, nrp.l) == (p.A, p.B, p.delta, 1)
    with pytest.raises(DomainError):
        NonRelParams.from_potential(benchmark_params(H=5.0), l=0)


def test_nonrel_energy_closed_forms():
    # Hydrogen ground state in atomic-like units.
    hydrogen = NonRelParams(m=1.0, l=0, Ze2=1.0, A=0.0, B=0.0, delta=1e-12)
    assert nonrel_energy_coulomb(hydrogen, 0) == pytest.approx(-0.5,
                                                               rel=1e-12)
    # General Coulomb dependence -m Ze2^2 / (2 (l+n+1)^2); A and B do not
    # enter the pure-Coulomb form.
    nrp = NonRelParams(m=2.5, l=2, Ze2=1.7, A=0.4, B=0.0, delta=1e-10)
    for n in range(3):
        expected = -nrp.m * nrp.Ze2 ** 2 / (2.0 * (nrp.l + n + 1) ** 2)
        assert nonrel_energy_coulomb(nrp, n) == pytest.approx(expected,
                                                              rel=1e-12)
    # The full form collapses to the screened single-term form at B = 0.
    nrp = NonRelParams(m=1.3, l=1, Ze2=2.0, A=0.5, B=0.0, delta=0.03)
    for n in range(3):
        assert nonrel_energy(nrp, n) == pytest.approx(
            nonrel_energy_hulthen(nrp, n), rel=1e-12)
    # As delta -> 0 the screened form approaches the Coulomb one with the
    # effective charge Ze2 + A (both terms collapse onto 1/r).
    tight = NonRelParams(m=1.3, l=1, Ze2=2.0, A=0.5, B=0.0, delta=1e-12)
    merged = NonRelParams(m=1.3, l=1, Ze2=2.5, A=0.0, B=0.0, delta=1e-12)
    assert nonrel_energy_hulthen(tight, 1) == pytest.approx(
        nonrel_energy_coulomb(merged, 1), rel=1e-9)


def test_nonrel_energy_barrier_domain_error():
    heavy_b = NonRelParams(m=4.0, l=0, Ze2=1.0, A=0.0, B=2.0, delta=0.05)
    with pytest.raises(DomainError):
        nonrel_energy(heavy_b, 0)
