"""Potential shapes, symmetry-limit containers, and parameter validation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracbound import (
    DomainError,
    PotentialParams,
    ReducedEquation,
    SymmetryLimit,
    approx_potential,
    benchmark_params,
    centrifugal_approx,
    centrifugal_exact,
    effective_potential,
    exact_potential,
    target_eigenvalue,
)
from diracbound.spectra import QuantumNumbers


def test_parameter_container_and_derived_strengths():
    p = PotentialParams(V0=2.0, A=1.0, B=1.0, delta=0.05, H=5.0, M=4.76)
    assert p.v0_prime == pytest.approx(2.0 * 1.0 * 0.05)
    assert p.b_prime == pytest.approx(4.0 * 1.0 * 0.05 ** 2)


@pytest.mark.parametrize("bad", [
    dict(V0=2.0, A=1.0, B=1.0, delta=0.0, H=0.0, M=4.76),
    dict(V0=2.0, A=1.0, B=1.0, delta=-0.1, H=0.0, M=4.76),
    dict(V0=2.0, A=1.0, B=1.0, delta=0.05, H=0.0, M=0.0),
    dict(V0=2.0, A=1.0, B=1.0, delta=0.05, H=0.0, M=-1.0),
    dict(V0=float("nan"), A=1.0, B=1.0, delta=0.05, H=0.0, M=4.76),
    dict(V0=2.0, A=float("inf"), B=1.0, delta=0.05, H=0.0, M=4.76),
])
def test_parameter_validation_rejects_bad_values(bad):
    with pytest.raises(DomainError):
        PotentialParams(**bad)


def test_symmetry_limit_constructors():
    s = SymmetryLimit.spin(5.0)
    ps = SymmetryLimit.pseudospin(-5.0)
    assert s.is_spin and s.kind == "spin" and s.constant == 5.0
    assert not ps.is_spin and ps.kind == "pseudospin" and ps.constant == -5.0
    with pytest.raises(DomainError):
        SymmetryLimit("other", 0.0)


def test_benchmark_params_values():
    p = benchmark_params(H=5.0)
    assert (p.V0, p.A, p.B, p.delta, p.H, p.M) == (2.0, 1.0, 1.0, 0.05, 5.0, 4.76)


def test_exact_potential_matches_term_by_term_formula():
    p = PotentialParams(V0=2.0, A=1.0, B=1.5, delta=0.05, H=0.0, M=4.76)
    r = 1.7
    s = math.exp(-2.0 * p.delta * r)
    expected = (-p.V0 * s / (1.0 - s)
                - p.A * math.exp(-p.delta * r) / r
                - p.B * s / r ** 2)
    assert exact_potential(r, p) == pytest.approx(expected, rel=1e-14)


def test_approx_potential_replaces_inverse_powers_by_screened_factors():
    p = PotentialParams(V0=2.0, A=1.0, B=1.5, delta=0.05, H=0.0, M=4.76)
    r = 1.7
    s = math.exp(-2.0 * p.delta * r)
    u = s / (1.0 - s)
    expected = -(p.V0 + 2.0 * p.A * p.delta) * u \
        - 4.0 * p.B * p.delta ** 2 * u ** 2
    assert approx_potential(r, p) == pytest.approx(expected, rel=1e-12)


def test_potentials_agree_in_the_small_screening_regime():
    p = PotentialParams(V0=2.0, A=1.0, B=1.0, delta=1e-4, H=0.0, M=4.76)
    r = np.linspace(0.5, 5.0, 40)
    gap = np.abs(exact_potential(r, p) - approx_potential(r, p))
    assert np.max(gap) < 1e-6


def test_exact_potential_rejects_nonpositive_radius():
    p = benchmark_params()
    with pytest.raises(DomainError):
        exact_potential(0.0, p)
    with pytest.raises(DomainError):
        exact_potential(-1.0, p)


def test_centrifugal_factors():
    r = np.array([0.5, 1.0, 3.0])
    assert centrifugal_exact(r) == pytest.approx(1.0 / r ** 2)
    # The screened replacement converges to 1/r^2 as delta -> 0.
    for delta in (0.05, 0.005, 0.0005):
        approx = centrifugal_approx(r, delta)
        rel = np.abs(approx - 1.0 / r ** 2) * r ** 2
        assert np.max(rel) < (2.0 * delta * r.max()) ** 2
    assert np.isscalar(centrifugal_approx(1.0, 0.05))


def test_reduced_equation_lam_both_reductions():
    def lam(kappa, H, kind):
        return ReducedEquation.of(benchmark_params(H=H),
                                  SymmetryLimit(kind, 0.0),
                                  QuantumNumbers(0, kappa)).lam

    assert lam(-2, 5.0, "spin") == pytest.approx(12.0)
    assert lam(-2, 5.0, "pseudospin") == pytest.approx(6.0)
    # At H=0 the strengths collapse to l(l+1) and ltilde(ltilde+1).
    qn = QuantumNumbers(0, -2)
    assert lam(qn.kappa, 0.0, "spin") == qn.l * (qn.l + 1)
    assert lam(qn.kappa, 0.0, "pseudospin") \
        == qn.l_tilde * (qn.l_tilde + 1)
    with pytest.raises(DomainError):
        lam(-2, 0.0, "neither")


def test_target_eigenvalue_sign_structure():
    M = 4.76
    spin = SymmetryLimit.spin(5.0)
    pseudo = SymmetryLimit.pseudospin(-5.0)
    E = 0.25
    assert target_eigenvalue(E, spin, M) == pytest.approx(
        E * E - M * M + 5.0 * (M - E))
    E = -0.25
    assert target_eigenvalue(E, pseudo, M) == pytest.approx(
        E * E - M * M + 5.0 * (M + E))
    # Bound-state energies of the benchmark produce a decaying tail.
    assert target_eigenvalue(0.24181258, spin, M) < 0.0
    assert target_eigenvalue(-0.24665137, pseudo, M) < 0.0


def test_auxiliary_parameters_match_reduction_coefficients():
    p = PotentialParams(V0=2.0, A=1.0, B=1.0, delta=0.05, H=0.0, M=4.76)
    qn = QuantumNumbers(0, -2)
    E, C = 0.2, 5.0
    coupling, lhs, alpha2, gamma2, D = ReducedEquation.of(
        p, SymmetryLimit.spin(C), qn).terms(E)
    coup = p.M + E - C
    four_d2 = 4.0 * p.delta ** 2
    assert coupling == pytest.approx(coup)
    assert alpha2 == pytest.approx((p.V0 + p.v0_prime) * coup / four_d2)
    assert gamma2 == pytest.approx(-p.b_prime * coup / four_d2)
    assert lhs / four_d2 == pytest.approx(
        (p.M ** 2 - E ** 2 - C * (p.M - E)) / four_d2)
    eta = qn.kappa + p.H
    assert D == pytest.approx(0.25 + eta * (eta + 1.0) + gamma2)

    E, C = -0.2, -5.0
    coupling, lhs, alpha2, gamma2, D = ReducedEquation.of(
        p, SymmetryLimit.pseudospin(C), qn).terms(E)
    coup = p.M - E + C
    assert coupling == pytest.approx(coup)
    assert alpha2 == pytest.approx(-(p.V0 + p.v0_prime) * coup / four_d2)
    assert gamma2 == pytest.approx(p.b_prime * coup / four_d2)
    assert lhs / four_d2 == pytest.approx(
        (p.M ** 2 - E ** 2 + C * (p.M + E)) / four_d2)
    assert D == pytest.approx(0.25 + eta * (eta - 1.0) + gamma2)


def _spin_formulas(E, C, V0, A, B, delta, kappa, H, M):
    """Spin-limit coefficients of the reduced equation, written out."""
    eta = kappa + H
    lam = eta * (eta + 1.0)
    four_d2 = 4.0 * delta ** 2
    coupling = M + E - C
    gamma2 = -(4.0 * B * delta ** 2) * coupling / four_d2
    return {"coupling": coupling,
            "lhs": M ** 2 - E ** 2 - C * (M - E),
            "alpha2": (V0 + 2.0 * A * delta) * coupling / four_d2,
            "gamma2": gamma2,
            "D": 0.25 + lam + gamma2,
            "lam": lam,
            "eps": E * E - M * M + C * (M - E)}


def _pseudo_formulas(E, C, V0, A, B, delta, kappa, H, M):
    """Pseudospin-limit coefficients of the reduced equation, written out."""
    eta = kappa + H
    lam = eta * (eta - 1.0)
    four_d2 = 4.0 * delta ** 2
    coupling = M - E + C
    gamma2 = 4.0 * B * delta ** 2 * coupling / four_d2
    return {"coupling": coupling,
            "lhs": M ** 2 - E ** 2 + C * (M + E),
            "alpha2": -(V0 + 2.0 * A * delta) * coupling / four_d2,
            "gamma2": gamma2,
            "D": 0.25 + lam + gamma2,
            "lam": lam,
            "eps": E * E - M * M - C * (M + E)}


def _record_values(eq, E, sym, M):
    coupling, lhs, alpha2, gamma2, D = eq.terms(E)
    return {"coupling": coupling, "lhs": lhs, "alpha2": alpha2,
            "gamma2": gamma2, "D": D, "lam": eq.lam,
            "eps": target_eigenvalue(E, sym, M)}


@st.composite
def _coefficient_draws(draw):
    strength = st.floats(-20.0, 20.0)
    inputs = {"E": draw(st.floats(-30.0, 30.0)),
              "C": draw(strength), "V0": draw(strength),
              "A": draw(strength), "B": draw(strength),
              "delta": draw(st.floats(0.01, 0.5)),
              "kappa": draw(st.sampled_from([-4, -3, -2, -1, 1, 2, 3, 4])),
              "H": draw(st.floats(-6.0, 6.0)),
              "M": draw(st.floats(0.5, 8.0))}
    return inputs, draw(st.integers(0, 3))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_coefficient_draws())
def test_reduced_equation_is_charge_conjugate_of_spin(draw):
    x, n = draw
    p = PotentialParams(V0=x["V0"], A=x["A"], B=x["B"], delta=x["delta"],
                        H=x["H"], M=x["M"])
    qn = QuantumNumbers(n, x["kappa"])
    scale = (1.0 + abs(x["E"]) + abs(x["C"]) + x["M"]) ** 2 \
        * (1.0 + abs(x["V0"]) + abs(x["A"]) + abs(x["B"])
           + (abs(x["kappa"]) + abs(x["H"])) ** 2) / x["delta"] ** 2
    for sym, formulas, degree in (
            (SymmetryLimit.spin(x["C"]), _spin_formulas, n),
            (SymmetryLimit.pseudospin(x["C"]), _pseudo_formulas,
             n + 1 if x["kappa"] > 0 else n)):
        eq = ReducedEquation.of(p, sym, qn)
        assert eq.degree == degree
        got = _record_values(eq, x["E"], sym, x["M"])
        for key, value in formulas(**x).items():
            assert math.isclose(got[key], value, rel_tol=1e-12,
                                abs_tol=1e-13 * scale), key
        assert math.isclose(got["eps"], -got["lhs"], rel_tol=1e-12,
                            abs_tol=1e-13 * scale)
    # The pseudospin record (got, from the last pass) is the spin reduction
    # at the conjugate point (E, C, V0, A, B, eta) -> (-E, -C, -V0, -A, -B,
    # -eta), bit for bit; only the degree is not carried by the map.
    conjugate = {k: (v if k in ("delta", "M") else -v) for k, v in x.items()}
    assert got == _spin_formulas(**conjugate)


def test_effective_potential_modes_and_consistency():
    p = benchmark_params(H=5.0)
    spin = SymmetryLimit.spin(5.0)
    qn = QuantumNumbers(0, -2)
    E = 0.25
    r = np.array([0.8, 2.0, 6.0])
    eta = qn.kappa + p.H
    for mode, ctf, pot in (("approximated", centrifugal_approx(r, p.delta),
                            approx_potential(r, p)),
                           ("exact", centrifugal_exact(r),
                            exact_potential(r, p))):
        expected = eta * (eta + 1.0) * ctf + (p.M + E - 5.0) * pot
        assert effective_potential(r, E, p, spin, qn, mode) \
            == pytest.approx(expected, rel=1e-13)
    pseudo = SymmetryLimit.pseudospin(-5.0)
    expected = (eta * (eta - 1.0) * centrifugal_approx(r, p.delta)
                - (p.M - E - 5.0) * approx_potential(r, p))
    assert effective_potential(r, E, p, pseudo, qn) \
        == pytest.approx(expected, rel=1e-13)
    with pytest.raises(DomainError):
        effective_potential(r, E, p, spin, qn, "other")
