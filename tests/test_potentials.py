"""Potential shapes, symmetry-limit containers, and parameter validation."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import diracbound
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


# Every public entry point that takes a SymmetryLimit, called with sym in
# its place and otherwise valid arguments for the benchmark point.
_QN = QuantumNumbers(0, -2)
_P = PotentialParams(V0=2.0, A=1.0, B=1.0, delta=0.05, H=0.0, M=4.76)
_TAKES_SYM = {
    "solve_levels": lambda sym: diracbound.solve_levels(_QN, sym, _P),
    "solve_levels_batch":
        lambda sym: diracbound.solve_levels_batch([(_QN, sym, _P)]),
    "table_energies":
        lambda sym: diracbound.table_energies([(_QN, sym, _P)]),
    "sweep_delta": lambda sym: diracbound.sweep_delta([_QN], sym, _P, [0.05]),
    "nu_residual": lambda sym: diracbound.nu_residual(0.3, _P, sym, _QN),
    "doublet_partner": lambda sym: diracbound.doublet_partner(_QN, sym),
    "susy_residual": lambda sym: diracbound.susy_residual(0.3, _P, sym, _QN),
    "solve_constants":
        lambda sym: diracbound.solve_constants(0.24181258, _P, sym, _QN),
    "wave_context": lambda sym: diracbound.wave_context(_QN, sym, _P, 0.3),
    "solve_wavefunction":
        lambda sym: diracbound.solve_wavefunction(_QN, sym, _P, 0.3),
    "effective_potential": lambda sym: diracbound.effective_potential(
        np.array([1.0, 2.0]), 0.3, _P, sym, _QN),
    "target_eigenvalue": lambda sym: diracbound.target_eigenvalue(
        0.3, sym, 4.76),
    "dirac_eigenvalue": lambda sym: diracbound.dirac_eigenvalue(
        _QN, sym, _P, diracbound.OracleConfig(num_points=1000)),
    "swave_residual": lambda sym: diracbound.swave_residual(0.3, _P, sym, 0),
    "swave_exponents": lambda sym: diracbound.swave_exponents(0.3, _P, sym),
    "swave_wavefunction": lambda sym: diracbound.swave_wavefunction(
        [1.0], 0.3, _P, sym, 0),
    "hulthen_residual":
        lambda sym: diracbound.hulthen_residual(0.3, _P, sym, _QN),
    "yukawa_residual":
        lambda sym: diracbound.yukawa_residual(0.3, _P, sym, _QN),
    "hulthen_roots": lambda sym: diracbound.hulthen_roots(_P, sym, _QN),
    "coulomb_energy":
        lambda sym: diracbound.coulomb_energy(sym, _QN, 1.0, 4.76),
    "iq_yukawa_residual":
        lambda sym: diracbound.iq_yukawa_residual(0.3, _P, sym, _QN),
    "kratzer_fues_residual": lambda sym: diracbound.kratzer_fues_residual(
        0.3, sym, _QN, 1.0, 1.0, 4.76),
}


@pytest.mark.parametrize("name", sorted(_TAKES_SYM))
def test_a_limit_that_is_not_a_symmetry_limit_is_a_domain_error(name):
    # A kind string, a bare constant, None, or an object that only looks
    # like a limit: each fails typed, before any attribute is read.
    call = _TAKES_SYM[name]
    call(SymmetryLimit.spin(5.0))
    lookalike = type("Lookalike", (), {"kind": "spin", "constant": 5.0,
                                       "is_spin": True, "sign": 1.0})()
    for bad in ("spin", 5.0, None, lookalike):
        with pytest.raises(DomainError, match="expected a SymmetryLimit"):
            call(bad)


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


# Every public function that takes radii, called with r in their place
# and otherwise valid arguments for the benchmark point.
_SPIN = SymmetryLimit.spin(5.0)
_CONSTS = diracbound.SuperpotentialConstants(A_w=-0.5, B_w=1.0)
_TAKES_RADII = {
    "exact_potential": lambda r: exact_potential(r, _P),
    "approx_potential": lambda r: approx_potential(r, _P),
    "centrifugal_approx": lambda r: centrifugal_approx(r, 0.05),
    "centrifugal_exact": centrifugal_exact,
    "effective_potential[approximated]": lambda r: effective_potential(
        r, 0.3, _P, _SPIN, _QN),
    "effective_potential[exact]": lambda r: effective_potential(
        r, 0.3, _P, _SPIN, _QN, "exact"),
    "superpotential_at":
        lambda r: diracbound.superpotential_at(r, _CONSTS, 0.05),
    "superpotential_deriv_at":
        lambda r: diracbound.superpotential_deriv_at(r, _CONSTS, 0.05),
    "partner_potentials_at":
        lambda r: diracbound.partner_potentials_at(r, _CONSTS, 0.05),
    "ground_state_unnormalized":
        lambda r: diracbound.ground_state_unnormalized(r, _CONSTS, 0.05),
    "solved_component": lambda r: diracbound.solved_component(
        r, diracbound.wave_context(_QN, _SPIN, _P, 0.3)),
    "paired_component": lambda r: diracbound.paired_component(
        r, diracbound.wave_context(_QN, _SPIN, _P, 0.3)),
    "swave_wavefunction": lambda r: diracbound.swave_wavefunction(
        r, 0.3, _P, _SPIN, 0),
}


@pytest.mark.parametrize("name", sorted(_TAKES_RADII))
@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan")])
def test_a_radius_that_is_not_positive_is_a_domain_error(name, bad):
    # Zero, a negative radius or NaN, alone or among valid radii.
    call = _TAKES_RADII[name]
    call(1.0)
    call(np.array([1.0, 2.0]))
    with pytest.raises(DomainError, match="r must be positive"):
        call(bad)
    with pytest.raises(DomainError, match="r must be positive"):
        call(np.array([1.0, bad]))


# Every public function that takes an energy, called with E in its place.
# wave_context and solve_wavefunction take one energy, not a sequence.
_TAKES_ENERGY = {
    "nu_residual": lambda E: diracbound.nu_residual(E, _P, _SPIN, _QN),
    "susy_residual": lambda E: diracbound.susy_residual(E, _P, _SPIN, _QN),
    "target_eigenvalue": lambda E: target_eigenvalue(E, _SPIN, _P.M),
    "effective_potential[E]": lambda E: effective_potential(
        1.0, E, _P, _SPIN, _QN),
    "wave_context": lambda E: diracbound.wave_context(
        _QN, _SPIN, _P, E).beta,
    "solve_wavefunction": lambda E: diracbound.solve_wavefunction(
        _QN, _SPIN, _P, E).samples,
}
_TAKES_ONE_ENERGY = {"wave_context", "solve_wavefunction"}


@pytest.mark.parametrize("name", sorted(_TAKES_RADII) + sorted(_TAKES_ENERGY))
def test_a_radius_or_energy_that_is_not_real_is_a_domain_error(name):
    # str, bytes, bool and complex input, alone or in a sequence; int
    # scalars and sequences give the bits of their float twins, and a
    # sequence where one energy is taken is a DomainError too.
    call = {**_TAKES_RADII, **_TAKES_ENERGY}[name]
    for bad in ("0.3", b"0.3", "a", True, np.True_, 1 + 2j, ["0.3"],
                [1.0, "x"], np.array([1.0 + 0j])):
        with pytest.raises(DomainError, match="must be real"):
            call(bad)
    for value, twin in ((1, 1.0), ([1, 0.5], np.array([1.0, 0.5]))):
        if name in _TAKES_ONE_ENERGY and np.ndim(twin):
            with pytest.raises(DomainError, match="must be one energy"):
                call(value)
            continue
        got, want = call(value), call(twin)
        assert type(got) is type(want)
        assert not isinstance(got, np.generic)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


# Every index argument, called with i in its place and otherwise valid
# arguments, and the floor of that index.
_NRP = diracbound.NonRelParams(m=4.76, l=0, Ze2=1.0, A=1.0, B=0.0,
                               delta=0.05)
_TAKES_INDEX = {
    "QuantumNumbers.n": (lambda i: QuantumNumbers(i, -2), 0),
    "NonRelParams.l": (lambda i: diracbound.NonRelParams(
        m=4.76, l=i, Ze2=1.0, A=1.0, B=0.0, delta=0.05), 0),
    "OracleConfig.num_points":
        (lambda i: diracbound.OracleConfig(num_points=i), 1000),
    "schrodinger_eigenvalue": (lambda i: diracbound.schrodinger_eigenvalue(
        lambda r: -2.0 / r, i, diracbound.OracleConfig(r_max=60.0)), 0),
    "hyp2f1_terminating":
        (lambda i: diracbound.hyp2f1_terminating(i, 1.0, 2.0, 0.5), 0),
    "jacobi_p": (lambda i: diracbound.jacobi_p(i, 1.0, 1.0, 0.5), 0),
    "shape_invariance_remainder":
        (lambda i: diracbound.shape_invariance_remainder(
            i, _CONSTS, 1.0, 0.05), 1),
    "swave_residual":
        (lambda i: diracbound.swave_residual(0.3, _P, _SPIN, i), 0),
    "swave_wavefunction": (lambda i: diracbound.swave_wavefunction(
        1.0, 0.3, _P, _SPIN, i), 0),
    "nonrel_energy": (lambda i: diracbound.nonrel_energy(_NRP, i), 0),
    "nonrel_energy_hulthen":
        (lambda i: diracbound.nonrel_energy_hulthen(_NRP, i), 0),
    "nonrel_energy_coulomb":
        (lambda i: diracbound.nonrel_energy_coulomb(_NRP, i), 0),
}


# Every scalar field of a parameter record, called with x in its place and
# otherwise valid values.
_TAKES_SCALAR = {
    **{f"PotentialParams.{field}": lambda x, field=field: replace(
        _P, **{field: x}) for field in ("V0", "A", "B", "delta", "H", "M")},
    "SymmetryLimit.constant": lambda x: SymmetryLimit("spin", x),
    **{f"NonRelParams.{field}": lambda x, field=field: replace(
        _NRP, **{field: x}) for field in ("m", "Ze2", "A", "B", "delta")},
    "OracleConfig.r_max": lambda x: diracbound.OracleConfig(r_max=x),
    "SuperpotentialConstants.A_w":
        lambda x: diracbound.SuperpotentialConstants(A_w=x, B_w=1.0),
    "SuperpotentialConstants.B_w":
        lambda x: diracbound.SuperpotentialConstants(A_w=-0.5, B_w=x),
}


@pytest.mark.parametrize("name", sorted(_TAKES_SCALAR))
def test_a_scalar_that_is_not_a_finite_real_is_a_domain_error(name):
    # A digit string, None, a bool, a complex number, NaN and inf each fail
    # typed; an int, a float and a numpy float are accepted.  None is
    # r_max's default, so it is not a bad r_max.
    call = _TAKES_SCALAR[name]
    for good in (1, 1.0, np.float64(1.0)):
        call(good)
    for bad in ("0.3", None, True, 1 + 2j, float("nan"), float("inf")):
        if bad is None and name == "OracleConfig.r_max":
            continue
        with pytest.raises(DomainError, match="must be a finite real"):
            call(bad)


@pytest.mark.parametrize("name", sorted(_TAKES_INDEX))
def test_an_index_that_is_not_an_integer_at_its_floor_is_a_domain_error(
        name):
    # A fraction, a digit string, NaN, a bool and one below the floor each
    # fail typed; the floor itself, also as a numpy integer, is accepted.
    call, low = _TAKES_INDEX[name]
    call(low)
    call(np.int64(low))
    for bad in (1.5, "2", float("nan"), True, low - 1):
        with pytest.raises(DomainError):
            call(bad)


@pytest.mark.parametrize("r", [1e-9, 1e-7, 1e-6])
def test_screened_factors_keep_full_precision_at_tiny_radius(r):
    # 1 - e^(-2 delta r) comes from expm1: formed by subtraction it keeps
    # about 1e-6 relative accuracy at r = 1e-9 fm, and it feeds the
    # oracle's origin exponent D = 1/4 + r^2 U(r) at its first mesh point.
    # Against 50-digit mpmath every screened form is within 1e-14.
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        for p in (PotentialParams(V0=2.0, A=1.0, B=1.5, delta=0.05, H=0.0,
                                  M=4.76),
                  PotentialParams(V0=-3.0, A=0.0, B=0.0, delta=0.3, H=0.0,
                                  M=4.76)):
            R, d = mpmath.mpf(r), mpmath.mpf(p.delta)
            s = mpmath.exp(-2 * d * R)
            u = s / (1 - s)
            want = {
                "exact": -p.V0 * u - p.A * mpmath.exp(-d * R) / R
                - p.B * s / R ** 2,
                "approx": -(p.V0 + 2 * p.A * d) * u - 4 * p.B * d ** 2 * u ** 2,
                "centrifugal": 4 * d ** 2 * s / (1 - s) ** 2,
            }
            got = {"exact": exact_potential(r, p),
                   "approx": approx_potential(r, p),
                   "centrifugal": centrifugal_approx(r, p.delta)}
            for name, value in got.items():
                rel = abs((value - want[name]) / want[name])
                assert rel <= 1e-14, (name, p, float(rel))


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
