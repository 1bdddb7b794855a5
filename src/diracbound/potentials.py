"""Potential evaluators for the combined screened Coulomb interaction.

The model interaction is a Hulthen term plus a Yukawa term plus an inversely
quadratic Yukawa term, with a Coulomb-like tensor coupling of strength H that
enters the radial problem only through the shifted spin-orbit parameter
eta = kappa + H.  All radial quantities use fm and fm^-1 units.

Two forms of the potential are provided: the exact sum of the three terms,
and the approximated form obtained by replacing 1/r and 1/r^2 with their
screened counterparts, which is the form the closed-form spectrum is built
on.  Both are needed: the gap between them is itself a quantity of interest,
and the numerical oracle can solve either form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "PotentialParams",
    "SymmetryLimit",
    "ReducedEquation",
    "radial_poly_degree",
    "benchmark_params",
    "BENCHMARK_C_SPIN",
    "BENCHMARK_C_PSEUDO",
    "exact_potential",
    "approx_potential",
    "centrifugal_approx",
    "centrifugal_exact",
    "spin_orbit_strength",
    "effective_potential",
    "target_eigenvalue",
]


@dataclass(frozen=True)
class PotentialParams:
    """Physical inputs of the interaction.

    Attributes:
        V0: Hulthen strength (fm^-1), used as-is in the approximated form.
        A: Yukawa strength (fm^-1 convention of the -A e^{-delta r}/r term).
        B: inversely quadratic Yukawa strength (-B e^{-2 delta r}/r^2 term).
        delta: screening parameter (fm^-1), must be positive.
        H: tensor coupling strength (dimensionless), shifts kappa to kappa+H.
        M: fermion mass (fm^-1), must be positive.
    """

    V0: float
    A: float
    B: float
    delta: float
    H: float
    M: float

    def __post_init__(self):
        for name in ("V0", "A", "B", "delta", "H", "M"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value!r}")
        if self.delta <= 0:
            raise DomainError(f"delta must be positive, got {self.delta}")
        if self.M <= 0:
            raise DomainError(f"M must be positive, got {self.M}")

    @property
    def v0_prime(self) -> float:
        """Effective addition to the Hulthen strength, 2*A*delta."""
        return 2.0 * self.A * self.delta

    @property
    def b_prime(self) -> float:
        """Effective strength of the squared screening term, 4*B*delta^2."""
        return 4.0 * self.B * self.delta ** 2


@dataclass(frozen=True)
class SymmetryLimit:
    """Which reduction of the coupled radial system is in force.

    kind is "spin" (difference potential constant, Delta = C) or
    "pseudospin" (sum potential constant, Sigma = C).  `constant` is that
    constant in fm^-1.
    """

    kind: str
    constant: float

    def __post_init__(self):
        if self.kind not in ("spin", "pseudospin"):
            raise DomainError(
                f"kind must be 'spin' or 'pseudospin', got {self.kind!r}")
        if not math.isfinite(self.constant):
            raise DomainError("symmetry constant must be finite")

    @property
    def is_spin(self) -> bool:
        return self.kind == "spin"

    @property
    def sign(self) -> float:
        """s = +1.0 in the spin limit, -1.0 in the pseudospin limit.

        This is the only place the limit picks a sign; see ReducedEquation.
        """
        return 1.0 if self.is_spin else -1.0

    @classmethod
    def spin(cls, constant: float) -> "SymmetryLimit":
        return cls("spin", constant)

    @classmethod
    def pseudospin(cls, constant: float) -> "SymmetryLimit":
        return cls("pseudospin", constant)


BENCHMARK_C_SPIN = 5.0
BENCHMARK_C_PSEUDO = -5.0


def benchmark_params(H: float = 0.0) -> PotentialParams:
    """Reference benchmark parameter set (V0=2, A=B=1, delta=0.05, M=4.76)."""
    return PotentialParams(V0=2.0, A=1.0, B=1.0, delta=0.05, H=H, M=4.76)


def _check_r(r):
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise DomainError("r must be positive")
    return r


def _maybe_scalar(values, r):
    if np.isscalar(r) or np.ndim(r) == 0:
        return float(values)
    return values


def exact_potential(r, p: PotentialParams):
    """Exact combined potential at radius r (fm^-1).

    Sum of the Hulthen term (screening rate 2*delta), the Yukawa term and
    the inversely quadratic Yukawa term:

        V(r) = -V0 s/(1-s) - A e^{-delta r}/r - B e^{-2 delta r}/r^2

    with s = e^{-2 delta r}.  Accepts scalars or arrays, r > 0.
    """
    rr = _check_r(r)
    s = np.exp(-2.0 * p.delta * rr)
    hulthen = -p.V0 * s / (1.0 - s)
    yukawa = -p.A * np.exp(-p.delta * rr) / rr
    iq_yukawa = -p.B * s / rr ** 2
    return _maybe_scalar(hulthen + yukawa + iq_yukawa, r)


def approx_potential(r, p: PotentialParams):
    """Approximated combined potential at radius r (fm^-1).

    The 1/r and 1/r^2 factors of the Yukawa terms are replaced by their
    screened counterparts, collapsing the interaction to

        V'(r) = -(V0 + 2 A delta) s/(1-s) - 4 B delta^2 s^2/(1-s)^2

    with s = e^{-2 delta r}.  This is the form the closed-form spectrum
    solves exactly.
    """
    rr = _check_r(r)
    s = np.exp(-2.0 * p.delta * rr)
    u = s / (1.0 - s)
    return _maybe_scalar(-(p.V0 + p.v0_prime) * u - p.b_prime * u ** 2, r)


def centrifugal_approx(r, delta: float):
    """Screened stand-in for 1/r^2: 4 delta^2 s/(1-s)^2, s = e^{-2 delta r}."""
    rr = _check_r(r)
    s = np.exp(-2.0 * delta * rr)
    return _maybe_scalar(4.0 * delta ** 2 * s / (1.0 - s) ** 2, r)


def centrifugal_exact(r):
    """The exact centrifugal radial factor 1/r^2."""
    rr = _check_r(r)
    return _maybe_scalar(1.0 / rr ** 2, r)


def radial_poly_degree(qn, kind: str) -> int:
    """Degree of the polynomial factor of the solved radial component.

    The spin reduction solves for the upper component, whose node count (and
    polynomial degree) equals the radial label n.  The pseudospin reduction
    solves for the lower component, which carries one extra node when
    kappa > 0, so its polynomial degree is n + 1 there.
    """
    if kind == "pseudospin" and qn.kappa > 0:
        return qn.n + 1
    return qn.n


@dataclass(frozen=True)
class ReducedEquation:
    """The reduced radial equation of one state in one symmetry limit.

    Eliminating one spinor component leaves u'' = [U_eff(r; E) - eps(E)] u
    with U_eff = lam c(r) + s coupling(E) V(r).  The pseudospin reduction
    is the spin reduction under the charge-conjugation map
    (E, C, V0, A, B, eta) -> (-E, -C, -V0, -A, -B, -eta), so with
    s = +1 (spin) or -1 (pseudospin) every coefficient is written once:

        coupling = M + s E - s C
        lhs      = M^2 - E^2 - s C (M - s E)          (= -eps)
        alpha2   = s (V0 + 2 A delta) coupling / (4 delta^2)
        gamma2   = -s 4 B delta^2 coupling / (4 delta^2)
        D        = 1/4 + lam + gamma2,   lam = eta (eta + s)

    Only the polynomial degree does not follow from the map, so it is
    stored.  The fields s_v = s (V0 + 2 A delta) and s_b = s 4 B delta^2
    are the leading factors of alpha2 and gamma2, evaluated first as in the
    formulas above; multiplying by s = +-1 is exact, so each limit gets the
    same bits as its formulas written out separately.  Build one with
    ReducedEquation.of.
    """

    s: float
    C: float
    M: float
    lam: float
    degree: int
    s_v: float
    s_b: float
    four_d2: float
    d2: float

    @classmethod
    def of(cls, p: PotentialParams, sym: SymmetryLimit,
           qn) -> "ReducedEquation":
        """The record of state qn (only n and kappa are used) in limit sym."""
        s = sym.sign
        eta = qn.kappa + p.H
        return cls(s=s, C=sym.constant, M=p.M, lam=eta * (eta + s),
                   degree=radial_poly_degree(qn, sym.kind),
                   s_v=s * (p.V0 + p.v0_prime), s_b=s * p.b_prime,
                   four_d2=4.0 * p.delta ** 2, d2=p.delta ** 2)

    def coupling(self, E):
        """First-order coupling factor M + s E - s C."""
        return self.M + self.s * E - self.s * self.C

    def terms(self, E):
        """(coupling, lhs, alpha2, gamma2, D) at E, a float or an array."""
        coupling = self.coupling(E)
        lhs = self.M ** 2 - E ** 2 - self.s * self.C * (self.M - self.s * E)
        gamma2 = -self.s_b * coupling / self.four_d2
        # 1/4 + lam first: it is exactly 0 when eta = -s/2, so a small
        # gamma2 keeps its sign instead of vanishing beside 1/4.
        return (coupling, lhs, self.s_v * coupling / self.four_d2, gamma2,
                0.25 + self.lam + gamma2)


def spin_orbit_strength(kappa: float, H: float, kind: str) -> float:
    """Strength of the centrifugal-like term in the reduced radial equation.

    With eta = kappa + H this is eta*(eta+1) for the spin reduction (upper
    component) and eta*(eta-1) for the pseudospin reduction (lower
    component).  At H=0 these collapse to l(l+1) and ltilde(ltilde+1).
    """
    eta = kappa + H
    return eta * (eta + SymmetryLimit(kind, 0.0).sign)


def target_eigenvalue(E: float, sym: SymmetryLimit, M: float) -> float:
    """Eigenvalue of the reduced radial operator implied by energy E.

    The second-order radial equation reads u'' = [U_eff(r; E) - eps] u, and
    this returns eps, the negated lhs of ReducedEquation:

        eps = E^2 - M^2 + C_S (M - E)   (spin)
        eps = E^2 - M^2 - C_PS (M + E)  (pseudospin)

    Bound states need eps < 0 (exponential decay at large r).  It is not
    computed as -lhs: the squares here are products, and a float's E**2
    can differ from E*E in the last bit.
    """
    s = sym.sign
    return E * E - M * M + s * sym.constant * (M - s * E)


def effective_potential(r, E: float, p: PotentialParams, sym: SymmetryLimit,
                        qn, mode: str = "approximated"):
    """Effective potential U_eff(r; E) of the reduced radial equation.

    The eliminated component obeys u'' = [U_eff(r; E) - eps(E)] u with eps
    from target_eigenvalue.  For the spin reduction

        U_eff = eta(eta+1) c(r) + (M + E - C_S) V(r)

    and for the pseudospin reduction

        U_eff = eta(eta-1) c(r) - (M - E + C_PS) V(r)

    where c(r) is the centrifugal factor and V the combined potential, both
    in their approximated or exact form according to `mode`.

    Args:
        r: radius or array of radii (fm), positive.
        E: trial energy (fm^-1).
        p: potential parameters.
        sym: symmetry limit in force.
        qn: quantum numbers (only kappa is used here).
        mode: "approximated" (screened centrifugal + approximated potential)
            or "exact" (1/r^2 centrifugal + exact potential).
    """
    eq, lam_cent, pot = _effective_parts(r, p, sym, qn, mode)
    return lam_cent + eq.s * eq.coupling(E) * pot


def _effective_parts(r, p: PotentialParams, sym: SymmetryLimit, qn,
                     mode: str):
    """(eq, lam c(r), V(r)): the E-independent parts of U_eff.

    U_eff(r; E) = lam c(r) + (eq.s * eq.coupling(E)) V(r), evaluated in
    that order, which is what effective_potential returns.  A caller that
    needs U_eff at many energies builds it from these parts.
    """
    if mode not in ("approximated", "exact"):
        raise DomainError(f"mode must be 'approximated' or 'exact', got {mode!r}")
    eq = ReducedEquation.of(p, sym, qn)
    if mode == "approximated":
        cent = centrifugal_approx(r, p.delta)
        pot = approx_potential(r, p)
    else:
        cent = centrifugal_exact(r)
        pot = exact_potential(r, p)
    return eq, eq.lam * cent, pot
