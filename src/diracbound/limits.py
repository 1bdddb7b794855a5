"""Closed-form special cases of the bound-state quantization relations.

Seven parameter reductions of the combined screened interaction admit their
own closed expressions: the s-wave limit, the pure Hulthen and pure Yukawa
interactions, the Coulomb-like limit (screening removed), the inversely
quadratic Yukawa interaction, the Kratzer-Fues form, and the
nonrelativistic reduction.  Each expression here is assembled on its own
from the reduced formula, independent of the general residual in
``spectra``, so the two routes can be cross-checked root by root.

Strength conventions: the Hulthen reduction is stated with the Coulomb
normalization Ze2 = V0 / (2 delta), chosen so that removing the screening
(delta -> 0) leaves -Ze2 / r.  The Yukawa strength A already carries that
normalization.

Wherever a closed form has a radial index, the polynomial degree of the
solved component is plugged in, following the same labeling convention as
the general solver (``potentials.radial_poly_degree``): for pseudospin states
with kappa > 0 the degree is n + 1, everywhere else it is n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .potentials import (PotentialParams, SymmetryLimit, _index, _like,
                         _screening, radial_poly_degree)
from .spectra import QuantumNumbers
from .wavefunctions import jacobi_p

__all__ = [
    "NonRelParams",
    "coulomb_energy",
    "hulthen_residual",
    "hulthen_roots",
    "iq_yukawa_residual",
    "kratzer_fues_residual",
    "nonrel_energy",
    "nonrel_energy_coulomb",
    "nonrel_energy_hulthen",
    "swave_exponents",
    "swave_residual",
    "swave_wavefunction",
    "yukawa_residual",
]


# ---------------------------------------------------------------------------
# 1. s-wave limit (kappa = -1 spin, kappa = +1 pseudospin)
# ---------------------------------------------------------------------------

def _swave_pieces(E: float, p: PotentialParams, sym: SymmetryLimit):
    """lhs, alpha2, gamma2 and the H-dependent centrifugal term.

    With the spin-orbit term gone, kappa = -1 (spin) leaves eta = H - 1 and
    a centrifugal remnant H(H-1); kappa = +1 (pseudospin) leaves eta = H + 1
    and H(H+1).
    """
    E = float(E)
    C = SymmetryLimit.checked(sym).constant
    four_d2 = 4.0 * p.delta ** 2
    if sym.is_spin:
        coupling = p.M + E - C
        lhs = p.M ** 2 - E ** 2 - C * (p.M - E)
        alpha2 = (p.V0 + p.v0_prime) * coupling / four_d2
        gamma2 = -p.b_prime * coupling / four_d2
        lam = p.H * (p.H - 1.0)
    else:
        coupling = p.M - E + C
        lhs = p.M ** 2 - E ** 2 + C * (p.M + E)
        alpha2 = -(p.V0 + p.v0_prime) * coupling / four_d2
        gamma2 = p.b_prime * coupling / four_d2
        lam = p.H * (p.H + 1.0)
    return lhs, alpha2, gamma2, lam


def swave_residual(E: float, p: PotentialParams, sym: SymmetryLimit,
                   n: int) -> float:
    """Quantization residual of the s-wave reduction; zero at eigenvalues.

    The spin-limit form fixes kappa = -1 (vanishing orbital angular
    momentum of the solved upper component); the pseudospin form fixes
    kappa = +1 (vanishing pseudo-orbital angular momentum).  The radial
    index n is the polynomial degree directly, so the pseudospin form at
    degree n matches the general residual at label (n - 1, kappa = +1).
    """
    n = _index(n, "radial index n")
    lhs, alpha2, gamma2, lam = _swave_pieces(E, p, sym)
    disc = 0.25 + gamma2 + lam
    if disc < 0.0:
        raise DomainError(
            f"s-wave relation undefined at E={float(E)} "
            f"(discriminant {disc:.6g} < 0)")
    root = math.sqrt(disc)
    q = (alpha2 - 0.5 - lam - n * (n + 1.0) - (2.0 * n + 1.0) * root) \
        / (n + 0.5 + root)
    return lhs - p.delta ** 2 * q * q


def swave_exponents(E: float, p: PotentialParams,
                    sym: SymmetryLimit) -> tuple[float, float]:
    """Decay rate theta and Jacobi parameter zeta of the s-wave component.

    theta is the dimensional decay constant sqrt(M^2 - E^2 -+ C (M -+ E))
    in fm^-1 (the solved component falls off as e^{-theta r}); zeta is
    sqrt(1 + 4 gamma^2 + 4 H(H -+ 1)), the second Jacobi index.
    """
    lhs, _, gamma2, lam = _swave_pieces(E, p, sym)
    if lhs < 0.0:
        raise DomainError(
            f"no real decay constant at E={float(E)} (lhs={lhs:.6g} < 0)")
    zeta_sq = 1.0 + 4.0 * gamma2 + 4.0 * lam
    if zeta_sq < 0.0:
        raise DomainError(
            f"no real Jacobi index at E={float(E)} ({zeta_sq:.6g} < 0)")
    return math.sqrt(lhs), math.sqrt(zeta_sq)


def swave_wavefunction(r, E: float, p: PotentialParams, sym: SymmetryLimit,
                       n: int):
    """Unnormalized solved s-wave component in its Jacobi polynomial form.

    e^{-theta r} (1 - e^{-2 delta r})^{(1+zeta)/2}
    P_n^{(theta/delta, zeta)}(1 - 2 e^{-2 delta r}).

    In the spin limit this is the upper component F; in the pseudospin
    limit the lower component G.  E should be an eigenvalue of
    ``swave_residual`` for the same n.
    """
    n = _index(n, "radial index n")
    theta, zeta = swave_exponents(E, p, sym)
    rr, s, one_minus_s = _screening(r, p.delta)
    return _like(np.exp(-theta * rr) * one_minus_s ** (0.5 * (1.0 + zeta))
                 * jacobi_p(n, theta / p.delta, zeta, 1.0 - 2.0 * s), r)


# ---------------------------------------------------------------------------
# 2./3. Hulthen and Yukawa limits (closed brackets, no square root left)
# ---------------------------------------------------------------------------

def _screened_coulomb_residual(E: float, p: PotentialParams,
                               sym: SymmetryLimit, qn: QuantumNumbers,
                               strength: float) -> float:
    """Shared closed bracket of the pure Hulthen and pure Yukawa limits.

    With B = 0 the square root in the general relation collapses,
    sqrt(1/4 + eta(eta+1)) = |eta + 1/2|, and the quantization condition
    closes over N = degree + kappa + H + 1 (spin) or N = degree + kappa + H
    (pseudospin).  The bracket resolves the root as eta + 1/2 resp.
    eta - 1/2, so it reproduces the general residual only on the branch
    eta + 1/2 > 0 (spin) / eta > 1/2 (pseudospin); outside that branch the
    general relation takes the other sign and the roots differ.
    """
    E = float(E)
    C = SymmetryLimit.checked(sym).constant
    m = radial_poly_degree(qn, sym.kind)
    if sym.is_spin:
        coupling = p.M + E - C
        lhs = p.M ** 2 - E ** 2 - C * (p.M - E)
        big_n = m + qn.kappa + p.H + 1.0
        if big_n == 0.0:
            raise DomainError("closed bracket undefined (n + kappa + H + 1 = 0)")
        bracket = strength * coupling / (4.0 * p.delta * big_n) - 0.5 * big_n
        return lhs - 4.0 * p.delta ** 2 * bracket * bracket
    coupling = p.M - E + C
    lhs = p.M ** 2 - E ** 2 + C * (p.M + E)
    big_n = m + qn.kappa + p.H
    if big_n == 0.0:
        raise DomainError("closed bracket undefined (n + kappa + H = 0)")
    bracket = -strength * coupling / (2.0 * p.delta * big_n) - big_n
    return lhs - p.delta ** 2 * bracket * bracket


def _screened_coulomb_roots(p: PotentialParams, sym: SymmetryLimit,
                            qn: QuantumNumbers,
                            strength: float) -> list[float]:
    """Real zeros in E of ``_screened_coulomb_residual``, in closed form.

    The bracket is linear in E, k E + b0, and lhs is -E^2 + C E + M^2 -+ C M
    in both limits, so the residual lhs - w^2 (k E + b0)^2, with w = 2 delta
    (spin) or delta (pseudospin), is the quadratic a E^2 + b E + c with
    a = -(1 + w^2 k^2) < 0.  Its roots come from the cancellation-free form
    of the quadratic formula, ascending; a double root is listed once.
    """
    C = SymmetryLimit.checked(sym).constant
    m = radial_poly_degree(qn, sym.kind)
    if sym.is_spin:
        big_n = m + qn.kappa + p.H + 1.0
        if big_n == 0.0:
            raise DomainError("closed bracket undefined (n + kappa + H + 1 = 0)")
        w = 2.0 * p.delta
        k = strength / (4.0 * p.delta * big_n)
        b0 = k * (p.M - C) - 0.5 * big_n
        const = p.M ** 2 - C * p.M
    else:
        big_n = m + qn.kappa + p.H
        if big_n == 0.0:
            raise DomainError("closed bracket undefined (n + kappa + H = 0)")
        w = p.delta
        k = strength / (2.0 * p.delta * big_n)
        b0 = -k * (p.M + C) - big_n
        const = p.M ** 2 + C * p.M
    a = -(1.0 + w * w * k * k)
    b = C - 2.0 * w * w * k * b0
    c = const - w * w * b0 * b0
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return []
    if disc == 0.0:
        return [-b / (2.0 * a)]
    q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    return sorted([q / a, c / q])


def hulthen_residual(E: float, p: PotentialParams, sym: SymmetryLimit,
                     qn: QuantumNumbers) -> float:
    """Closed-bracket residual of the pure Hulthen interaction (A = B = 0).

    Stated with the Coulomb-normalized strength Ze2 = V0 / (2 delta).
    Intended for p with A = B = 0; the terms those parameters would add are
    simply absent from the closed form, so with nonzero A or B this is a
    different equation from the general residual.
    """
    return _screened_coulomb_residual(E, p, sym, qn,
                                      p.V0 / (2.0 * p.delta))


def yukawa_residual(E: float, p: PotentialParams, sym: SymmetryLimit,
                    qn: QuantumNumbers) -> float:
    """Closed-bracket residual of the pure Yukawa interaction (V0 = B = 0).

    Same bracket as ``hulthen_residual`` with the strength A in place of
    Ze2.  Intended for p with V0 = B = 0.
    """
    return _screened_coulomb_residual(E, p, sym, qn, p.A)


def hulthen_roots(p: PotentialParams, sym: SymmetryLimit,
                  qn: QuantumNumbers) -> list[float]:
    """Every real zero of ``hulthen_residual``, ascending, without a scan."""
    return _screened_coulomb_roots(p, sym, qn, p.V0 / (2.0 * p.delta))


# ---------------------------------------------------------------------------
# 4. Coulomb-like limit (screening removed entirely)
# ---------------------------------------------------------------------------

def coulomb_energy(sym: SymmetryLimit, qn: QuantumNumbers, A: float,
                   M: float, H: float = 0.0) -> float:
    """Closed-form Coulomb energy, the delta -> 0 limit of the Yukawa case.

    Spin limit: E = [A^2 (C - M) + 4 M N^2] / [A^2 + 4 N^2] with
    N = degree + kappa + H + 1.  Pseudospin limit:
    E = [A^2 (M + C) - 4 M N^2] / [A^2 + 4 N^2] with N = degree + kappa + H.
    C is the constant of `sym`.  No root finding is involved.
    """
    C = SymmetryLimit.checked(sym).constant
    m = radial_poly_degree(qn, sym.kind)
    a2 = A * A
    if sym.is_spin:
        big_n = m + qn.kappa + H + 1.0
        return (a2 * (C - M) + 4.0 * M * big_n ** 2) / (a2 + 4.0 * big_n ** 2)
    big_n = m + qn.kappa + H
    return (a2 * (M + C) - 4.0 * M * big_n ** 2) / (a2 + 4.0 * big_n ** 2)


# ---------------------------------------------------------------------------
# 5. Inversely quadratic Yukawa limit (V0 = A = 0)
# ---------------------------------------------------------------------------

def iq_yukawa_residual(E: float, p: PotentialParams, sym: SymmetryLimit,
                       qn: QuantumNumbers) -> float:
    """Residual with only the 1/r^2-type screened term left (V0 = A = 0).

    The attractive-strength term alpha^2 is absent; only gamma^2 and the
    spin-orbit eta terms remain.  Intended for p with V0 = A = 0; the
    Hulthen and Yukawa strengths do not enter this form at all.
    """
    E = float(E)
    C = SymmetryLimit.checked(sym).constant
    m = radial_poly_degree(qn, sym.kind)
    eta = qn.kappa + p.H
    four_d2 = 4.0 * p.delta ** 2
    if sym.is_spin:
        coupling = p.M + E - C
        lhs = p.M ** 2 - E ** 2 - C * (p.M - E)
        gamma2 = -p.b_prime * coupling / four_d2
        lam = eta * (eta + 1.0)
    else:
        coupling = p.M - E + C
        lhs = p.M ** 2 - E ** 2 + C * (p.M + E)
        gamma2 = p.b_prime * coupling / four_d2
        lam = eta * (eta - 1.0)
    disc = 0.25 + gamma2 + lam
    if disc < 0.0:
        raise DomainError(
            f"relation undefined at E={E} (discriminant {disc:.6g} < 0)")
    root = math.sqrt(disc)
    q = (lam + 0.5 + m * (m + 1.0) + (2.0 * m + 1.0) * root) \
        / (m + 0.5 + root)
    return lhs - p.delta ** 2 * q * q


# ---------------------------------------------------------------------------
# 6. Kratzer-Fues limit (delta -> 0 with A and B held fixed, V0 = 0)
# ---------------------------------------------------------------------------

def kratzer_fues_residual(E: float, sym: SymmetryLimit, qn: QuantumNumbers,
                          A: float, B: float, M: float,
                          H: float = 0.0) -> float:
    """Residual of the -A/r - B/r^2 form, free of the screening parameter.

    Spin limit: M^2 - E^2 - C (M - E)
    = A^2 (M - C + E)^2 / (2n + 1 + 2 sqrt(B (C - E - M) + (eta + 1/2)^2))^2;
    pseudospin analog with +C (M + E), (C - E + M) and (eta - 1/2)^2.
    C is the constant of `sym`.  Evaluates only where the square-root
    argument is nonnegative.
    """
    E = float(E)
    C = SymmetryLimit.checked(sym).constant
    m = radial_poly_degree(qn, sym.kind)
    eta = qn.kappa + H
    if sym.is_spin:
        lhs = M ** 2 - E ** 2 - C * (M - E)
        arg = B * (C - E - M) + (eta + 0.5) ** 2
        num = A * A * (M - C + E) ** 2
    else:
        lhs = M ** 2 - E ** 2 + C * (M + E)
        arg = B * (C - E + M) + (eta - 0.5) ** 2
        num = A * A * (C - E + M) ** 2
    if arg < 0.0:
        raise DomainError(
            f"relation undefined at E={E} (square-root argument "
            f"{arg:.6g} < 0)")
    den = 2.0 * m + 1.0 + 2.0 * math.sqrt(arg)
    return lhs - num / (den * den)


# ---------------------------------------------------------------------------
# 7. Nonrelativistic reduction (E + M -> 2m, E - M -> E_nl, C = H = 0)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NonRelParams:
    """Inputs of the nonrelativistic closed forms.

    Attributes:
        m: particle mass (fm^-1), the M of the relativistic problem.
        l: orbital angular momentum quantum number.
        Ze2: Coulomb-normalized Hulthen strength, V0 / (2 delta).
        A: Yukawa strength (fm^-1).
        B: inversely quadratic strength.
        delta: screening parameter (fm^-1).
    """

    m: float
    l: int
    Ze2: float
    A: float
    B: float
    delta: float

    def __post_init__(self):
        for name in ("m", "Ze2", "A", "B", "delta"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value!r}")
        if self.m <= 0:
            raise DomainError(f"mass must be positive, got {self.m}")
        _index(self.l, "l")
        if self.delta <= 0:
            raise DomainError(f"delta must be positive, got {self.delta}")

    @classmethod
    def from_potential(cls, p: PotentialParams, l: int) -> "NonRelParams":
        """The reduction map from the relativistic parameter set.

        Sets the mass to M, converts the Hulthen strength to its Coulomb
        normalization Ze2 = V0 / (2 delta), and carries A, B, delta over.
        The reduction assumes no tensor term, so p.H must be zero.
        """
        if p.H != 0.0:
            raise DomainError(
                "nonrelativistic reduction assumes no tensor term (H = 0), "
                f"got H={p.H}")
        return cls(m=p.M, l=l, Ze2=p.V0 / (2.0 * p.delta), A=p.A, B=p.B,
                   delta=p.delta)


def nonrel_energy(nrp: NonRelParams, n: int) -> float:
    """Nonrelativistic energy of the full reduced interaction.

    E_nl = -(1/2m) [ (m (A + Ze2) - delta (l(l+1) + n(n+1) + 1/2
           + (2n+1) sqrt(W))) / (n + 1/2 + sqrt(W)) ]^2
    with W = l(l+1) + 1/4 - 2 m B.  Raises DomainError when W < 0.
    """
    n = _index(n, "radial index n")
    w = nrp.l * (nrp.l + 1.0) + 0.25 - 2.0 * nrp.m * nrp.B
    if w < 0.0:
        raise DomainError(
            f"square-root argument l(l+1) + 1/4 - 2 m B = {w:.6g} < 0")
    root = math.sqrt(w)
    num = nrp.m * (nrp.A + nrp.Ze2) - nrp.delta * (
        nrp.l * (nrp.l + 1.0) + n * (n + 1.0) + 0.5
        + (2.0 * n + 1.0) * root)
    den = n + 0.5 + root
    return -(num / den) ** 2 / (2.0 * nrp.m)


def nonrel_energy_hulthen(nrp: NonRelParams, n: int) -> float:
    """The B = 0 simplification of ``nonrel_energy``.

    E_nl = -(1/2m) [ (delta (l + n + 1)^2 - m (A + Ze2)) / (l + n + 1) ]^2.
    nrp.B is ignored.
    """
    n = _index(n, "radial index n")
    big_n = nrp.l + n + 1.0
    num = nrp.delta * big_n ** 2 - nrp.m * (nrp.A + nrp.Ze2)
    return -(num / big_n) ** 2 / (2.0 * nrp.m)


def nonrel_energy_coulomb(nrp: NonRelParams, n: int) -> float:
    """Pure Coulomb spectrum E_nl = -m Ze2^2 / (2 (l + n + 1)^2).

    The delta -> 0, A = 0, B = 0 limit; only m, l and Ze2 enter.
    """
    n = _index(n, "radial index n")
    big_n = nrp.l + n + 1.0
    return -nrp.m * nrp.Ze2 ** 2 / (2.0 * big_n ** 2)
