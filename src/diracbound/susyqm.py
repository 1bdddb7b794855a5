"""Supersymmetric factorization route to the bound-state spectrum.

A superpotential W(r) = A_w - B_w e^(-2 delta r)/(1 - e^(-2 delta r))
reproduces the effective radial problem through the Riccati relation
V_mp = W^2 -/+ W'.  The partner potentials are shape invariant, the level
ladder telescopes, and the resulting quantization relation is coded here
independently of the residual in the spectra module; the two must have
identical zero sets, which the tests verify on random draws.

Sign note: the constants solved from the compatibility relations satisfy
A_w^2 = (2 delta beta)^2, which fixes only |A_w|.  The branch requirement
A_w < 0 makes the formal ground-state factor e^(-A_w r) grow at large r;
diagnostics that need the decaying resolution build a sign-flipped
constant set directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidBranchError
from .potentials import (PotentialParams, ReducedEquation, SymmetryLimit,
                         _index, _like, _reals, _screening)
from .spectra import QuantumNumbers

__all__ = [
    "SuperpotentialConstants",
    "solve_constants",
    "superpotential_at",
    "superpotential_deriv_at",
    "partner_potentials_at",
    "shape_invariance_remainder",
    "susy_residual",
    "ground_state_unnormalized",
]


@dataclass(frozen=True)
class SuperpotentialConstants:
    """Constants of the superpotential W(r) = A_w - B_w s/(1-s).

    B_w must be positive (the positive branch of the compatibility
    relation).  A_w is negative for every state solve_constants accepts;
    the dataclass itself allows either sign so that sign-resolved
    diagnostic variants can be formed.
    """

    A_w: float
    B_w: float

    def __post_init__(self):
        if self.B_w <= 0.0:
            raise InvalidBranchError(
                f"B_w must be positive, got {self.B_w:.6g}")


def solve_constants(E: float, p: PotentialParams, sym, qn: QuantumNumbers
                    ) -> SuperpotentialConstants:
    """Superpotential constants from the compatibility relations.

    B_w = delta (1 + 2 sqrt(1/4 + lambda + gamma^2)) on the positive
    branch; A_w = -B_w/2 + 2 delta^2 (alpha^2+gamma^2)/B_w.  Raises
    DomainError when the discriminant is negative and InvalidBranchError
    when A_w comes out >= 0 (the state is not representable by this
    superpotential at the given energy).
    """
    _, _, alpha2, gamma2, disc = ReducedEquation.of(p, sym, qn).terms(E)
    if disc < 0.0:
        raise DomainError(
            f"superpotential discriminant negative ({disc:.6g}) at E={E}")
    b_w = p.delta * (1.0 + 2.0 * math.sqrt(disc))
    a_w = -0.5 * b_w + 2.0 * p.delta ** 2 * (alpha2 + gamma2) / b_w
    if a_w >= 0.0:
        raise InvalidBranchError(
            f"A_w={a_w:.6g} >= 0 at E={E}: not representable "
            "by the decaying-branch superpotential")
    return SuperpotentialConstants(A_w=a_w, B_w=b_w)


def superpotential_at(r, consts: SuperpotentialConstants, delta: float):
    """W(r) = A_w - B_w s/(1-s) with s = e^(-2 delta r)."""
    _, s, oms = _screening(r, delta)
    return _like(consts.A_w - consts.B_w * s / oms, r)


def superpotential_deriv_at(r, consts: SuperpotentialConstants, delta: float):
    """dW/dr = 2 delta B_w s/(1-s)^2."""
    _, s, oms = _screening(r, delta)
    return _like(2.0 * delta * consts.B_w * s / oms ** 2, r)


def partner_potentials_at(r, consts: SuperpotentialConstants, delta: float):
    """The partner pair (V_minus, V_plus) in explicit bracketed form.

    V_minus = A^2 - (2AB + 2 delta B) s/(1-s) + (B^2 - 2 delta B) s^2/(1-s)^2
    V_plus  = A^2 - (2AB - 2 delta B) s/(1-s) + (B^2 + 2 delta B) s^2/(1-s)^2

    identical to W^2 -/+ W' by the Riccati relation.
    """
    _, s, oms = _screening(r, delta)
    a, b = consts.A_w, consts.B_w
    ratio = s / oms
    ratio2 = ratio ** 2
    tb = 2.0 * delta * b
    v_minus = a * a - (2.0 * a * b + tb) * ratio + (b * b - tb) * ratio2
    v_plus = a * a - (2.0 * a * b - tb) * ratio + (b * b + tb) * ratio2
    return _like(v_minus, r), _like(v_plus, r)


def shape_invariance_remainder(i: int, consts: SuperpotentialConstants,
                               alpha2_plus_gamma2: float,
                               delta: float) -> float:
    """Residual constant R(B_i) = V_plus(B_{i-1}, r) - V_minus(B_i, r).

    With B_i = B_w + 2 i delta and A(b) = -b/2 + 2 delta^2 g / b (g the
    combination alpha^2 + gamma^2), the remainder is A(B_{i-1})^2 - A(B_i)^2,
    independent of r.  Raises DomainError unless i is an integer >= 1.
    """
    i = _index(i, "shape-invariance index i", low=1)

    def a_of(b: float) -> float:
        return -0.5 * b + 2.0 * delta ** 2 * alpha2_plus_gamma2 / b

    b_prev = consts.B_w + 2.0 * (i - 1) * delta
    b_cur = consts.B_w + 2.0 * i * delta
    return a_of(b_prev) ** 2 - a_of(b_cur) ** 2


def susy_residual(E, p: PotentialParams, sym: SymmetryLimit,
                  qn: QuantumNumbers):
    """Quantization residual in limit sym from the shape-invariance ladder.

    The residual is lhs - delta^2 J^2 with the ladder-closure bracket

        J = 2 (alpha^2+gamma^2)/T - T/2,
        T = 1 + 2m + 2 sqrt(1/4 + lambda + gamma^2).

    Coded independently of the spectra module residual; the two have
    identical zero sets.  Scalar E raises DomainError outside the
    square-root domain, array E yields NaN there.
    """
    eq = ReducedEquation.of(p, sym, qn)
    E = _reals(E, "E")
    _, lhs, alpha2, gamma2, disc = eq.terms(E)
    m = eq.degree
    sqrt_disc = np.sqrt(np.where(disc >= 0.0, disc, np.nan))
    T = 1.0 + 2.0 * m + 2.0 * sqrt_disc
    J = 2.0 * (alpha2 + gamma2) / T - 0.5 * T
    g = lhs - p.delta ** 2 * J ** 2
    if np.ndim(E) == 0:
        if not np.isfinite(g):
            raise DomainError(
                f"ladder relation undefined at E={float(E)} "
                f"(discriminant {float(disc):.6g} < 0)")
        return float(g)
    return g


def ground_state_unnormalized(r, consts: SuperpotentialConstants,
                              delta: float):
    """Formal nodeless solution e^(-A_w r) (1-s)^(B_w/(2 delta)).

    This is exp(-integral of W): the exact zero mode of the first-order
    annihilation operator.  With A_w < 0 the exponential factor grows at
    large r, so normalizability holds only for the sign-resolved variant
    (see the module docstring); callers that need a decaying profile pass
    constants with A_w > 0.
    """
    rr, _, oms = _screening(r, delta)
    return _like(np.exp(-consts.A_w * rr)
                 * oms ** (consts.B_w / (2.0 * delta)), r)
