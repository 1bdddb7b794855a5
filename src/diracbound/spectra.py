"""Closed-form eigenvalue residuals and bound-state root finding.

For each symmetry limit the quantization condition of the reduced radial
problem is a transcendental relation between the energy E and the potential
parameters.  It is expressed here as a residual g(E) whose zeros are the
closed-form eigenvalues.  The square-root discriminant D under g is linear
in E, so with t = sqrt(D) the energy is quadratic in t and g(E) times a
positive factor is a degree-6 polynomial in t.  `solve_levels` takes every
root of that polynomial from its companion matrix, maps the real roots
t >= 0 back to E and polishes each one by bisection on g itself; no energy
grid is scanned, so close root pairs are resolved.

The residual is built from the squared form of the quantization relation.
That form admits two root families, distinguished by the sign of the
intermediate quantity Q (see `nu_branch` on EnergyRoot): Q > 0 corresponds to
the normalizable-exponent branch of the derivation, Q < 0 to the extension
introduced by squaring.  Both families are genuine zeros of the residual and
both are returned, flagged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError
from .potentials import (PotentialParams, ReducedEquation, SymmetryLimit,
                         radial_poly_degree)

__all__ = [
    "QuantumNumbers",
    "EnergyRoot",
    "SPECTROSCOPIC_LETTERS",
    "radial_poly_degree",
    "nu_residual",
    "solve_levels",
    "select_table_root",
    "doublet_partner",
    "sweep_delta",
    "scan_v0_c",
]

SPECTROSCOPIC_LETTERS = "spdfghik"

# solve_levels searches E in [-(M + |C| + _WINDOW_PAD), M + |C| + _WINDOW_PAD]
# and polishes each root to _TOL.
_WINDOW_PAD = 1.0
_TOL = 1e-12


@dataclass(frozen=True)
class QuantumNumbers:
    """Radial quantum number n >= 0 and spin-orbit quantum number kappa != 0."""

    n: int
    kappa: int

    def __post_init__(self):
        if self.n < 0:
            raise DomainError(f"n must be >= 0, got {self.n}")
        if self.kappa == 0:
            raise DomainError("kappa must be a nonzero integer")

    @property
    def l(self) -> int:
        """Orbital angular momentum of the upper component."""
        return int(abs(self.kappa + 0.5) - 0.5)

    @property
    def l_tilde(self) -> int:
        """Orbital angular momentum of the lower component."""
        return int(abs(self.kappa - 0.5) - 0.5)

    @property
    def j(self) -> float:
        """Total angular momentum."""
        return abs(self.kappa) - 0.5

    @property
    def label(self) -> str:
        """Spectroscopic label, e.g. (0, -2) -> '0p3/2'."""
        if self.l < len(SPECTROSCOPIC_LETTERS):
            letter = SPECTROSCOPIC_LETTERS[self.l]
        else:
            letter = f"[l={self.l}]"
        return f"{self.n}{letter}{2 * abs(self.kappa) - 1}/2"


@dataclass(frozen=True)
class EnergyRoot:
    """A solved energy with validity classification.

    Flags are recomputed from the energy when the root is built:
        sqrt_domain_ok: the discriminant under the square root is >= 0.
        M_bound_ok: |E| < M.
        C_bound_ok: the coupling factor (M+E-C spin, M-E+C pseudospin) is > 0.
        sign_ok: the root is on the physically selected side (positive
            energy for spin, negative energy away from E = M + C for
            pseudospin).
        nu_branch: +1 if the intermediate quantity Q is positive at the root
            (normalizable-exponent branch), -1 otherwise.
    """

    E: float
    symmetry: SymmetryLimit
    qn: QuantumNumbers
    residual: float
    sqrt_domain_ok: bool
    M_bound_ok: bool
    C_bound_ok: bool
    sign_ok: bool
    nu_branch: int


def _parts(E, eq: ReducedEquation):
    """Pieces of the residual, (lhs, Q, D), over an array of E or one float.

    A float E stays a Python float throughout, which is far cheaper than a
    0-d array inside a polishing loop.
    """
    m = eq.degree
    _, lhs, alpha2, _, D = eq.terms(E)
    if isinstance(E, float):
        sqrtD = math.sqrt(D) if D >= 0.0 else math.nan
    else:
        sqrtD = np.sqrt(np.where(D >= 0.0, D, np.nan))
    Q = (alpha2 - eq.lam - 0.5 - m * (m + 1.0) - (2.0 * m + 1.0) * sqrtD) \
        / (m + 0.5 + sqrtD)
    return lhs, Q, D


def nu_residual(E, p: PotentialParams, sym: SymmetryLimit,
                qn: QuantumNumbers):
    """Quantization residual g(E) in limit sym; zero at the eigenvalues.

    Scalar E raises DomainError where the square-root discriminant is
    negative (no bound-state relation there); array E returns NaN at such
    points so window scans can skip domain holes.
    """
    eq = ReducedEquation.of(p, sym, qn)
    E = np.asarray(E, dtype=float)
    lhs, Q, D = _parts(E, eq)
    g = lhs - eq.d2 * Q ** 2
    if np.ndim(E) == 0:
        if not np.isfinite(g):
            raise DomainError(
                f"quantization relation undefined at E={float(E)} "
                f"(discriminant {float(D):.6g} < 0)")
        return float(g)
    return g


def classify_root(E: float, eq: ReducedEquation, sym: SymmetryLimit,
                  qn: QuantumNumbers) -> EnergyRoot:
    """Build an EnergyRoot with freshly computed validity flags."""
    lhs, Q, D = _parts(E, eq)
    residual = float(lhs - eq.d2 * Q ** 2) if np.isfinite(Q) else math.nan
    if sym.is_spin:
        sign_ok = E > 0.0
    else:
        sign_ok = E < 0.0 and abs(E - (eq.M + eq.C)) > 1e-9
    return EnergyRoot(
        E=float(E),
        symmetry=sym,
        qn=qn,
        residual=residual,
        sqrt_domain_ok=bool(D >= 0.0),
        M_bound_ok=bool(abs(E) < eq.M),
        C_bound_ok=bool(eq.coupling(E) > 0.0),
        sign_ok=bool(sign_ok),
        nu_branch=+1 if Q > 0.0 else -1,
    )


def _polynomial(eq: ReducedEquation, e_lo: float, e_hi: float):
    """(poly, e_of_x, t_of_x): the residual as a polynomial in x, or None.

    In powers of E, lhs = l0 + C E - E^2, D = d0 + d1 E with d1 = -B, and
    Q (h + t) = a0 + a1 E - w t with h = m + 1/2, w = 2m + 1, t = sqrt(D),
    so g (h + t)^2 = lhs (h + t)^2 - delta^2 (a0 + a1 E - w t)^2.  For
    B != 0, t = t0 + sigma v and E = e0 + (2 t0 + sigma v) v / scale, with
    scale = t0 + sqrt|d1|, sigma = d1 / scale and t0^2 = d0 + d1 e0, give
    D = t^2 and a degree-6 polynomial in v; every zero of g is one of its
    real roots with t >= 0.  t0 = sqrt(d0) when D stays near d0 over the
    window, which keeps the roots apart as B -> 0 (in t they bunch at
    sqrt(d0)); otherwise t0 = 0, which keeps roots near D = 0 simple.
    Roots in [e_lo, e_hi] have |v| <= V, so the polynomial is returned in
    x = v / V, coefficients from the highest power down, with leading
    coefficients negligible there dropped; e_of_x and t_of_x map x to E
    and t.  For B = 0, D is constant and g itself is a quadratic in x = E;
    None means D < 0 for every E.
    """
    s, C, m = eq.s, eq.C, eq.degree
    va = eq.s_v / eq.four_d2
    vb = -eq.s_b / eq.four_d2
    k0 = eq.M - s * C
    h, w = m + 0.5, 2.0 * m + 1.0
    l0, d2 = eq.M * k0, eq.d2
    a0, a1 = va * k0 - eq.lam - 0.5 - m * (m + 1.0), va * s
    d0, d1 = 0.25 + eq.lam + vb * k0, vb * s
    if d1 == 0.0:
        if d0 < 0.0:
            return None
        t = math.sqrt(d0)
        q0, q1 = (a0 - w * t) / (h + t), a1 / (h + t)
        poly = np.array([-1.0 - d2 * q1 * q1, C - 2.0 * d2 * q0 * q1,
                         l0 - d2 * q0 * q0])
        return poly, lambda x: x, lambda x: t
    shift = d0 > 2.0 * abs(d1) * max(abs(e_lo), abs(e_hi))
    t0 = math.sqrt(d0) if shift else 0.0
    e0 = 0.0 if shift else -d0 / d1
    scale = t0 + math.sqrt(abs(d1))
    sigma = d1 / scale
    V = 2.0 * max(abs(e_lo - e0), abs(e_hi - e0)) + 4.0
    e_x = np.array([sigma / scale * V * V, 2.0 * t0 / scale * V, e0])
    lhs = -np.convolve(e_x, e_x)
    lhs[2:] += C * e_x
    lhs[4] += l0
    num = a1 * e_x
    num[1:] -= w * sigma * V, w * t0
    num[2] += a0
    den = np.array([sigma * V, h + t0])
    poly = np.convolve(lhs, np.convolve(den, den))
    poly[2:] -= d2 * np.convolve(num, num)
    size = np.abs(poly).max()
    while abs(poly[0]) <= 1e-16 * size:
        poly = poly[1:]

    def e_of_x(x):
        v = V * x
        return e0 + (2.0 * t0 + sigma * v) * v / scale

    return poly, e_of_x, lambda x: t0 + sigma * (V * x)


def _candidates(eq: ReducedEquation, e_lo: float,
                e_hi: float) -> list[float]:
    """Unpolished real zeros of the residual: real polynomial roots, t >= 0."""
    built = _polynomial(eq, e_lo, e_hi)
    if built is None:
        return []
    poly, e_of_x, t_of_x = built
    return [e_of_x(x) for x in (z.real for z in np.roots(poly).tolist()
                                if _is_real(z))
            if t_of_x(x) >= -1e-9]


def _is_real(z: complex) -> bool:
    return abs(z.imag) <= 1e-7 * (1.0 + abs(z.real))


def _polish(g, E: float) -> Optional[float]:
    """Bisect g to _TOL on the narrowest bracket at E where it changes sign.

    The bracket starts at 1e-10 (1 + |E|) on either side of E and grows by
    4 up to 1e-5, because the t -> E map magnifies companion-root error when
    D depends weakly on E.  Returns None when no sign change is found.
    """
    g_E = g(E)
    width = 1e-10 * (1.0 + abs(E))
    while g_E != 0.0 and width <= 1e-5:
        for x in (E - width, E + width):
            g_x = g(x)
            if g_x * g_E < 0.0:
                lo, hi = min(E, x), max(E, x)
                g_lo = g_E if lo == E else g_x
                while hi - lo > _TOL:
                    mid = 0.5 * (lo + hi)
                    g_mid = g(mid)
                    if g_mid == 0.0:
                        return mid
                    if (g_lo < 0.0) == (g_mid < 0.0):
                        lo, g_lo = mid, g_mid
                    else:
                        hi = mid
                return 0.5 * (lo + hi)
        width *= 4.0
    return E if g_E == 0.0 else None


def solve_levels(qn: QuantumNumbers, sym: SymmetryLimit,
                 p: PotentialParams) -> list[EnergyRoot]:
    """All real zeros of the quantization residual in the energy window.

    Enumerates the zeros exactly as roots of a polynomial (see the module
    docstring), keeps those in the window |E| <= M + |C| + 1, polishes each
    one by bisection on the residual to 1e-12 and drops those that show no
    sign change: a zero where g only touches 0, or one exactly at the D = 0
    edge of its domain, is not returned.  Returns roots ordered by energy,
    each with recomputed validity flags; an empty list means no bound state
    in the window.
    """
    e_hi = p.M + abs(sym.constant) + _WINDOW_PAD
    e_lo = -e_hi
    eq = ReducedEquation.of(p, sym, qn)
    d2 = eq.d2

    def g(E: float) -> float:
        lhs, Q, _ = _parts(E, eq)
        return lhs - d2 * Q ** 2

    roots = []
    for E in _candidates(eq, e_lo, e_hi):
        if e_lo <= E <= e_hi:
            polished = _polish(g, E)
            if polished is not None:
                roots.append(polished)
    roots.sort()
    deduped: list[float] = []
    for r in roots:
        if not deduped or abs(r - deduped[-1]) > 10.0 * _TOL:
            deduped.append(r)
    return [classify_root(r, eq, sym, qn) for r in deduped]


def select_table_root(roots: list[EnergyRoot]) -> Optional[EnergyRoot]:
    """Tabulation convention: the smallest-|E| root flagged sign_ok."""
    valid = [r for r in roots if r.sign_ok]
    if not valid:
        return None
    return min(valid, key=lambda r: abs(r.E))


def doublet_partner(qn: QuantumNumbers, sym: SymmetryLimit) -> QuantumNumbers:
    """The degeneracy partner of a state in the given symmetry limit.

    Spin limit: (n, kappa) pairs with (n, -kappa-1), same n.  Pseudospin
    limit: (n, kappa<0) pairs with (n-1, 1-kappa) and vice versa.  Raises
    DomainError where no partner exists (spin kappa=-1, pseudospin kappa=1,
    and pseudospin n=0 with kappa<0).
    """
    if sym.is_spin:
        partner_kappa = -qn.kappa - 1
        if partner_kappa == 0:
            raise DomainError(f"{qn.label} has no spin doublet partner")
        return QuantumNumbers(qn.n, partner_kappa)
    if qn.kappa < 0:
        if qn.n == 0:
            raise DomainError(
                f"{qn.label} has no pseudospin partner (n would be negative)")
        return QuantumNumbers(qn.n - 1, 1 - qn.kappa)
    if qn.kappa == 1:
        raise DomainError(f"{qn.label} has no pseudospin doublet partner")
    return QuantumNumbers(qn.n + 1, 1 - qn.kappa)


def sweep_delta(states: list[QuantumNumbers], sym: SymmetryLimit,
                p: PotentialParams, deltas) -> list[dict]:
    """Tabulated energy of each state as the screening parameter varies.

    Returns one dict per delta value with key "delta" plus one key per state
    label holding the selected bound-state energy, or None where the state
    is unbound or the parameter point is out of domain (delta <= 0).
    """
    rows = []
    for d in np.asarray(deltas, dtype=float):
        row: dict = {"delta": float(d)}
        for qn in states:
            if d <= 0.0:
                row[qn.label] = None
                continue
            pd = PotentialParams(V0=p.V0, A=p.A, B=p.B, delta=float(d),
                                 H=p.H, M=p.M)
            root = select_table_root(solve_levels(qn, sym, pd))
            row[qn.label] = None if root is None else root.E
        rows.append(row)
    return rows


def scan_v0_c(qn: QuantumNumbers, sym_kind: str, p: PotentialParams,
              v0_values, c_values) -> np.ndarray:
    """Selected energy over a (V0, C) grid with V0 = A = B tied.

    Returns an array of shape (len(c_values), len(v0_values)); entries are
    the selected bound-state energy or NaN where no bound state exists.
    """
    v0_values = np.asarray(v0_values, dtype=float)
    c_values = np.asarray(c_values, dtype=float)
    out = np.full((c_values.size, v0_values.size), np.nan)
    for i, c in enumerate(c_values):
        sym = SymmetryLimit(sym_kind, float(c))
        for k, v0 in enumerate(v0_values):
            pv = PotentialParams(V0=float(v0), A=float(v0), B=float(v0),
                                 delta=p.delta, H=p.H, M=p.M)
            root = select_table_root(solve_levels(qn, sym, pv))
            if root is not None:
                out[i, k] = root.E
    return out
