"""Closed-form eigenvalue residuals and bound-state root finding.

For each symmetry limit the quantization condition of the reduced radial
problem is a transcendental relation between the energy E and the potential
parameters.  It is expressed here as a residual g(E) whose zeros are the
closed-form eigenvalues.  The square-root discriminant D under g is linear
in E, so with t = sqrt(D) the energy is quadratic in t and g(E) times a
positive factor is a degree-6 polynomial in t.  No energy grid is scanned,
so close root pairs are resolved.

`solve_levels_batch` is the one root finder.  For a whole batch of
(state, limit, parameters) queries it stacks the reduced-equation records
into arrays, builds every row's polynomial at once, takes the roots of all
rows of one degree from a single stacked eigenvalue call on their companion
matrices (polynomial roots are companion-matrix eigenvalues), maps the real
roots t >= 0 back to E and polishes all of them together by bisection on g
itself.  Each row follows exactly the steps it would follow alone, so a
row's roots do not depend on the rest of its batch.  `solve_levels` is a
batch of one.  The tables, delta sweeps, grid scans and spinors keep one
energy per query, the one `select_table_root` picks; `table_energies`
selects it from the arrays of roots and builds no EnergyRoot.  That
energy must lie on one side of E = 0 (E > 0 for spin, E < 0 for
pseudospin), and most rows of a scan hold no root there, so each row is
first proved empty or kept.  The proof takes the row's polynomial, built
once for both, on the x interval of the energies within 1e-4 of that side
(1e-4 lies far above how far bisection moves a root from its companion
root), written in the Bernstein basis: if every coefficient has one sign,
with a margin far above rounding, the residual has no zero there, and the
row gets NaN without an eigensolve.  A kept row is solved exactly as
before, so every selected energy keeps its bits.

The residual is built from the squared form of the quantization relation.
That form admits two root families, distinguished by the sign of the
intermediate quantity Q (see `nu_branch` on EnergyRoot): Q > 0 corresponds to
the normalizable-exponent branch of the derivation, Q < 0 to the extension
introduced by squaring.  Both families are genuine zeros of the residual and
both are returned, flagged.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from itertools import islice
from typing import Optional

import numpy as np

from .errors import DomainError
from .potentials import (PotentialParams, ReducedEquation, SymmetryLimit,
                         _index, _reals)

__all__ = [
    "QuantumNumbers",
    "EnergyRoot",
    "SPECTROSCOPIC_LETTERS",
    "nu_residual",
    "solve_levels",
    "solve_levels_batch",
    "select_table_root",
    "table_energies",
    "doublet_partner",
    "sweep_delta",
    "scan_v0_c",
]

SPECTROSCOPIC_LETTERS = "spdfghik"

# solve_levels searches E in [-(M + |C| + _WINDOW_PAD), M + |C| + _WINDOW_PAD]
# and polishes each root to _TOL.
_WINDOW_PAD = 1.0
_TOL = 1e-12
# At most this many rows are solved at once, which bounds the size, and so
# the peak memory, of the stacked arrays.
_CHUNK = 512
# table_energies skips rows that provably hold no selectable root (see
# _table_energies): _REACH is an energy margin above how far a root can
# move after the eigensolve, _T_REACH a margin in t = sqrt(D) below D = 0,
# and _SIGN_TOL bounds rounding relative to the polynomial's size.
_REACH = 1e-4
_T_REACH = 1e-6
_SIGN_TOL = 1e-9
# _BERNSTEIN[k, i] = binom(i, k) / binom(6, k): row vectors of power
# coefficients on [0, 1] times it give the degree-6 Bernstein coefficients.
_BERNSTEIN = np.array([[math.comb(i, k) / math.comb(6, k) if k <= i else 0.0
                        for i in range(7)] for k in range(7)])


@dataclass(frozen=True)
class QuantumNumbers:
    """Radial quantum number n >= 0 and spin-orbit quantum number kappa != 0."""

    n: int
    kappa: int

    def __post_init__(self):
        _index(self.n, "n")
        if not isinstance(self.kappa, numbers.Integral) or self.kappa == 0:
            raise DomainError(
                f"kappa must be a nonzero integer, got {self.kappa!r}")

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
    """(g, Q, D) at E; g and Q are NaN where the discriminant D is < 0.

    E and the fields of eq are arrays that broadcast together: one state
    at many energies, or one energy per row of a stacked record.
    """
    m = eq.degree
    _, lhs, alpha2, _, D = eq.terms(E)
    sqrtD = np.sqrt(np.where(D >= 0.0, D, np.nan))
    Q = (alpha2 - eq.lam - 0.5 - m * (m + 1.0) - (2.0 * m + 1.0) * sqrtD) \
        / (m + 0.5 + sqrtD)
    return lhs - eq.d2 * Q ** 2, Q, D


def nu_residual(E, p: PotentialParams, sym: SymmetryLimit,
                qn: QuantumNumbers):
    """Quantization residual g(E) in limit sym; zero at the eigenvalues.

    Scalar E raises DomainError where the square-root discriminant is
    negative (no bound-state relation there); array E returns NaN at such
    points so window scans can skip domain holes.
    """
    eq = ReducedEquation.of(p, sym, qn)
    E = _reals(E, "E")
    g, _, D = _parts(E, eq)
    if np.ndim(E) == 0:
        if not np.isfinite(g):
            raise DomainError(
                f"quantization relation undefined at E={float(E)} "
                f"(discriminant {float(D):.6g} < 0)")
        return float(g)
    return g


def _stack(eqs) -> ReducedEquation:
    """One ReducedEquation whose fields are arrays over the given records."""
    table = np.array([tuple(vars(eq).values()) for eq in eqs], dtype=float)
    return ReducedEquation(*table.T)


def _take(eq: ReducedEquation, idx) -> ReducedEquation:
    """The rows idx of a stacked record."""
    return ReducedEquation(**{name: value[idx]
                              for name, value in vars(eq).items()})


def _convolve(a, b):
    """The full convolution of each row of a with the same row of b."""
    nb = b.shape[1]
    out = np.zeros((a.shape[0], a.shape[1] + nb - 1))
    for i in range(a.shape[1]):
        out[:, i:i + nb] += a[:, i, None] * b
    return out


def _polynomial(eq: ReducedEquation, e_lo, e_hi, span=None):
    """(poly, e_of_x, t_of_x): each row's residual as a polynomial in x.

    In powers of E, lhs = l0 + C E - E^2, D = d0 + d1 E with d1 = -B, and
    Q (h + t) = a0 + a1 E - w t with h = m + 1/2, w = 2m + 1, t = sqrt(D),
    so g (h + t)^2 = lhs (h + t)^2 - delta^2 (a0 + a1 E - w t)^2.  For
    B != 0, t = t0 + sigma v and E = e0 + (2 t0 + sigma v) v / scale, with
    scale = t0 + sqrt|d1|, sigma = d1 / scale and t0^2 = d0 + d1 e0, give
    D = t^2 and a degree-6 polynomial in v; every zero of g is one of its
    real roots with t >= 0.  t0 = sqrt(d0) when D stays near d0 over the
    window, which keeps the roots apart as B -> 0 (in t they bunch at
    sqrt(d0)); otherwise t0 = 0, which keeps roots near D = 0 simple.
    Roots in [e_lo, e_hi] have |v| <= V, so the polynomial is taken in
    x = v / V.  For B = 0, D is constant and g itself is a quadratic in
    x = E.

    eq is a stacked record (see _stack) and e_lo, e_hi broadcast against
    its rows.  poly has one row of 7 coefficients per state, highest power
    first: leading coefficients negligible over the window are set to 0, a
    quadratic fills the last 3 columns, and a row that is all 0 has no
    roots (B = 0 with D < 0 for every E).  e_of_x and t_of_x map x, an
    array whose last axis runs over the rows, to E and t.

    span = (lo, hi), energies that broadcast against the rows, also sets
    to 0 each row whose polynomial provably keeps one sign at the x of
    every E in [lo, hi] with t >= -_T_REACH (_one_sign), and each row
    whose D is below -_T_REACH^2 all over [lo, hi].  E is monotone in
    t >= 0 and t is linear in x, so those x form one interval: [lo, hi]
    itself for B = 0; between the x of lo and of hi where t0 > 0; and
    where t0 = 0, from t = -_T_REACH (or the t of the span's smallest D,
    when that is above _T_REACH^2) to the t of its largest D.
    """
    s, C, m = eq.s, eq.C, eq.degree
    va = eq.s_v / eq.four_d2
    vb = -eq.s_b / eq.four_d2
    k0 = eq.M - s * C
    h, w = m + 0.5, 2.0 * m + 1.0
    l0, d2 = eq.M * k0, eq.d2
    a0, a1 = va * k0 - eq.lam - 0.5 - m * (m + 1.0), va * s
    d0, d1 = 0.25 + eq.lam + vb * k0, vb * s
    quad = d1 == 0.0
    with np.errstate(all="ignore"):
        shift = quad | (d0 > 2.0 * np.abs(d1)
                        * np.maximum(np.abs(e_lo), np.abs(e_hi)))
        t0 = np.where(shift, np.sqrt(d0), 0.0)
        e0 = np.where(shift, 0.0, -d0 / d1)
        scale = t0 + np.sqrt(np.abs(d1))
        sigma = d1 / scale
        V = 2.0 * np.maximum(np.abs(e_lo - e0), np.abs(e_hi - e0)) + 4.0
        e_x = np.stack([sigma / scale * V * V, 2.0 * t0 / scale * V, e0], 1)
        lhs = -_convolve(e_x, e_x)
        lhs[:, 2:] += C[:, None] * e_x
        lhs[:, 4] += l0
        num = a1[:, None] * e_x
        num[:, 1] -= w * sigma * V
        num[:, 2] -= w * t0
        num[:, 2] += a0
        den = np.stack([sigma * V, h + t0], 1)
        poly = _convolve(lhs, _convolve(den, den))
        poly[:, 2:] -= d2[:, None] * _convolve(num, num)
        q0, q1 = (a0 - w * t0) / (h + t0), a1 / (h + t0)
        poly[quad] = 0.0
        poly[quad, 4:] = np.stack([-1.0 - d2 * q1 * q1,
                                   C - 2.0 * d2 * q0 * q1,
                                   l0 - d2 * q0 * q0], 1)[quad]
    poly[quad & ~(d0 >= 0.0)] = 0.0
    # A quadratic keeps every coefficient; only exact zeros lead it.
    size = np.where(quad, 0.0, 1e-16 * np.abs(poly).max(axis=1))
    poly[np.logical_and.accumulate(np.abs(poly) <= size[:, None], 1)] = 0.0
    if span is not None:
        with np.errstate(all="ignore"):
            ends = np.stack(span)
            d = d0 + d1 * ends
            # t0 > 0: D stays near d0 > 0, and x = scale E / ((t + t0) V)
            # is (t - t0) / (sigma V) without its cancellation (e0 = 0).
            x_shift = scale * ends / ((np.sqrt(d) + t0) * V)
            # t0 = 0: x = t / (sigma V), down to t = -_T_REACH if the span
            # reaches D = 0, and nothing left if D < 0 all over it.
            d_lo, d_hi = d.min(axis=0), d.max(axis=0)
            t_lo = np.where(d_lo <= _T_REACH ** 2, -_T_REACH, np.sqrt(d_lo))
            x_root = np.stack([t_lo, np.sqrt(np.maximum(d_hi, 0.0))]) \
                / (sigma * V)
            x = np.where(quad, ends, np.where(shift, x_shift, x_root))
            empty = ~shift & (d_hi < -_T_REACH ** 2)
            poly[empty | _one_sign(poly, x.min(axis=0), x.max(axis=0))] = 0.0
    # For B = 0 the maps below give E = x and t = sqrt(d0), exactly.
    two_t0 = np.where(quad, 1.0, 2.0 * t0)
    e0, sigma = np.where(quad, 0.0, e0), np.where(quad, 0.0, sigma)
    scale, V = np.where(quad, 1.0, scale), np.where(quad, 1.0, V)

    def e_of_x(x):
        v = V * x
        return e0 + (two_t0 + sigma * v) * v / scale

    return poly, e_of_x, lambda x: t0 + sigma * (V * x)


def _one_sign(poly, a, b):
    """Rows of poly that keep one sign, away from 0, for x in [a, b].

    The polynomial is shifted to q(u) = poly(a + (b - a) u), u in [0, 1],
    and written in the degree-6 Bernstein basis.  Those basis functions
    are >= 0 and sum to 1 there, so q lies between its least and its
    greatest Bernstein coefficient (Descartes' rule in Bernstein form;
    Basu, Pollack and Roy, Algorithms in Real Algebraic Geometry, ch. 10).
    A row counts when all its coefficients exceed tau, or all lie below
    -tau, with tau = _SIGN_TOL times the sum of |q|'s power coefficients,
    a bound on |q| over [0, 1].  Rounding in the polynomial's and the
    Bernstein coefficients, and in the residual as _parts computes it, is
    about 1e-16 of the terms they are summed from; tau leaves seven orders
    of magnitude for those terms to exceed the sum by cancellation, so the
    computed residual has q's sign too.  A row of zeros never counts.
    """
    c = poly.T[::-1].copy()         # power coefficients, lowest first
    for i in range(6):              # Taylor shift: c(x) -> c(x + a)
        for k in range(5, i - 1, -1):
            c[k] += a * c[k + 1]
    c *= (b - a) ** np.arange(7)[:, None]
    tau = _SIGN_TOL * np.abs(c).sum(axis=0)
    # Not a matmul: its first BLAS call would raise the peak RSS of a
    # scan by about 0.3 MB.
    bern = sum(np.multiply.outer(w, ck) for w, ck in zip(_BERNSTEIN, c))
    return (bern > tau).all(axis=0) | (bern < -tau).all(axis=0)


def _companion_roots(poly):
    """Every row's polynomial roots, as numpy.roots gives them, in (6, rows).

    Leading zero coefficients are dropped and trailing ones give roots at
    0; the rest are the eigenvalues of the companion matrix.  Rows are
    grouped by its size, and each group takes one stacked eigvals call.
    Unused entries are NaN.
    """
    rows = poly.shape[0]
    nonzero = poly != 0.0
    lead = nonzero.argmax(axis=1)
    trail = nonzero[:, ::-1].argmax(axis=1)
    order = np.where(nonzero.any(axis=1), 6 - lead - trail, -1)
    roots = np.full((rows, 6), np.nan, dtype=complex)
    slot = np.arange(6)
    roots[(slot >= order[:, None]) & (slot < (order + trail)[:, None])] = 0.0
    for k in range(1, 7):
        group = np.flatnonzero(order == k)
        if not group.size:
            continue
        p = poly[group[:, None], lead[group, None] + np.arange(k + 1)]
        companion = np.zeros((group.size, k, k))
        companion[:, 0, :] = -p[:, 1:] / p[:, :1]
        companion[:, np.arange(1, k), np.arange(k - 1)] = 1.0
        roots[group, :k] = np.linalg.eigvals(companion)
    return roots.T


def _bisect(E, eq: ReducedEquation):
    """Bisect g to _TOL on the narrowest bracket at each E with a sign change.

    Each bracket starts at 1e-10 (1 + |E|) on either side of E, the lower
    side first, and grows by 4 up to 1e-5, because the t -> E map magnifies
    companion-root error when D depends weakly on E.  An E where g is
    exactly 0 is its own root; NaN marks an E with no sign change.  Every
    entry follows the steps it would follow alone.
    """
    g_E = _parts(E, eq)[0]
    width = 1e-10 * (1.0 + np.abs(E))
    lo, hi, g_lo = (np.full(E.shape, np.nan) for _ in range(3))
    search = g_E != 0.0
    while (search := search & (width <= 1e-5)).any():
        x = E + np.array([[-1.0], [1.0]]) * width
        g_x = _parts(x, eq)[0]
        change = g_x * g_E < 0.0
        side = np.where(change[0], 0, 1)
        x, g_x = np.choose(side, x), np.choose(side, g_x)
        found = search & (change[0] | change[1])
        lo = np.where(found, np.minimum(E, x), lo)
        hi = np.where(found, np.maximum(E, x), hi)
        g_lo = np.where(found, np.where(lo == E, g_E, g_x), g_lo)
        search &= ~found
        width = width * 4.0
    active = hi - lo > _TOL
    while active.any():
        mid = 0.5 * (lo + hi)
        g_mid = _parts(mid, eq)[0]
        # An exact zero closes its bracket on mid, whose midpoint is mid.
        hit = active & (g_mid == 0.0)
        up = active & ((g_lo < 0.0) == (g_mid < 0.0))
        lo, g_lo = np.where(up | hit, mid, lo), np.where(up, g_mid, g_lo)
        hi = np.where(active & ~up | hit, mid, hi)
        active = hi - lo > _TOL
    return np.where(g_E == 0.0, E, 0.5 * (lo + hi))


def _sign_ok(E, eq: ReducedEquation):
    """The sign_ok flag of EnergyRoot at each E, one row of eq per E."""
    return np.where(eq.s > 0.0, E > 0.0,
                    (E < 0.0) & (np.abs(E - (eq.M + eq.C)) > 1e-9))


def _dedupe(row, E):
    """Mask of the roots kept from (row, E) arrays sorted by row, then E.

    A root within 10 _TOL of the last kept root of its row is dropped.  A
    root further than that from the root just before it is kept, since the
    last kept root lies no closer; only the rare roots that are close to
    the one before them are compared with the last kept root, in order.
    """
    keep = np.ones(row.size, dtype=bool)
    keep[1:] = (row[1:] != row[:-1]) | (E[1:] - E[:-1] > 10.0 * _TOL)
    for i in np.flatnonzero(~keep):
        last = i - 1
        while not keep[last]:
            last -= 1
        keep[i] = E[i] - E[last] > 10.0 * _TOL
    return keep


def _roots(eq: ReducedEquation, selectable=False):
    """(row, E): the roots solve_levels keeps for each row of eq.

    eq is a stacked record (see _stack).  The arrays are sorted by row,
    then by E, and hold each row's roots exactly as solve_levels returns
    them for that row alone.  selectable=True keeps only what
    _table_energies needs: candidates beyond _REACH on the wrong side of
    E = 0 are dropped before bisection, and rows that provably hold no
    root on the right side are not solved (see _table_energies).
    """
    e_hi = eq.M + np.abs(eq.C) + _WINDOW_PAD
    e_lo = -e_hi
    lo, hi, span = e_lo, e_hi, None
    if selectable:
        spin = eq.s > 0.0
        lo, hi = np.where(spin, -_REACH, e_lo), np.where(spin, e_hi, _REACH)
        span = (lo - _REACH, hi + _REACH)
    poly, e_of_x, t_of_x = _polynomial(eq, e_lo, e_hi, span)
    z = _companion_roots(poly)
    x = z.real
    E = e_of_x(x)
    keep = ((np.abs(z.imag) <= 1e-7 * (1.0 + np.abs(x)))
            & (t_of_x(x) >= -1e-9) & (lo <= E) & (E <= hi))
    row = np.nonzero(keep)[1]
    E = _bisect(E[keep], _take(eq, row))
    found = ~np.isnan(E)
    row, E = row[found], E[found]
    order = np.lexsort((E, row))
    row, E = row[order], E[order]
    keep = _dedupe(row, E)
    return row[keep], E[keep]


def _table_energies(eq: ReducedEquation):
    """The energy select_table_root picks for each row of eq, or NaN.

    Among a row's sign_ok roots that is the one of smallest |E|, the first
    in E order on a tie: the sort below is stable.

    sign_ok needs E > 0 (spin) or E < 0 (pseudospin), and most rows hold
    no root on that side, so rows are proved empty before the eigensolve.
    After it a root moves at most 1e-5 from its companion root (the
    bracket search's widest reach; the _TOL polish stays in the bracket,
    and the 10 _TOL dedupe only drops roots), so only candidates within
    _REACH = 1e-4 of that side can end sign_ok: E >= -_REACH (spin) or
    E <= _REACH (pseudospin), in the window.  Every bracket around them
    lies in that range widened by _REACH.  A row whose residual keeps one
    sign there (_polynomial's span; _one_sign) has no bracket with a sign
    change or an exact zero in it, so it gets NaN without a companion
    eigensolve or a bisection; so does a row whose range has D < 0
    throughout, or whose polynomial is all 0.  The other rows drop the
    candidates outside the range: their roots lie 9e-5 beyond E = 0, out
    of the dedupe's reach of any sign_ok root.  Each row is solved
    independently, so a kept row's bits are those of the full
    enumeration.
    """
    row, E = _roots(eq, selectable=True)
    ok = _sign_ok(E, _take(eq, row))
    row, E = row[ok], E[ok]
    order = np.lexsort((np.abs(E), row))
    row, E = row[order], E[order]
    first = np.ones(row.size, dtype=bool)
    first[1:] = row[1:] != row[:-1]
    out = np.full(eq.M.shape, np.nan)
    out[row[first]] = E[first]
    return out


def _table_energies_chunked(size: int, record) -> np.ndarray:
    """_table_energies of size rows, solved _CHUNK rows at a time.

    record(lo, hi) returns the stacked record of rows lo to hi, so only
    one chunk's arrays exist at once.
    """
    out = np.empty(size)
    for lo in range(0, size, _CHUNK):
        hi = min(lo + _CHUNK, size)
        out[lo:hi] = _table_energies(record(lo, hi))
    return out


def _solve_chunk(queries) -> list[list[EnergyRoot]]:
    """solve_levels of each query, computed together over arrays."""
    eq = _stack([ReducedEquation.of(p, sym, qn) for qn, sym, p in queries])
    row, E = _roots(eq)
    eq = _take(eq, row)
    g, Q, D = _parts(E, eq)
    flags = zip(
        E.tolist(), row.tolist(), g.tolist(),
        (D >= 0.0).tolist(), (np.abs(E) < eq.M).tolist(),
        (eq.coupling(E) > 0.0).tolist(), _sign_ok(E, eq).tolist(),
        (Q > 0.0).tolist())
    out: list[list[EnergyRoot]] = [[] for _ in queries]
    for E, i, residual, domain, m_ok, c_ok, sign_ok, positive in flags:
        qn, sym, _ = queries[i]
        out[i].append(EnergyRoot(
            E=E, symmetry=sym, qn=qn, residual=residual,
            sqrt_domain_ok=domain, M_bound_ok=m_ok, C_bound_ok=c_ok,
            sign_ok=sign_ok, nu_branch=+1 if positive else -1))
    return out


def solve_levels_batch(queries) -> list[list[EnergyRoot]]:
    """solve_levels for each (qn, sym, p) of queries, solved together.

    Returns one list per query, each exactly what solve_levels returns for
    that query alone: the rows of a batch do not affect each other.  At
    most _CHUNK queries are solved at once, which bounds the memory of the
    stacked arrays.
    """
    queries = iter(queries)
    out: list[list[EnergyRoot]] = []
    while chunk := list(islice(queries, _CHUNK)):
        out += _solve_chunk(chunk)
    return out


def solve_levels(qn: QuantumNumbers, sym: SymmetryLimit,
                 p: PotentialParams) -> list[EnergyRoot]:
    """All real zeros of the quantization residual in the energy window.

    A batch of one for solve_levels_batch.  The zeros are enumerated
    exactly as roots of a polynomial (see the module docstring); those in
    the window |E| <= M + |C| + 1 are polished by bisection on the
    residual to 1e-12, and those that show no sign change are dropped: a
    zero where g only touches 0, or one exactly at the D = 0 edge of its
    domain, is not returned.  Returns roots ordered by energy, each with
    validity flags computed at its energy; an empty list means no bound
    state in the window.
    """
    return solve_levels_batch([(qn, sym, p)])[0]


def select_table_root(roots: list[EnergyRoot]) -> Optional[EnergyRoot]:
    """Tabulation convention: the smallest-|E| root flagged sign_ok."""
    valid = [r for r in roots if r.sign_ok]
    if not valid:
        return None
    return min(valid, key=lambda r: abs(r.E))


def table_energies(queries) -> np.ndarray:
    """The tabulated energy of each (qn, sym, p) of queries, or NaN.

    Entry i is the energy of select_table_root(solve_levels(*queries[i])),
    bit for bit, or NaN where that is None.  Only that energy is kept of
    each query's roots, and no EnergyRoot is built (see _table_energies);
    at most _CHUNK queries are solved at once.
    """
    eqs = [ReducedEquation.of(p, sym, qn) for qn, sym, p in queries]
    return _table_energies_chunked(len(eqs),
                                   lambda lo, hi: _stack(eqs[lo:hi]))


def doublet_partner(qn: QuantumNumbers, sym: SymmetryLimit) -> QuantumNumbers:
    """The degeneracy partner of a state in the given symmetry limit.

    Spin limit: (n, kappa) pairs with (n, -kappa-1), same n.  Pseudospin
    limit: (n, kappa<0) pairs with (n-1, 1-kappa) and vice versa.  Raises
    DomainError where no partner exists (spin kappa=-1, pseudospin kappa=1,
    and pseudospin n=0 with kappa<0).
    """
    if SymmetryLimit.checked(sym).is_spin:
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
                p: PotentialParams, deltas) -> np.ndarray:
    """Tabulated energy of each state as the screening parameter varies.

    Returns an array of shape (len(deltas), len(states)): the energy
    table_energies selects, or NaN where the state is unbound or the
    parameter point is out of domain (delta <= 0).  Every state at every
    delta is solved in one batch.
    """
    deltas = np.asarray(deltas, dtype=float)
    # Every delta is checked, with or without states; ~(d <= 0) keeps a
    # NaN delta, which PotentialParams then rejects.
    solved = ~(deltas <= 0.0)
    params = [replace(p, delta=d) for d in deltas[solved].tolist()]
    out = np.full((deltas.size, len(states)), np.nan)
    out[solved] = table_energies(
        [(qn, sym, pd) for pd in params for qn in states]
    ).reshape(len(params), len(states))
    return out


def scan_v0_c(qn: QuantumNumbers, sym_kind: str, p: PotentialParams,
              v0_values, c_values) -> np.ndarray:
    """Selected energy over a (V0, C) grid with V0 = A = B tied.

    Returns an array of shape (len(c_values), len(v0_values)); entries are
    the selected bound-state energy or NaN where no bound state exists.
    The whole grid is solved as one batch, of which only the selected
    energies are kept.
    """
    v0_values = np.asarray(v0_values, dtype=float).tolist()
    c_values = np.asarray(c_values, dtype=float).tolist()
    # The kind is checked by this limit even when the C axis is empty.
    base = SymmetryLimit(sym_kind, 0.0)
    tied = [PotentialParams(V0=v0, A=v0, B=v0, delta=p.delta, H=p.H, M=p.M)
            for v0 in v0_values]
    syms = [SymmetryLimit(sym_kind, c) for c in c_values]
    shape = (len(syms), len(tied))
    if not (syms and tied):
        return np.full(shape, np.nan)
    # C enters a record only as its constant, so the record of a cell is
    # the record of its V0 with C replaced.
    by_v0 = _stack([ReducedEquation.of(pv, base, qn) for pv in tied])
    c = np.array([sym.constant for sym in syms], dtype=float)

    def record(lo, hi):
        cell = np.arange(lo, hi)
        return replace(_take(by_v0, cell % len(tied)), C=c[cell // len(tied)])

    return _table_energies_chunked(c.size * len(tied), record).reshape(shape)
