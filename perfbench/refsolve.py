"""Independent bound-state energies for checking the solver's outputs.

The quantization relation of the closed-form spectrum is

    g(E) = lhs(E) - delta^2 * Q(E)^2 = 0,
    Q = (alpha2 - lam - 1/2 - m(m+1) - (2m+1) t) / (m + 1/2 + t),
    t = sqrt(D),  D = 1/4 + gamma2 + lam,

where lhs is quadratic in E and alpha2, gamma2 (so D) are linear in E.
Substituting E = (t^2 - d0) / d1 turns g(E) (m + 1/2 + t)^2 into a
polynomial of degree 6 in t, and every root of g is a real root t >= 0 of
it.  The roots come from the polynomial's companion matrix and are then
polished by bisection on g itself.  Nothing here scans an energy grid, so
close root pairs that a grid scan can step over are still found.  For
B = 0, D does not depend on E and g is a quadratic in E.

This module imports nothing from the package under test.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import polynomial as pl

# Two roots closer than the solver's 1e-3 scan step can fall in one grid
# interval and be missed together: a mismatch on such a pair is the known
# grid-scan defect rather than a new one.
SCAN_STEP = 1e-3


def poly_degree(n: int, kappa: int, kind: str) -> int:
    """Degree of the polynomial factor of the solved radial component."""
    return n + 1 if kind == "pseudospin" and kappa > 0 else n


def _pieces(kind, V0, A, B, delta, H, M, C, n, kappa):
    """Coefficients (low to high) of lhs, alpha2 and D in E; lam; degree m."""
    four_d2 = 4.0 * delta * delta
    vp = V0 + 2.0 * A * delta
    bp = 4.0 * B * delta * delta
    eta = kappa + H
    if kind == "spin":
        lhs = (M * M - C * M, C, -1.0)
        alpha2 = (vp * (M - C) / four_d2, vp / four_d2)
        gamma2 = (-bp * (M - C) / four_d2, -bp / four_d2)
        lam = eta * (eta + 1.0)
    else:
        lhs = (M * M + C * M, C, -1.0)
        alpha2 = (-vp * (M + C) / four_d2, vp / four_d2)
        gamma2 = (bp * (M + C) / four_d2, -bp / four_d2)
        lam = eta * (eta - 1.0)
    D = (0.25 + lam + gamma2[0], gamma2[1])
    return lhs, alpha2, D, lam, poly_degree(n, kappa, kind)


def _residual_fn(kind, V0, A, B, delta, H, M, C, n, kappa):
    """g as a scalar function of E; NaN where the discriminant is negative."""
    lhs, alpha2, D, lam, m = _pieces(kind, V0, A, B, delta, H, M, C, n, kappa)
    const = lam + 0.5 + m * (m + 1.0)

    def g(E):
        d = D[0] + D[1] * E
        if d < 0.0:
            return math.nan
        t = math.sqrt(d)
        q = (alpha2[0] + alpha2[1] * E - const - (2.0 * m + 1.0) * t) \
            / (m + 0.5 + t)
        return lhs[0] + lhs[1] * E + lhs[2] * E * E - delta * delta * q * q

    return g


def residual(E, kind, V0, A, B, delta, H, M, C, n, kappa):
    """g(E), or NaN where the square-root discriminant is negative."""
    return _residual_fn(kind, V0, A, B, delta, H, M, C, n, kappa)(E)


def _polish(E, g, width=1e-9):
    """Bisect g on a small bracket around E when it has a sign change."""
    lo, hi = E - width, E + width
    g_lo, g_hi = g(lo), g(hi)
    if not (math.isfinite(g_lo) and math.isfinite(g_hi)) or g_lo * g_hi > 0:
        return E
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        g_mid = g(mid)
        if g_mid == 0.0 or hi - lo < 1e-15:
            return mid
        if (g_mid < 0.0) == (g_lo < 0.0):
            lo, g_lo = mid, g_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def all_roots(kind, V0, A, B, delta, H, M, C, n, kappa):
    """Every real zero of g in the solver's window |E| <= M + |C| + 1."""
    lhs, alpha2, D, lam, m = _pieces(kind, V0, A, B, delta, H, M, C, n, kappa)
    const = lam + 0.5 + m * (m + 1.0)
    d0, d1 = D
    candidates = []
    if abs(d1) > 1e-14:
        # E(t) = (t^2 - d0) / d1; every factor below is a polynomial in t.
        E_t = np.array([-d0 / d1, 0.0, 1.0 / d1])
        lhs_t = pl.polyadd(pl.polyadd([lhs[0]], lhs[1] * E_t),
                           lhs[2] * pl.polymul(E_t, E_t))
        num_t = pl.polyadd(alpha2[1] * E_t,
                           [alpha2[0] - const, -(2.0 * m + 1.0)])
        denom2 = pl.polymul([m + 0.5, 1.0], [m + 0.5, 1.0])
        poly = pl.polysub(pl.polymul(lhs_t, denom2),
                          delta * delta * pl.polymul(num_t, num_t))
        for z in pl.polyroots(poly):
            if abs(z.imag) <= 1e-7 * (1.0 + abs(z.real)) and z.real >= -1e-9:
                t = max(z.real, 0.0)
                candidates.append((t * t - d0) / d1)
    elif d0 >= 0.0:
        t = math.sqrt(d0)
        s = 1.0 / (m + 0.5 + t)
        q = np.array([(alpha2[0] - const - (2.0 * m + 1.0) * t) * s,
                      alpha2[1] * s])
        poly = pl.polysub(np.array(lhs), delta * delta * pl.polymul(q, q))
        for z in pl.polyroots(poly):
            if abs(z.imag) <= 1e-7 * (1.0 + abs(z.real)):
                candidates.append(float(z.real))

    g = _residual_fn(kind, V0, A, B, delta, H, M, C, n, kappa)
    pad = M + abs(C) + 1.0
    roots = sorted(float(_polish(E, g)) for E in candidates
                   if -pad <= E <= pad)
    deduped = []
    for E in roots:
        if not deduped or E - deduped[-1] > 1e-10:
            deduped.append(E)
    return deduped


def sign_ok(E, kind, M, C):
    """The solver's tabulation side: E > 0 (spin), E < 0 off E = M + C."""
    if kind == "spin":
        return E > 0.0
    return E < 0.0 and abs(E - (M + C)) > 1e-9


def _near_scan_limit(E, roots, kind, V0, A, B, delta, H, M, C, n, kappa):
    """True when a 1e-3 grid scan cannot resolve the root at E.

    That happens when another root, or an edge of the region where the
    discriminant D is non-negative, lies within one scan step of E.
    """
    if any(0.0 < abs(E - other) < SCAN_STEP for other in roots):
        return True
    _, _, D, _, _ = _pieces(kind, V0, A, B, delta, H, M, C, n, kappa)
    return any(D[0] + D[1] * (E + s) < 0.0 for s in (-SCAN_STEP, SCAN_STEP))


def table_root(kind, V0, A, B, delta, H, M, C, n, kappa):
    """(selected energy or None, whether a grid scan can miss it).

    The selected energy follows the solver's tabulation convention: the
    smallest-|E| root on the sign_ok side.
    """
    args = (kind, V0, A, B, delta, H, M, C, n, kappa)
    roots = all_roots(*args)
    valid = [E for E in roots if sign_ok(E, kind, M, C)]
    if not valid:
        return None, False
    E = min(valid, key=abs)
    return float(E), _near_scan_limit(E, roots, *args)


def positive_branch_roots(kind, V0, A, B, delta, H, M, C, n, kappa):
    """Roots with Q > 0, a positive coupling factor and |E| < M.

    These are the normalizable-exponent roots that the shooting oracle
    converges to (the `nu_branch=+1` family of the solver).
    """
    lhs, alpha2, D, lam, m = _pieces(kind, V0, A, B, delta, H, M, C, n, kappa)
    const = lam + 0.5 + m * (m + 1.0)
    out = []
    for E in all_roots(kind, V0, A, B, delta, H, M, C, n, kappa):
        t = math.sqrt(max(D[0] + D[1] * E, 0.0))
        q = alpha2[0] + alpha2[1] * E - const - (2.0 * m + 1.0) * t
        coupling = M + E - C if kind == "spin" else M - E + C
        if q > 0.0 and coupling > 0.0 and abs(E) < M:
            out.append(float(E))
    return out
