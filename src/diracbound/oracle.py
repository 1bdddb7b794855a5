"""Independent shooting-method eigenvalue solver for the radial equations.

The reduced radial problem is u'' = [U_eff(r; E) - eps] u.  For a fixed
trial energy E this is a linear Sturm-Liouville eigenproblem in eps, solved
here by Numerov integration with node counting and log-derivative matching.
Because U_eff itself depends on E, a bound state of the original problem is
the self-consistent point where the inner eigenvalue eps_inner(E) crosses
the target curve eps_target(E) fixed by the symmetry limit.

Nothing in this module uses the closed-form spectrum; it exists to check it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, NoEigenvalueError, NotConvergedError
from .potentials import (PotentialParams, ReducedEquation, SymmetryLimit,
                         effective_potential, target_eigenvalue)
from .spectra import QuantumNumbers

__all__ = [
    "OracleConfig",
    "OracleResult",
    "numerov_integrate",
    "schrodinger_eigenvalue",
    "dirac_eigenvalue",
]

_RESCALE_AT = 1e250


@dataclass(frozen=True)
class OracleConfig:
    """Grid and iteration settings for the shooting solver.

    r_max=None picks max(40, 12/sqrt(|eps_ref|)) fm from the problem's own
    energy scale.  match_fraction places the log-derivative matching point as
    a fraction of the grid length.  centrifugal_mode selects the approximated
    (screened) or exact (1/r^2 plus exact potential) radial equation.
    """

    r_min: float = 1e-6
    r_max: Optional[float] = None
    num_points: int = 20000
    match_fraction: float = 0.35
    outer_tol: float = 1e-8
    centrifugal_mode: str = "approximated"

    def __post_init__(self):
        if self.r_min <= 0 or (self.r_max is not None
                               and self.r_max <= self.r_min):
            raise DomainError("need 0 < r_min < r_max")
        if self.num_points < 1000:
            raise DomainError("num_points must be at least 1000")
        if not 0.0 < self.match_fraction < 1.0:
            raise DomainError("match_fraction must lie in (0, 1)")
        if self.centrifugal_mode not in ("approximated", "exact"):
            raise DomainError("centrifugal_mode must be 'approximated' or 'exact'")


@dataclass(frozen=True)
class OracleResult:
    """Converged self-consistent eigenvalue and its diagnostics."""

    E: float
    inner_eigenvalue: float
    node_count: int
    outer_iters: int
    converged: bool


def numerov_integrate(r: np.ndarray, Q: np.ndarray, u0: float, u1: float):
    """Forward Numerov integration of u'' = Q(r) u on a uniform grid.

    Starts from the first two samples u0, u1 and returns the full solution
    array.  Fourth-order accurate per step.  When |u| exceeds an overflow
    threshold the whole solution so far is rescaled; the returned array is
    therefore proportional to the true solution, which is all that node
    counting and log-derivative matching need.
    """
    r = np.asarray(r, dtype=float)
    Q = np.asarray(Q, dtype=float)
    if r.ndim != 1 or r.size < 3 or r.shape != Q.shape:
        raise DomainError("need matching 1-d grids with at least 3 points")
    h = r[1] - r[0]
    if not np.allclose(np.diff(r), h, rtol=0, atol=1e-9 * abs(h)):
        raise DomainError("grid must be uniform")
    w = 1.0 - (h * h / 12.0) * Q
    u = np.empty(r.size)
    u[0], u[1] = u0, u1
    for i in range(1, r.size - 1):
        u[i + 1] = ((12.0 - 10.0 * w[i]) * u[i] - w[i - 1] * u[i - 1]) / w[i + 1]
        if abs(u[i + 1]) > _RESCALE_AT:
            u[:i + 2] /= _RESCALE_AT
    return u


def _series_seed(r_grid, f0, f1, r0, r1):
    """Leading small-r behavior of u for f(r) ~ lam/r^2 - c1/r + O(1).

    Extracts lam and c1 numerically from the first two samples of f and
    returns the exponent p and the curvature coefficient a1 of
    u ~ r^p (1 + a1 r).
    """
    lam = f0 * r0 * r0
    c1 = (lam / (r1 * r1) - f1) * r1
    p = 0.5 * (1.0 + math.sqrt(max(1.0 + 4.0 * lam, 0.0)))
    a1 = -c1 / (2.0 * p)
    return p, a1


def _outward(wU, c, r, p, a1, match_idx, count_cap=None):
    """Outward sweep of u'' = f u with Numerov weights w_i = wU[i] + c.

    Starts at the first index where the weight is close enough to 1 for the
    recurrence to be accurate, seeding with the power-series behavior.
    Returns (nodes_full, nodes_to_match, triplet around match_idx or None).
    nodes_full is the Sturm oscillation count over the whole grid (it steers
    the eigenvalue bisection); nodes_to_match stops at count_cap (the
    matching point by default) and, combined with the inward count, gives
    the interior node count of the eigenfunction without the divergent-tail
    artifact.
    """
    N = len(wU)
    if count_cap is None:
        count_cap = match_idx
    i0 = None
    for i in range(N):
        if abs(1.0 - (wU[i] + c)) <= 0.05:
            i0 = i
            break
    if i0 is None or i0 > match_idx - 2:
        return None, None, None
    u0 = (r[i0] ** p) * (1.0 + a1 * r[i0])
    u1 = (r[i0 + 1] ** p) * (1.0 + a1 * r[i0 + 1])
    if not (math.isfinite(u0) and math.isfinite(u1)) or u1 == 0.0:
        u0, u1 = 0.0, 1e-10
    nodes = 0
    nodes_to_match = 0
    trip = None
    amax = abs(u1)
    wm = wU[i0] + c
    wi = wU[i0 + 1] + c
    i = i0 + 1
    while i < N - 1:
        wp = wU[i + 1] + c
        u2 = ((12.0 - 10.0 * wi) * u1 - wm * u0) / wp
        a2 = abs(u2)
        if a2 > amax:
            amax = a2
        # a sign change counts only above the roundoff floor, so the noise
        # that takes over deep in a forbidden region cannot fake a node
        if u2 != 0.0 and u1 != 0.0 and (u2 < 0.0) != (u1 < 0.0) \
                and a2 > 1e-12 * amax:
            nodes += 1
            if i < count_cap:
                nodes_to_match += 1
        if i == match_idx:
            trip = (u0, u1, u2)
        elif a2 > _RESCALE_AT and i + 1 != match_idx:
            u1 /= _RESCALE_AT
            u2 /= _RESCALE_AT
            amax /= _RESCALE_AT
        u0, u1 = u1, u2
        wm, wi = wi, wp
        i += 1
    return nodes, nodes_to_match, trip


def _inward(wU, c, h, match_idx, f_end):
    """Inward sweep from the decaying tail down to match_idx.

    Returns (triplet (v[m-1], v[m], v[m+1]), node count over the swept
    range) or (None, 0) when the sweep cannot reach the matching point.
    """
    N = len(wU)
    k = math.sqrt(f_end) if f_end > 0.0 else 0.0
    v1 = 1e-120
    v0 = v1 * math.exp(min(k * h, 300.0))
    wp = wU[N - 1] + c
    wi = wU[N - 2] + c
    vi1, vi = v1, v0
    nodes = 0
    amax = abs(vi)
    i = N - 2
    while i > 0:
        wm = wU[i - 1] + c
        vm1 = ((12.0 - 10.0 * wi) * vi - wp * vi1) / wm
        a2 = abs(vm1)
        if a2 > amax:
            amax = a2
        if vm1 != 0.0 and vi != 0.0 and (vm1 < 0.0) != (vi < 0.0) \
                and a2 > 1e-12 * amax and i - 1 >= match_idx:
            nodes += 1
        if i - 1 == match_idx - 1:
            return (vm1, vi, vi1), nodes
        if a2 > _RESCALE_AT:
            vi /= _RESCALE_AT
            vm1 /= _RESCALE_AT
            amax /= _RESCALE_AT
        vi1, vi = vi, vm1
        wp, wi = wi, wm
        i -= 1
    return None, nodes


class _InnerSolver:
    """Node counting and log-derivative matching machinery for a fixed U(r)."""

    def __init__(self, U: np.ndarray, r: np.ndarray, match_fraction: float):
        self.U = U
        self.r = r
        self.h = r[1] - r[0]
        self.match_idx = int(match_fraction * r.size)
        self.wU = (1.0 - (self.h * self.h / 12.0) * U).tolist()
        self.p, self.a1 = _series_seed(r, U[0], U[1], r[0], r[1])

    def _weight_shift(self, eps):
        return (self.h * self.h / 12.0) * eps

    def nodes(self, eps: float) -> Optional[int]:
        n, _, _ = _outward(self.wU, self._weight_shift(eps), self.r, self.p,
                           self.a1, self.match_idx)
        return n

    def defect(self, eps: float):
        """(sturm_nodes, log-derivative mismatch at the matching point)."""
        c = self._weight_shift(eps)
        n, _, trip = _outward(self.wU, c, self.r, self.p, self.a1,
                              self.match_idx)
        if n is None or trip is None or trip[1] == 0.0:
            return n, None
        tin, _ = _inward(self.wU, c, self.h, self.match_idx,
                         float(self.U[-1]) - eps)
        if tin is None or tin[1] == 0.0:
            return n, None
        dout = (trip[2] - trip[0]) / (2.0 * self.h * trip[1])
        din = (tin[2] - tin[0]) / (2.0 * self.h * tin[1])
        return n, dout - din

    def interior_nodes(self, eps: float) -> Optional[int]:
        """Node count of the matched eigenfunction, tail artifact excluded.

        Genuine nodes all lie inside the classically allowed region, so the
        outward count is capped at the outer turning point; beyond it only
        the roundoff-injected growing mode can flip sign.
        """
        c = self._weight_shift(eps)
        allowed = np.nonzero(self.U < eps)[0]
        cap = self.match_idx
        if allowed.size:
            cap = min(self.match_idx, int(allowed[-1]) + 10)
        n, n_match, _ = _outward(self.wU, c, self.r, self.p, self.a1,
                                 self.match_idx, count_cap=cap)
        if n is None:
            return None
        _, n_in = _inward(self.wU, c, self.h, self.match_idx,
                          float(self.U[-1]) - eps)
        return n_match + n_in

    def floor(self, n_target: int) -> Optional[float]:
        """A search floor below the n_target eigenvalue.

        The raw grid minimum of U can be dominated by an attractive
        singularity at tiny r, so the floor starts from the minimum over the
        resolvable region and deepens adaptively until the node count at the
        floor does not exceed n_target.
        """
        i_skip = min(np.searchsorted(self.r, 100.0 * self.h), self.U.size - 2)
        floor = float(self.U[i_skip:].min())
        if floor >= 0.0:
            return None
        for _ in range(6):
            n = self.nodes(floor)
            if n is not None and n <= n_target:
                return floor
            floor *= 4.0
        return None

    def eigenvalue(self, n_target: int):
        """Eigenvalue with n_target nodes, or raises NoEigenvalueError.

        Single bisection steered by node count outside the n_target zone and
        by the matching defect inside it.  The defect decreases through zero
        at the eigenvalue.
        """
        lo = self.floor(n_target)
        if lo is None:
            raise NoEigenvalueError(
                "potential admits no bound spectrum on this grid")
        n_hi = self.nodes(0.0)
        n_lo = self.nodes(lo)
        if n_hi is None or n_lo is None or not (n_lo <= n_target < n_hi):
            raise NoEigenvalueError(
                f"no eigenvalue with {n_target} nodes in the search window "
                f"(node count spans [{n_lo}, {n_hi}))")
        a, b = lo, 0.0
        for _ in range(220):
            mid = 0.5 * (a + b)
            n, d = self.defect(mid)
            if n is None:
                raise NoEigenvalueError("integration lost inside the window")
            if n > n_target:
                b = mid
            elif n < n_target:
                a = mid
            elif d is None or d < 0.0:
                b = mid
            else:
                a = mid
            if b - a <= 1e-14 * max(1.0, abs(a), abs(b)):
                break
        eps = 0.5 * (a + b)
        n_final = self.interior_nodes(eps)
        return eps, (n_final if n_final is not None else -1)


def _build_grid(cfg: OracleConfig, eps_ref: float, num_points: Optional[int] = None):
    n = num_points if num_points is not None else cfg.num_points
    r_max = cfg.r_max
    if r_max is None:
        r_max = max(40.0, 12.0 / math.sqrt(max(abs(eps_ref), 1e-12)))
    return np.linspace(cfg.r_min, r_max, n + 1)


def schrodinger_eigenvalue(U_eff: Callable, n_target: int,
                           cfg: OracleConfig, eps_ref: float = 1.0):
    """Eigenvalue eps of u'' = [U(r) - eps] u with n_target interior nodes.

    U_eff is a callable accepting an array of radii.  eps_ref sets the
    automatic r_max scale when the config leaves r_max unset.  Returns
    (eps, nodes); raises NoEigenvalueError when the requested level does not
    exist in the searchable window (eps < 0).
    """
    r = _build_grid(cfg, eps_ref)
    U = np.asarray(U_eff(r), dtype=float)
    solver = _InnerSolver(U, r, cfg.match_fraction)
    return solver.eigenvalue(n_target)


def _defect_sign(p: PotentialParams, sym: SymmetryLimit, qn: QuantumNumbers,
                 n_target: int, cfg: OracleConfig, r: np.ndarray, E: float):
    """Sign of eps_inner(E) - eps_target(E) via Sturm oscillation counting.

    The inner eigenvalue exceeds the target exactly when the node count of
    the outward sweep at eps_target is still <= n_target, so a single
    outward integration decides the sign without solving the inner
    eigenproblem.  Returns +1, -1 or None (integration impossible).
    """
    U = effective_potential(r, E, p, sym, qn, cfg.centrifugal_mode)
    solver = _InnerSolver(U, r, cfg.match_fraction)
    eps_t = target_eigenvalue(E, sym, p.M)
    n = solver.nodes(eps_t)
    if n is None:
        return None
    return +1 if n <= n_target else -1


def _energy_window(eq: ReducedEquation):
    """Open interval of E where eps_target < 0 (a decaying tail is possible).

    eps_target = E^2 - C E + s C M - M^2 is an upward parabola in E,
    negative strictly between its two real roots; returns None when it
    never goes negative.
    """
    M, C = eq.M, eq.C
    disc = C * C - 4.0 * (eq.s * C * M - M * M)
    if disc <= 0.0:
        return None
    s = math.sqrt(disc)
    return (0.5 * (C - s), 0.5 * (C + s))


def dirac_eigenvalue(qn: QuantumNumbers, sym: SymmetryLimit,
                     p: PotentialParams, cfg: Optional[OracleConfig] = None,
                     e_seed: Optional[float] = None) -> OracleResult:
    """Self-consistent bound-state energy of the reduced radial equation.

    Solves eps_inner(E) = eps_target(E) where eps_inner is the inner
    eigenvalue with the node count fixed by the quantum numbers (the degree
    of the polynomial factor of the solved component).  The energy window is
    scanned for sign changes of the defect using single Numerov sweeps, the
    bracket nearest e_seed (when given) is bisected, and the result is
    confirmed by a full inner eigensolve at the final energy.

    Raises NoEigenvalueError when no self-consistent bound state exists in
    the window, NotConvergedError when the final defect check fails.
    """
    cfg = cfg or OracleConfig()
    eq = ReducedEquation.of(p, sym, qn)
    n_target = eq.degree

    window = _energy_window(eq)
    if window is None:
        raise NoEigenvalueError("no energy admits a decaying tail")

    margin = 1e-6 * max(1.0, abs(window[0]), abs(window[1]))
    e_lo, e_hi = window[0] + margin, window[1] - margin
    if e_hi <= e_lo:
        raise NoEigenvalueError("empty energy window")

    # reference scale for the automatic grid: the deepest target eigenvalue
    mid = 0.5 * (e_lo + e_hi)
    eps_ref = abs(target_eigenvalue(mid, sym, p.M))
    r_coarse = _build_grid(cfg, eps_ref, max(2000, cfg.num_points // 5))
    r_fine = _build_grid(cfg, eps_ref)

    # scan for defect sign changes with single sweeps on the coarse grid
    probes = np.linspace(e_lo, e_hi, 160)
    signs = [_defect_sign(p, sym, qn, n_target, cfg, r_coarse, E)
             for E in probes]
    brackets = []
    for i in range(len(probes) - 1):
        if signs[i] is not None and signs[i + 1] is not None \
                and signs[i] != signs[i + 1]:
            brackets.append((float(probes[i]), float(probes[i + 1])))
    if not brackets:
        raise NoEigenvalueError(
            "no self-consistent bound state in the energy window "
            f"[{e_lo:.4f}, {e_hi:.4f}]")
    if e_seed is not None:
        lo, hi = min(brackets, key=lambda br: abs(0.5 * (br[0] + br[1]) - e_seed))
    else:
        lo, hi = min(brackets, key=lambda br: abs(0.5 * (br[0] + br[1])))

    outer = 0
    s_lo = _defect_sign(p, sym, qn, n_target, cfg, r_fine, lo)
    while hi - lo > 1e-10 and outer < 200:
        mid = 0.5 * (lo + hi)
        s_mid = _defect_sign(p, sym, qn, n_target, cfg, r_fine, mid)
        if s_mid is None:
            break
        if s_mid == s_lo:
            lo = mid
        else:
            hi = mid
        outer += 1

    E = 0.5 * (lo + hi)
    U = effective_potential(r_fine, E, p, sym, qn, cfg.centrifugal_mode)
    solver = _InnerSolver(U, r_fine, cfg.match_fraction)
    try:
        eps_inner, nodes = solver.eigenvalue(n_target)
    except NoEigenvalueError as err:
        raise NotConvergedError(
            f"bisected to E={E:.8f} but the inner eigensolve failed there: "
            f"{err}") from err
    defect = eps_inner - target_eigenvalue(E, sym, p.M)
    converged = abs(defect) <= cfg.outer_tol
    return OracleResult(E=float(E), inner_eigenvalue=float(eps_inner),
                        node_count=int(nodes), outer_iters=outer,
                        converged=bool(converged))
