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
import numbers
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, NoEigenvalueError, NotConvergedError
from .potentials import (PotentialParams, ReducedEquation, SymmetryLimit,
                         _effective_parts, target_eigenvalue)
from .spectra import QuantumNumbers

__all__ = [
    "OracleConfig",
    "OracleResult",
    "numerov_integrate",
    "schrodinger_eigenvalue",
    "dirac_eigenvalue",
]

_RESCALE_AT = 1e250
_CHUNK = 2048            # weights per list that a scalar sweep converts
_BLOCK = 64              # grid rows per block of a batched sweep
_R_MIN = 1e-6            # first grid point (fm)
_MATCH_FRACTION = 0.35   # matching point, as a fraction of the grid length
_OUTER_TOL = 1e-8        # largest final |eps_inner - eps_target| for converged


@dataclass(frozen=True)
class OracleConfig:
    """Grid settings for the shooting solver.

    The grid runs from r = 1e-6 fm to r_max with num_points steps.
    r_max=None picks 40 fm for schrodinger_eigenvalue, and for
    dirac_eigenvalue max(40, 12/sqrt(|eps_ref|)) fm from the problem's own
    energy scale, eps_ref being eps_target at the middle of the energy
    window.  centrifugal_mode selects the approximated (screened) or exact
    (1/r^2 plus exact potential) radial equation.
    """

    r_max: Optional[float] = None
    num_points: int = 20000
    centrifugal_mode: str = "approximated"

    def __post_init__(self):
        if self.r_max is not None and not (
                math.isfinite(self.r_max) and self.r_max > _R_MIN):
            raise DomainError(f"r_max must be finite and exceed the grid "
                              f"start {_R_MIN:g}, got {self.r_max!r}")
        if not isinstance(self.num_points, numbers.Integral) \
                or self.num_points < 1000:
            raise DomainError(f"num_points must be an integer of at least "
                              f"1000, got {self.num_points!r}")
        if self.centrifugal_mode not in ("approximated", "exact"):
            raise DomainError("centrifugal_mode must be 'approximated' or 'exact'")


@dataclass(frozen=True)
class OracleResult:
    """Self-consistent eigenvalue from `dirac_eigenvalue`, with diagnostics.

    converged is False when the final |eps_inner(E) - eps_target(E)| exceeds
    1e-8; E is then still returned, so callers must check the flag.
    """

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


def _series_seed(f0, f1, r0, r1):
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


def _seed(r, p, a1, i0):
    """Series-seeded (u0, u1, i) for an outward sweep from index i0.

    u ~ r^p (1 + a1 r) at r[i0] and r[i0 + 1]; a tiny linear start replaces
    it when the series does not give finite, nonzero values.
    """
    r0, r1 = r[i0], r[i0 + 1]
    u0 = (r0 ** p) * (1.0 + a1 * r0)
    u1 = (r1 ** p) * (1.0 + a1 * r1)
    if not (math.isfinite(u0) and math.isfinite(u1)) or u1 == 0.0:
        u0, u1 = 0.0, 1e-10
    return u0, u1, i0 + 1


def _sweep(w, c, u0, u1, i, stop, step, mark, cap):
    """Numerov sweep of u'' = f u with weights w[j] + c, in direction step.

    u0 = u[i - step] and u1 = u[i] seed the recurrence, which fills
    u[i + step], ... up to index stop (step = +1 outward, -1 inward).
    Returns (nodes, nodes before cap, (u[mark - step], u[mark],
    u[mark + step]) or None).  A node is a sign change above the roundoff
    floor, so the noise that takes over deep in a forbidden region cannot
    fake one; it lies before cap when found at an index i short of cap in
    the sweep direction.  |u| is rescaled whenever it passes _RESCALE_AT,
    so only ratios of u are meaningful.
    """
    # The weights w[j] + c and 12 - 10 (w[j] + c) of the swept span, in
    # sweep order.  Elementwise float64 arithmetic gives the bits the
    # step-by-step sums would, and the steps run on Python floats, several
    # times faster than on numpy scalars; the conversion goes a chunk at a
    # time, so no long list is held.
    lo, hi = sorted((i - step, stop))
    wc = np.asarray(w[lo:hi + 1], dtype=float) + c
    if step < 0:
        wc = wc[::-1]
    kc = 12.0 - 10.0 * wc
    u0, u1 = float(u0), float(u1)
    nodes = 0
    nodes_to_cap = 0
    trip = None
    amax = abs(u1)
    neg1 = u1 < 0.0
    for a in range(0, wc.size - 2, _CHUNK):
        ws = wc[a:a + _CHUNK + 2].tolist()
        for wm, k, wp in zip(ws, kc[a + 1:a + _CHUNK + 1].tolist(), ws[2:]):
            u2 = (k * u1 - wm * u0) / wp
            if u2 < 0.0:
                a2, neg2 = -u2, True
            else:
                a2, neg2 = u2, False
            if a2 > amax:
                amax = a2
            if neg2 != neg1 and u2 != 0.0 and u1 != 0.0 \
                    and a2 > 1e-12 * amax:
                nodes += 1
                if (cap - i) * step > 0:
                    nodes_to_cap += 1
            if i == mark:
                trip = (u0, u1, u2)
            # i + 1 == mark only occurs outward: inward sweeps stop at
            # mark - 1
            elif a2 > _RESCALE_AT and i + 1 != mark:
                u1 /= _RESCALE_AT
                u2 /= _RESCALE_AT
                amax /= _RESCALE_AT
            u0, u1, neg1 = u1, u2, neg2
            i += step
    return nodes, nodes_to_cap, trip


def _weight_rows(lam_cent, pot, g, c, hh12):
    """Numerov weights of a batch of sweeps, in blocks of grid rows.

    Column k has U_eff = lam_cent + g[k] pot, summed in effective_potential's
    order, and the weight 1 - hh12 U_eff + c[k] that _InnerSolver and _sweep
    form from it, so each column carries the bits of its scalar sweep.  Each
    block of at most _BLOCK rows is one broadcast expression with the same
    elementwise operations in the same order; no (K, N) array exists.
    """
    for lo in range(0, len(lam_cent), _BLOCK):
        lc = lam_cent[lo:lo + _BLOCK, None]
        v = pot[lo:lo + _BLOCK, None]
        yield 1.0 - hh12 * (lc + g * v) + c


def _batch_starts(blocks, width, limit):
    """Per column, the first row index i <= limit with |1 - w[i]| <= 0.05.

    blocks yields the weight rows from grid index 0 (see _weight_rows).
    This is _InnerSolver._start's rule for the first accurate step; None
    marks a column with no such index.
    """
    starts = np.full(width, -1)
    base = 0
    for w in blocks:
        if base > limit or (starts >= 0).all():
            break
        near = np.abs(1.0 - w[:limit + 1 - base]) <= 0.05
        new = near.any(axis=0) & (starts < 0)
        starts[new] = base + near[:, new].argmax(axis=0)
        base += len(w)
    return [None if i < 0 else int(i) for i in starts]


def _sweep_batch(blocks, seeds):
    """_sweep's outward node counts for a batch of weight columns, in lockstep.

    blocks yields the weight rows from grid index 0 as 2-d blocks of any
    height (see _weight_rows).  Column k runs the recurrence and node rule
    of the outward _sweep(w_k, 0.0, *seeds[k], N - 1, 1, ...) on its
    weights w_k, but never rescales; seeds[k] = None leaves the column
    out.  A column is lost where its |u| passes _RESCALE_AT or stops being
    finite.  Returns (node counts, with None for a left-out or lost column;
    the indices of the lost columns).  A column that is not lost never
    triggers a rescale in _sweep, so its count is _sweep's count bit for
    bit; the caller sweeps a lost column with _sweep.  Only one block and
    its two rows before are held.
    """
    run = _Lockstep(seeds)
    if run.begin:
        for w in blocks:
            run.block(w)
    return ([None if seed is None or lost else int(n)
             for seed, n, lost in zip(seeds, run.nodes, run.lost)],
            np.flatnonzero(run.lost).tolist())


class _Lockstep:
    """_sweep_batch's columns, stepped one block of grid rows at a time.

    Per grid row only the recurrence runs.  The node counts and the lost
    flags come from one array pass per segment of a block, a segment
    being cut wherever a column starts, so that each column is either
    running or starts at the segment's first step.  A column not yet
    started holds u = 0: it steps to 0 and counts nothing.
    """

    def __init__(self, seeds):
        self.seeds = seeds
        # columns by the index where their first step is taken
        self.begin = {}
        for k, seed in enumerate(seeds):
            if seed is not None:
                self.begin.setdefault(seed[2], []).append(k)
        width = len(seeds)
        self.nodes = np.zeros(width, dtype=int)
        self.amax = np.zeros(width)
        self.lost = np.zeros(width, dtype=bool)
        self.r0 = 0                       # grid row of the next block
        self.w_prev = np.zeros((2, width))
        self.u_prev = np.zeros((2, width))

    def block(self, w):
        """Steps i that make u[i + 1] for the rows i + 1 of block w.

        Row t of the buffers wb, k12 (12 - 10 w) and ub is grid row
        r0 - 2 + t, so step i reads rows j, j + 1 and writes row j + 2,
        with j = i - r0 + 1.
        """
        r0 = self.r0
        self.wb = np.concatenate((self.w_prev, w))
        self.k12 = np.multiply(10.0, self.wb)
        np.subtract(12.0, self.k12, out=self.k12)
        self.ub = np.zeros_like(self.wb)
        self.ub[:2] = self.u_prev
        stop = r0 + len(w) - 1
        i = max(min(self.begin), r0 - 1)
        for cut in sorted(s for s in self.begin if i < s < stop) + [stop]:
            if i < cut:
                self._segment(i - r0 + 1, cut - r0 + 1, self.begin.get(i))
            i = cut
        self.w_prev, self.u_prev = self.wb[-2:].copy(), self.ub[-2:].copy()
        self.r0 += len(w)

    def _segment(self, ja, jb, cols):
        """Steps ja <= j < jb, where the columns cols start at step ja."""
        wb, k12, ub = self.wb, self.k12, self.ub
        if cols is not None:
            ub[ja, cols] = [self.seeds[k][0] for k in cols]
            ub[ja + 1, cols] = [self.seeds[k][1] for k in cols]
        # unrescaled, a lost column may overflow to inf and then nan
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(ja, jb):
                u2 = ub[j + 2]
                np.multiply(k12[j + 1], ub[j + 1], out=u2)
                u2 -= np.multiply(wb[j], ub[j])
                u2 /= wb[j + 2]
        seg = ub[ja + 1:jb + 2]       # u1 of the first step to u2 of the last
        a = np.abs(seg)
        self.lost |= ~(a[1:] <= _RESCALE_AT).all(axis=0)
        # running max of |u| since each column's start: a column starting
        # at ja holds amax = 0, so its seed u1 opens its max
        np.maximum(a[0], self.amax, out=a[0])
        run = np.maximum.accumulate(a, axis=0)
        self.amax = run[-1].copy()
        run *= 1e-12                  # the node floor
        u1, u2 = seg[:-1], seg[1:]
        self.nodes += (((u2 < 0.0) != (u1 < 0.0)) & (u2 != 0.0)
                       & (u1 != 0.0) & (a[1:] > run[1:])).sum(axis=0)


class _InnerSolver:
    """Node counting and log-derivative matching machinery for a fixed U(r)."""

    def __init__(self, U: np.ndarray, r: np.ndarray):
        self.U = U
        self.r = r
        self.h = r[1] - r[0]
        self.match_idx = int(_MATCH_FRACTION * r.size)
        self.hh12 = self.h * self.h / 12.0
        self.wU = 1.0 - self.hh12 * U
        self.p, self.a1 = _series_seed(U[0], U[1], r[0], r[1])

    def _start(self, c):
        """Series-seeded (u0, u1, i) for the outward sweep, or None.

        The sweep starts at the first index where the weight is close
        enough to 1 for the recurrence to be accurate, and no later than
        two points before match_idx.
        """
        near = np.abs(1.0 - (self.wU[:self.match_idx - 1] + c)) <= 0.05
        i0 = int(near.argmax())
        if not near[i0]:
            return None
        return _seed(self.r, self.p, self.a1, i0)

    def _shoot_out(self, c, cap):
        """Outward sweep from the series-seeded start to the grid end.

        Returns (nodes, nodes before cap, triplet around match_idx), or
        three Nones when the grid offers no accurate start.
        """
        start = self._start(c)
        if start is None:
            return None, None, None
        return _sweep(self.wU, c, *start, len(self.wU) - 1, 1,
                      self.match_idx, cap)

    def _shoot_in(self, c, eps):
        """Inward sweep from the decaying tail down to match_idx.

        Returns (nodes above match_idx, (v[m-1], v[m], v[m+1])).
        """
        f_end = float(self.U[-1]) - eps
        k = math.sqrt(f_end) if f_end > 0.0 else 0.0
        v_end = 1e-120
        v_next = v_end * math.exp(min(k * self.h, 300.0))
        m = self.match_idx
        _, n, trip = _sweep(self.wU, c, v_end, v_next, len(self.wU) - 2,
                            m - 1, -1, m, m)
        return n, trip[::-1]

    def nodes(self, eps: float) -> Optional[int]:
        """Sturm oscillation count of the outward sweep over the whole grid."""
        return self._shoot_out(self.hh12 * eps, self.match_idx)[0]

    def defect(self, eps: float, n_target: int):
        """(sturm_nodes, log-derivative mismatch at the matching point).

        The mismatch costs an inward sweep and steers the eigenvalue search
        only at n_target nodes, so at any other count it is None.
        """
        c = self.hh12 * eps
        n, _, trip = self._shoot_out(c, self.match_idx)
        if n != n_target or trip[1] == 0.0:
            return n, None
        _, tin = self._shoot_in(c, eps)
        if tin[1] == 0.0:
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
        c = self.hh12 * eps
        allowed = np.nonzero(self.U < eps)[0]
        cap = self.match_idx
        if allowed.size:
            cap = min(self.match_idx, int(allowed[-1]) + 10)
        n, n_match, _ = self._shoot_out(c, cap)
        if n is None:
            return None
        n_in, _ = self._shoot_in(c, eps)
        return n_match + n_in

    def floor(self, n_target: int):
        """A search floor below the n_target eigenvalue and its node count.

        The raw grid minimum of U can be dominated by an attractive
        singularity at tiny r, so the floor starts from the minimum over the
        resolvable region and deepens adaptively until the node count at the
        floor does not exceed n_target.  Returns (floor, nodes) or None.
        """
        i_skip = min(np.searchsorted(self.r, 100.0 * self.h), self.U.size - 2)
        floor = float(self.U[i_skip:].min())
        if floor >= 0.0:
            return None
        for _ in range(6):
            n = self.nodes(floor)
            if n is not None and n <= n_target:
                return floor, n
            floor *= 4.0
        return None

    def _below(self, eps: float, n_target: int) -> Optional[bool]:
        """Whether eps lies below the n_target eigenvalue, or None.

        This is the bisection's rule: below at fewer than n_target nodes,
        and at n_target nodes when the defect is not negative (the defect
        decreases through zero at the eigenvalue).  None means the sweep
        was lost.
        """
        n, d = self.defect(eps, n_target)
        if n is None:
            return None
        return n < n_target or (n == n_target and not (d is None or d < 0.0))

    def eigenvalue(self, n_target: int, guess: Optional[float] = None):
        """Eigenvalue with n_target nodes, or raises NoEigenvalueError.

        Single bisection steered by node count outside the n_target zone and
        by the matching defect inside it (see _below).

        guess, when given, is checked before bisecting: if eps lies below
        the eigenvalue at guess - _OUTER_TOL and not at guess + _OUTER_TOL,
        midpoints outside that window are sent to the side the check
        implies, without a sweep, and only those inside it are swept.  Node
        counts rise with eps and the defect falls through zero at the
        eigenvalue, so each skipped midpoint goes where its sweep would have
        sent it: the midpoints, the final bracket and the result are those
        of the bisection without a guess.  A refuted guess (or one whose
        sweep is lost) costs up to two evaluations of _below and leaves the
        bisection as it is.
        """
        found = self.floor(n_target)
        if found is None:
            raise NoEigenvalueError(
                "potential admits no bound spectrum on this grid")
        lo, n_lo = found
        n_hi = self.nodes(0.0)
        if n_hi is None or n_hi <= n_target:
            raise NoEigenvalueError(
                f"no eigenvalue with {n_target} nodes in the search window "
                f"(node count spans [{n_lo}, {n_hi}))")
        a, b = lo, 0.0
        # midpoints at or below x_lo go to a, at or above x_hi to b
        x_lo, x_hi = -math.inf, math.inf
        if guess is not None and \
                self._below(guess - _OUTER_TOL, n_target) is True and \
                self._below(guess + _OUTER_TOL, n_target) is False:
            x_lo, x_hi = guess - _OUTER_TOL, guess + _OUTER_TOL
        for _ in range(220):
            mid = 0.5 * (a + b)
            if mid <= x_lo:
                below = True
            elif mid >= x_hi:
                below = False
            else:
                below = self._below(mid, n_target)
                if below is None:
                    raise NoEigenvalueError(
                        "integration lost inside the window")
            if below:
                a = mid
            else:
                b = mid
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
    return np.linspace(_R_MIN, r_max, n + 1)


def schrodinger_eigenvalue(U_eff: Callable, n_target: int,
                           cfg: OracleConfig):
    """Eigenvalue eps of u'' = [U(r) - eps] u with n_target interior nodes.

    U_eff is a callable accepting an array of radii.  When the config
    leaves r_max unset, the grid ends at 40 fm.  Returns (eps, nodes);
    raises DomainError for a negative n_target and NoEigenvalueError when
    the requested level does not exist in the searchable window (eps < 0).
    """
    if n_target < 0:
        raise DomainError(f"n_target must be >= 0, got {n_target}")
    r = _build_grid(cfg, 1.0)
    U = np.asarray(U_eff(r), dtype=float)
    solver = _InnerSolver(U, r)
    return solver.eigenvalue(n_target)


def _u_eff(parts, E: float):
    """U_eff(r; E) from the parts _effective_parts returns.

    The sum is effective_potential's, in its order, so the bits are its.
    """
    eq, lam_cent, pot = parts
    return lam_cent + eq.s * eq.coupling(E) * pot


def _defect_sign(parts, sym: SymmetryLimit, M: float, r: np.ndarray,
                 E: float):
    """Sign of eps_inner(E) - eps_target(E) via Sturm oscillation counting.

    parts are _effective_parts on the grid r; the node target is the
    degree of their equation.  The inner eigenvalue exceeds the target
    exactly when the node count of the outward sweep at eps_target is
    still <= n_target, so a single outward integration decides the sign
    without solving the inner eigenproblem.  Returns +1, -1 or None
    (integration impossible).
    """
    solver = _InnerSolver(_u_eff(parts, E), r)
    n = solver.nodes(target_eigenvalue(E, sym, M))
    if n is None:
        return None
    return +1 if n <= parts[0].degree else -1


def _probe_signs(p: PotentialParams, sym: SymmetryLimit, qn: QuantumNumbers,
                 n_target: int, cfg: OracleConfig, r: np.ndarray,
                 probes: np.ndarray):
    """_defect_sign's sign at each E in probes, on the grid r.

    One batched outward sweep does the work of the scalar ones: U_eff is
    affine in E, so every probe's weights come from the same E-independent
    parts, and each column gets the start index, series seed and node
    count its own _defect_sign would.  A column the batch loses, where
    _sweep would have to rescale, is swept again by _sweep itself.
    """
    eq, lam_cent, pot = _effective_parts(r, p, sym, qn, cfg.centrifugal_mode)
    g = eq.s * eq.coupling(probes)
    h = r[1] - r[0]
    hh12 = h * h / 12.0
    c = hh12 * target_eigenvalue(probes, sym, p.M)
    mark = int(_MATCH_FRACTION * r.size)
    starts = _batch_starts(_weight_rows(lam_cent, pot, g, c, hh12),
                           len(probes), mark - 2)
    seeds = []
    for k, i0 in enumerate(starts):
        # U_eff at the first two grid points, as effective_potential has them
        seeds.append(None if i0 is None else _seed(r, *_series_seed(
            lam_cent[0] + g[k] * pot[0], lam_cent[1] + g[k] * pot[1],
            r[0], r[1]), i0))
    counts, lost = _sweep_batch(_weight_rows(lam_cent, pot, g, c, hh12),
                                seeds)
    for k in lost:
        # the column's own weights, as _weight_rows forms them, swept as
        # _defect_sign sweeps them
        w = 1.0 - hh12 * (lam_cent + g[k] * pot) + c[k]
        counts[k] = _sweep(w, 0.0, *seeds[k], r.size - 1, 1, mark, mark)[0]
    return [None if n is None else (+1 if n <= n_target else -1)
            for n in counts]


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
                     p: PotentialParams,
                     cfg: Optional[OracleConfig] = None) -> OracleResult:
    """Self-consistent bound-state energy of the reduced radial equation.

    Solves eps_inner(E) = eps_target(E) where eps_inner is the inner
    eigenvalue with the node count fixed by the quantum numbers (the degree
    of the polynomial factor of the solved component).  The energy window is
    scanned at 160 probe energies for sign changes of the defect, all of
    them in one batched outward Numerov sweep on a coarse grid; the bracket
    nearest E = 0 is bisected with single sweeps on the fine grid, U_eff
    being built at each energy from parts computed once, and the result is
    confirmed by a full inner eigensolve at the final energy.

    That eigensolve is given eps_target(E) as a guess: when the outer
    bisection has converged, the inner eigenvalue lies within 1e-8 of it,
    so the inner bisection skips the midpoints outside that window.  Each
    skipped midpoint goes to the side its sweep would have sent it to, so
    every output bit is that of the bisection without a guess; a guess the
    window check refutes (converged=False) costs up to two evaluations more.

    Raises NoEigenvalueError when no self-consistent bound state exists in
    the window, and NotConvergedError only when the inner eigensolve at the
    bisected energy fails.  A final defect |eps_inner - eps_target| above
    1e-8, including one left by a bisection cut short by a lost sweep, does
    not raise: the result comes back with converged=False (for example
    E = 2.53444863427006 for spin (0, -3) at H = 2.2314, C = 7.2786), so
    callers must check the flag.  Raising there instead waits for the
    benchmark to accept a typed failure (ROADMAP items 1 and 2).
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

    # scan for defect sign changes with one batched sweep on the coarse grid
    probes = np.linspace(e_lo, e_hi, 160)
    signs = _probe_signs(p, sym, qn, n_target, cfg, r_coarse, probes)
    brackets = []
    for i in range(len(probes) - 1):
        if signs[i] is not None and signs[i + 1] is not None \
                and signs[i] != signs[i + 1]:
            brackets.append((float(probes[i]), float(probes[i + 1])))
    if not brackets:
        raise NoEigenvalueError(
            "no self-consistent bound state in the energy window "
            f"[{e_lo:.4f}, {e_hi:.4f}]")
    lo, hi = min(brackets, key=lambda br: abs(0.5 * (br[0] + br[1])))

    parts = _effective_parts(r_fine, p, sym, qn, cfg.centrifugal_mode)
    outer = 0
    s_lo = _defect_sign(parts, sym, p.M, r_fine, lo)
    while hi - lo > 1e-10 and outer < 200:
        mid = 0.5 * (lo + hi)
        s_mid = _defect_sign(parts, sym, p.M, r_fine, mid)
        if s_mid is None:
            break
        if s_mid == s_lo:
            lo = mid
        else:
            hi = mid
        outer += 1

    E = 0.5 * (lo + hi)
    eps_t = target_eigenvalue(E, sym, p.M)
    solver = _InnerSolver(_u_eff(parts, E), r_fine)
    try:
        eps_inner, nodes = solver.eigenvalue(n_target, guess=eps_t)
    except NoEigenvalueError as err:
        raise NotConvergedError(
            f"bisected to E={E:.8f} but the inner eigensolve failed there: "
            f"{err}") from err
    defect = eps_inner - eps_t
    converged = abs(defect) <= _OUTER_TOL
    return OracleResult(E=float(E), inner_eigenvalue=float(eps_inner),
                        node_count=int(nodes), outer_iters=outer,
                        converged=bool(converged))
