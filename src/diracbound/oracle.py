"""Independent shooting-method eigenvalue solver for the radial equations.

The reduced radial problem is u'' = [U_eff(r; E) - eps] u.  For a fixed
trial energy E this is a linear Sturm-Liouville eigenproblem in eps, solved
here by bisection on a Sturm level count from outward Numerov sweeps.
Because U_eff itself depends on E, a bound state of the original problem is
the self-consistent point where the inner eigenvalue eps_inner(E) crosses
the target curve eps_target(E) fixed by the symmetry limit.

Nothing in this module uses the closed-form spectrum; it exists to check it.
"""

from __future__ import annotations

import math
import numbers
import sys
from array import array
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
_CHUNK = 2048            # weights per array that a scalar sweep converts
_TAIL = 64               # steps between growing-tail checks of a sweep
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
    window.  dirac_eigenvalue places 160 probe energies across the window
    and counts levels at them, nearest E = 0 first, on a second grid of
    min(num_points, max(2000, num_points // 5)) steps over the same span:
    a fifth of the solve grid from 10000 points on, 2000 steps from 2000
    to 10000 points, and the solve grid itself below 2000.
    centrifugal_mode selects the approximated (screened) or exact (1/r^2
    plus exact potential) radial equation.
    """

    r_max: Optional[float] = None
    num_points: int = 20000
    centrifugal_mode: str = "approximated"

    def __post_init__(self):
        if self.r_max is not None and not (
                isinstance(self.r_max, numbers.Real)
                and math.isfinite(self.r_max) and self.r_max > _R_MIN):
            raise DomainError(f"r_max must be a finite number above the "
                              f"grid start {_R_MIN:g}, got {self.r_max!r}")
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
    1e-8, or when U_eff falls to the centre (see dirac_eigenvalue); E is
    then still returned, so callers must check the flag.
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


def _sweep(w, c, u0, u1, i, stop, step, limit=None):
    """Numerov sweep of u'' = f u with weights w[j] + c, in direction step.

    u0 = u[i - step] and u1 = u[i] seed the recurrence, which fills
    u[i + step], ... up to index stop (step = +1 outward, -1 inward).
    Returns (nodes, ends): nodes counts the sign changes above the roundoff
    floor, so the noise that takes over deep in a forbidden region cannot
    fake one, and ends is (u[stop - 2 step], u[stop - step], u[stop]) when
    the sweep reaches stop, None when it stops early or takes no step
    (stop at or behind i).  |u| is rescaled whenever it passes _RESCALE_AT,
    except on the last two steps, so ends holds one scale; only ratios of
    u are meaningful.

    Two rules end the sweep before stop, and neither changes nodes:
    - Count limit.  With limit given, the sweep returns as soon as nodes
      exceeds it; nodes is then only known to be above limit.
    - Growing tail (the discrete Sturm argument of B. R. Johnson,
      J. Chem. Phys. 69, 4678 (1978)).  Write a step as
      wp u2 = k u1 - wm u0, with k = 12 - 10 w at its center.  Suppose
      every step left has all three weights above 1/2 and
      k - wm - wp >= 1e-12 (a discrete f >= 0), and 0 < |u0| <= |u1|.
      Then u2 / u1 = (k - wm u0 / u1) / wp >= 1 + 1e-12 / wp, so u2 has
      u1's sign and 0 < |u1| <= |u2|: by induction no later step changes
      sign.  This holds in floating point: with wm + wp < k < 7 the
      rounding of a step is a few ulp of 14 |u1|, far below 1e-12 |u1|
      once |u0| is a normal float; |u| grows less than 27-fold per step,
      so it never overflows; and the rescale by _RESCALE_AT divides both
      values, changing their ratio by an ulp; the last two steps, which
      never rescale, leave |u| below 27^2 _RESCALE_AT.  So once every
      later step qualifies and u0, u1 do, no later step adds a node, and
      the sweep returns.  The rule is checked after every _TAIL steps
      past the last step that does not qualify, so the recurrence's own
      steps cost what they did.

    The common step costs the recurrence and two comparisons (one more
    and a store while |u| grows); every returned bit is that of a loop
    that tests each step in full:
    - Sign-normalized frame.  The steps run on x = s u, with s = -1
      exactly when u1 < 0, so x1 is not negative.  Negation is exact and
      round-to-nearest is symmetric in sign, so when the frame's step
      x2 = (k x1 - wm x0) / wp comes out positive, it is s u2 bit for
      bit (its numerator is nonzero, so no signed zero or NaN arises), it
      has u1's sign, so it is no node, and |u2| = x2.  Any other x2 (a
      sign change, a zero or a NaN) takes the rare branch: it forms u0
      and u1 from the frame, recomputes u2 from them as the plain
      recurrence does, applies the node rule and the rescale to it, and
      sets s from its sign.
    - New maximum.  amax and the rescale are touched only when x2 passes
      thr = min(amax, the chunk's rescale threshold); below that
      threshold, x2 is a new amax and thr.
    - Chunk cuts instead of per-step index tests.  The last two steps
      form chunks without rescale, and the last step is a chunk of its
      own: ends is its u0 and the state it leaves.  When the count limit
      trips on it, the sweep returns before ends is recorded.  Only the
      cuts every _TAIL steps from tail test the growing-tail rule, so the
      other cuts do not move where the sweep stops.
    """
    n = (stop - i) * step           # the number of steps
    if n < 1:
        return 0, None
    # The weights w[j] + c and 12 - 10 (w[j] + c) of the swept span, in
    # sweep order.  Elementwise float64 arithmetic gives the bits the
    # step-by-step sums would, and the steps run on Python floats, several
    # times faster than on numpy scalars.  The doubles are copied a chunk
    # at a time into an array.array, whose iteration makes each float as
    # its step needs it, from the float free list; a list made up front
    # costs about 10 % more per step.
    lo, hi = sorted((i - step, stop))
    wc = np.asarray(w[lo:hi + 1], dtype=float) + c
    if step < 0:
        wc = wc[::-1]
    kc = 12.0 - 10.0 * wc
    # Step t is taken at grid index i + t step and has center wc[t + 1].
    # The tail rule may stop the sweep after the steps before tail: every
    # later step qualifies.
    big = wc > 0.5
    bad = np.flatnonzero(~((kc[1:-1] - wc[:-2] - wc[2:] >= 1e-12)
                           & big[:-2] & big[1:-1] & big[2:]))
    tail = int(bad[-1]) + 1 if bad.size else 0
    checks = range(tail, n, _TAIL)
    cuts = {*range(_CHUNK, min(tail, n), _CHUNK), *checks, n}
    cuts.update(t for t in (n - 2, n - 1) if t > 0)
    if limit is None:
        limit = math.inf
    u0, u1 = float(u0), float(u1)
    s = -1.0 if u1 < 0.0 else 1.0
    x0, x1 = s * u0, s * u1
    nodes = 0
    amax = abs(u1)
    a = 0
    for b in sorted(cuts):
        rescale_at = math.inf if a >= n - 2 else _RESCALE_AT
        thr = min(amax, rescale_at)
        if a == n - 1:
            first = s * x0          # u[stop - 2 step]
        ws = array("d", wc[a:b + 2].tobytes())
        ks = array("d", kc[a + 1:b + 1].tobytes())
        # a step's wp is the wm of the step after next
        wm, wq = ws[0], ws[1]
        for k, wp in zip(ks, ws[2:]):
            x2 = (k * x1 - wm * x0) / wp
            if not x2 > 0.0:
                # a sign change, a zero or a NaN: the step in u itself
                u1 = s * x1
                u2 = (k * u1 - wm * (s * x0)) / wp
                a2 = abs(u2)
                if a2 > amax:
                    amax = a2
                if (u2 < 0.0) != (s < 0.0) and u2 != 0.0 and u1 != 0.0 \
                        and a2 > 1e-12 * amax:
                    nodes += 1
                    if nodes > limit:
                        return nodes, None
                if a2 > rescale_at:
                    u1 /= _RESCALE_AT
                    u2 /= _RESCALE_AT
                    amax /= _RESCALE_AT
                s = -1.0 if u2 < 0.0 else 1.0
                x1, x2 = s * u1, s * u2
                thr = min(amax, rescale_at)
            elif x2 > thr:
                if x2 <= rescale_at:
                    # then x2 passes amax <= rescale_at: a new maximum
                    amax = thr = x2
                else:
                    if x2 > amax:
                        amax = x2
                    x1 /= _RESCALE_AT
                    x2 /= _RESCALE_AT
                    amax /= _RESCALE_AT
                    thr = min(amax, rescale_at)
            x0, x1 = x1, x2
            wm, wq = wq, wp
        if b in checks and abs(x1) >= abs(x0) >= sys.float_info.min:
            return nodes, None
        a = b
    return nodes, (first, s * x0, s * x1)


class _InnerSolver:
    """Level and node counts of u'' = [U(r) - eps] u for a fixed U(r)."""

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

        The sweep starts at the first index i0 where the weight is close
        enough to 1 for the recurrence to be accurate, and no later than
        two points before match_idx.  u ~ r^p (1 + a1 r) at r[i0] and
        r[i0 + 1]; a tiny linear start replaces it when the series does
        not give finite, nonzero values.
        """
        near = np.abs(1.0 - (self.wU[:self.match_idx - 1] + c)) <= 0.05
        i0 = int(near.argmax())
        if not near[i0]:
            return None
        r0, r1 = self.r[i0], self.r[i0 + 1]
        u0 = (r0 ** self.p) * (1.0 + self.a1 * r0)
        u1 = (r1 ** self.p) * (1.0 + self.a1 * r1)
        if not (math.isfinite(u0) and math.isfinite(u1)) or u1 == 0.0:
            u0, u1 = 0.0, 1e-10
        return u0, u1, i0 + 1

    def _shoot_out(self, c, stop, limit=None):
        """Outward sweep from the series-seeded start to index stop.

        Returns _sweep's (nodes, ends), or (None, None) when the grid
        offers no accurate start.
        """
        start = self._start(c)
        if start is None:
            return None, None
        return _sweep(self.wU, c, *start, stop, 1, limit)

    def _tail_ratio(self, eps):
        """u[-2] / u[-1] of a tail exp(-k r), k = sqrt(U[-1] - eps)."""
        f_end = float(self.U[-1]) - eps
        k = math.sqrt(f_end) if f_end > 0.0 else 0.0
        return math.exp(min(k * self.h, 300.0))

    def count(self, eps: float,
              limit: Optional[int] = None) -> Optional[int]:
        """The number of levels below eps whose tail decays, or None.

        The Sturm count of B. R. Johnson (J. Chem. Phys. 69, 4678 (1978))
        for the end condition u[-2] = _tail_ratio(eps) u[-1] that seeds
        the inward sweep: the nodes of one outward sweep over the whole
        grid, plus one when it ends in a tail that decays faster (no sign
        change from u[-2] to u[-1], and |u[-2]| > |u[-1]| _tail_ratio).
        Just below a level the outward tail grows; at the level it meets
        the end condition; just above it, it decays faster and then
        crosses zero, at first past the end.  So the count never falls as
        eps rises and steps by one at each level.  With limit given, a
        count above it is only known to exceed it (_sweep's count limit).
        """
        n, ends = self._shoot_out(self.hh12 * eps, len(self.wU) - 1, limit)
        if ends is not None:
            _, u1, u2 = ends
            if not (u1 < 0.0 < u2 or u2 < 0.0 < u1) \
                    and abs(u1) > abs(u2) * self._tail_ratio(eps):
                n += 1
        return n

    def interior_nodes(self, eps: float) -> Optional[int]:
        """Node count of the matched eigenfunction, tail artifact excluded.

        Genuine nodes all lie inside the classically allowed region, so the
        outward sweep stops 10 points past the outer turning point, or at
        match_idx if that comes first; beyond it only the roundoff-injected
        growing mode can flip sign.  The nodes from match_idx on come from
        an inward sweep, seeded by the decaying tail.
        """
        c = self.hh12 * eps
        allowed = np.nonzero(self.U < eps)[0]
        m = self.match_idx
        cap = m
        if allowed.size:
            cap = min(m, int(allowed[-1]) + 10)
        n_match, _ = self._shoot_out(c, cap)
        if n_match is None:
            return None
        v_end = 1e-120
        n_in, _ = _sweep(self.wU, c, v_end, v_end * self._tail_ratio(eps),
                         len(self.wU) - 2, m, -1)
        return n_match + n_in

    def floor(self, n_target: int):
        """A search floor below the n_target eigenvalue and its level count.

        The raw grid minimum of U can be dominated by an attractive
        singularity at tiny r, so the floor starts from the minimum over the
        resolvable region and deepens adaptively until the level count at
        the floor does not exceed n_target.  Returns (floor, count) or None.
        """
        i_skip = min(np.searchsorted(self.r, 100.0 * self.h), self.U.size - 2)
        floor = float(self.U[i_skip:].min())
        if floor >= 0.0:
            return None
        for _ in range(6):
            n = self.count(floor, n_target)
            if n is not None and n <= n_target:
                return floor, n
            floor *= 4.0
        return None

    def _below(self, eps: float, n_target: int) -> Optional[bool]:
        """Whether eps lies below the n_target eigenvalue (at most n_target
        levels below eps), or None when the sweep was lost."""
        n = self.count(eps, n_target)
        return None if n is None else n <= n_target

    def eigenvalue(self, n_target: int, guess: Optional[float] = None):
        """(eps, interior nodes) of the level with n_target levels below it.

        A single bisection on the level count (see count and _below) finds
        eps; the node count is interior_nodes at eps, -1 when that sweep
        is lost.  Raises NoEigenvalueError when the level is not in the
        window (floor, 0) or a sweep inside it is lost.

        guess, when given, is checked before bisecting: if eps lies below
        the eigenvalue at guess - _OUTER_TOL and not at guess + _OUTER_TOL,
        midpoints outside that window are sent to the side the check
        implies, without a sweep, and only those inside it are swept.  The
        level count never falls as eps rises, so each skipped midpoint goes
        where its sweep would have sent it: the midpoints, the final
        bracket and the result are those of the bisection without a guess.
        A refuted guess (or one whose sweep is lost) costs up to two
        evaluations of _below and leaves the bisection as it is.
        """
        found = self.floor(n_target)
        if found is None:
            raise NoEigenvalueError(
                "potential admits no bound spectrum on this grid")
        lo, n_lo = found
        n_hi = self.count(0.0, n_target)
        if n_hi is None or n_hi <= n_target:
            raise NoEigenvalueError(
                f"no eigenvalue with {n_target} nodes in the search window "
                f"(level count spans [{n_lo}, {n_hi}))")
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

    U_eff is a callable that maps an array of radii to an array of real
    values of the same shape.  When the config leaves r_max unset, the
    grid ends at 40 fm.  Returns (eps, nodes); raises DomainError for an
    n_target that is not a nonnegative integer (QuantumNumbers' rule) or a
    U_eff that does not return one real value per radius, and
    NoEigenvalueError when the requested level does not exist in the
    searchable window (eps < 0) or when the eigenfunction found there has
    another number of interior nodes than n_target.
    """
    if not isinstance(n_target, numbers.Integral) or n_target < 0:
        raise DomainError(f"n_target must be an integer >= 0, "
                          f"got {n_target!r}")
    r = _build_grid(cfg, 1.0)
    U = np.asarray(U_eff(r))
    if U.shape != r.shape or U.dtype.kind not in "iuf":
        raise DomainError(f"U_eff must return one real value per radius, "
                          f"got shape {U.shape} of dtype {U.dtype}")
    eps, nodes = _InnerSolver(U.astype(float), r).eigenvalue(n_target)
    if nodes != n_target:
        raise NoEigenvalueError(
            f"the level found at eps={eps:.8g} has {nodes} interior nodes, "
            f"not {n_target}")
    return eps, nodes


def _u_eff(parts, E: float):
    """U_eff(r; E) from the parts _effective_parts returns.

    The sum is effective_potential's, in its order, so the bits are its.
    """
    eq, lam_cent, pot = parts
    return lam_cent + eq.s * eq.coupling(E) * pot


def _defect_sign(parts, sym: SymmetryLimit, M: float, r: np.ndarray,
                 E: float):
    """Sign of eps_inner(E) - eps_target(E) via the level count.

    parts are _effective_parts on the grid r; the node target is the
    degree of their equation.  The inner eigenvalue exceeds the target
    exactly when at most degree levels lie below eps_target, so one
    outward sweep (_InnerSolver.count) decides the sign without solving
    the inner eigenproblem.  Returns +1, -1 or None (integration
    impossible).
    """
    solver = _InnerSolver(_u_eff(parts, E), r)
    degree = parts[0].degree
    n = solver.count(target_eigenvalue(E, sym, M), degree)
    if n is None:
        return None
    return +1 if n <= degree else -1


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
    of the polynomial factor of the solved component).  Every search uses
    one level count (_InnerSolver.count: the levels below eps whose tail
    decays, from one outward Numerov sweep).  160 probe energies split the
    energy window into neighbouring pairs, visited nearest E = 0 first,
    with one count per probe on a coarse grid (OracleConfig; never finer
    than the fine grid), each probe counted once; the first pair whose
    defect changes sign, the bracket nearest E = 0, is bisected with one
    count per step on the fine grid.  On either grid
    U_eff is built at each energy from parts computed once, and the result
    is confirmed by a full inner eigensolve at the final energy, which
    bisects on the same count.

    That eigensolve is given eps_target(E) as a guess: when the outer
    bisection has converged, the inner eigenvalue lies within 1e-8 of it,
    so the inner bisection skips the midpoints outside that window.  Each
    skipped midpoint goes to the side its sweep would have sent it to, so
    every output bit is that of the bisection without a guess; a guess the
    window check refutes (converged=False) costs up to two evaluations more.

    Raises NoEigenvalueError when no self-consistent bound state exists in
    the window, and NotConvergedError only when the inner eigensolve at the
    bisected energy fails.  A final defect |eps_inner - eps_target| above
    1e-8, including one left by a bisection cut short by a lost sweep or a
    bracket around a jump of the defect rather than a root, does not raise:
    the result comes back with converged=False, so callers must check the
    flag.  Raising there instead waits for the benchmark to accept a typed
    failure (ROADMAP items 1 and 2).  converged is also False where U_eff
    ~ lam / r^2 at r[0] with lam < -1/4 (spin (0, -3) at H = 2.5, C = 7):
    U_eff then falls to the centre, and has no lowest level to converge to.
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
    r_coarse = _build_grid(cfg, eps_ref, min(cfg.num_points,
                                             max(2000, cfg.num_points // 5)))
    r_fine = _build_grid(cfg, eps_ref)

    # scan for defect sign changes on the coarse grid
    coarse = _effective_parts(r_coarse, p, sym, qn, cfg.centrifugal_mode)
    probes = np.linspace(e_lo, e_hi, 160)
    pairs = [(float(probes[i]), float(probes[i + 1]))
             for i in range(len(probes) - 1)]
    signs = {}
    # Neighbouring probe pairs nearest E = 0 first, the lower one on a tie
    # (sorted is stable), each probe counted once; the first sign change
    # is the bracket taken.
    for i in sorted(range(len(pairs)),
                    key=lambda i: abs(0.5 * (pairs[i][0] + pairs[i][1]))):
        for j in (i, i + 1):
            if j not in signs:
                signs[j] = _defect_sign(coarse, sym, p.M, r_coarse, probes[j])
        if None not in (signs[i], signs[i + 1]) and signs[i] != signs[i + 1]:
            lo, hi = pairs[i]
            break
    else:
        raise NoEigenvalueError(
            "no self-consistent bound state in the energy window "
            f"[{e_lo:.4f}, {e_hi:.4f}]")

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
    # U_eff ~ lam / r^2, 1 + 4 lam < 0: eps_inner is only the grid's level
    falls = 1.0 + 4.0 * solver.U[0] * r_fine[0] * r_fine[0] < 0.0
    converged = abs(defect) <= _OUTER_TOL and not falls
    return OracleResult(E=float(E), inner_eigenvalue=float(eps_inner),
                        node_count=int(nodes), outer_iters=outer,
                        converged=bool(converged))
