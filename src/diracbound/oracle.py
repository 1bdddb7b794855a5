"""Independent shooting-method eigenvalue solver for the radial equations.

The reduced radial problem is u'' = [U_eff(r; E) - eps] u.  For a fixed
trial energy E this is a linear Sturm-Liouville eigenproblem in eps, solved
here by bisection on a Sturm level count from outward Numerov sweeps.
Because U_eff itself depends on E, a bound state of the original problem is
the self-consistent point where the inner eigenvalue eps_inner(E) crosses
the target curve eps_target(E) fixed by the symmetry limit.

The sweeps run on a logarithmic mesh, x = ln r, in Liouville form (W. R.
Johnson, Atomic Structure Theory, Springer 2007, ch. 2): y = r^(-1/2) u
has the nodes of u and obeys y'' = [r^2 (U_eff - eps) + 1/4] y in x.
Near r = 0 that coefficient tends to D = 1/4 + lim r^2 U_eff, and the
regular solution is y ~ exp(sqrt(D) x), which seeds every outward sweep
exactly, also where D < 1 and both solutions of u are square-integrable
at the origin.

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
_R_MIN = 1e-6            # first mesh point (fm)
_FLOOR_FROM = 0.5        # an inner search's floor is min U over r >= this (fm)
_OUTER_TOL = 1e-8        # half-width of the certificate's window at eps_target


@dataclass(frozen=True)
class OracleConfig:
    """Mesh settings for the shooting solver.

    The mesh is uniform in x = ln r, from r = 1e-6 fm to r_max, with
    num_points intervals (default 3000, at least 1000); the probe scan,
    both bisections and the node count all run on it.  r_max=None picks
    40 fm for schrodinger_eigenvalue, and for dirac_eigenvalue
    2 max(40, 12/sqrt(|eps_ref|)) fm from the problem's own energy scale,
    eps_ref being eps_target at the middle of the energy window; an
    explicit r_max is used as given.  Each sweep ends before its first
    Numerov weight of at most 1/2, deep in the forbidden region, so a
    large box costs few steps.  centrifugal_mode selects the approximated
    (screened) or exact (1/r^2 plus exact potential) radial equation.
    """

    r_max: Optional[float] = None
    num_points: int = 3000
    centrifugal_mode: str = "approximated"

    def __post_init__(self):
        if self.r_max is not None and not (
                isinstance(self.r_max, numbers.Real)
                and not isinstance(self.r_max, bool)
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

    Two level counts certify that the inner level at E lies within 1e-8
    of eps_target(E) (see dirac_eigenvalue, which raises where they do
    not); node_count is that level's interior node count and outer_iters
    the number of outer bisection steps.
    """

    E: float
    node_count: int
    outer_iters: int

    @property
    def converged(self) -> bool:
        """Always True: dirac_eigenvalue raises instead of returning an
        uncertified energy.  Kept read-only for readers of the old flag
        (perfbench/worker.py and perfbench/workloads.py)."""
        return True


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
    """Level and node counts of u'' = [U(r) - eps] u for a fixed U(r).

    r is a logarithmic mesh (_mesh) with step h in x = ln r.  The sweeps
    run on y = r^(-1/2) u, whose Numerov weights at eps are
    w_j = wU_j + eps (h^2/12) r_j^2, with wU_j = 1 - (h^2/12)(r_j^2 U_j +
    1/4); they are built as one array per count and passed to _sweep with
    c = 0.  Every outward sweep starts from the regular solution at r[0],
    y0 = 1 and y1 = exp(sqrt(D) h), D = 1/4 + r[0]^2 U[0].  D includes
    every 1/r^2 term of U, and D < 0 is the fall to the centre, where U
    has no lowest level.
    """

    def __init__(self, U: np.ndarray, r: np.ndarray):
        self.U = U
        self.r = r
        self.h = math.log(r[-1] / r[0]) / (r.size - 1)
        hh12 = self.h * self.h / 12.0
        r2 = r * r
        self.g = hh12 * r2
        self.wU = 1.0 - hh12 * (r2 * U + 0.25)
        self.D = float(0.25 + r2[0] * U[0])
        self.y1 = math.exp(math.sqrt(max(self.D, 0.0)) * self.h)

    def _weights(self, eps: float):
        """The weights at eps and the end of a sweep: the point before the
        first weight <= 1/2, deep in the forbidden region, where the
        recurrence stops following the equation (the mesh end if none).
        """
        w = self.wU + eps * self.g
        low = np.flatnonzero(w <= 0.5)
        return w, (int(low[0]) if low.size else w.size) - 1

    def _tail_ratio(self, eps: float, end: int) -> float:
        """y[end - 1] / y[end] of a tail u ~ exp(-k r), k = sqrt(U[end] - eps)."""
        f_end = float(self.U[end]) - eps
        k = math.sqrt(f_end) if f_end > 0.0 else 0.0
        r0, r1 = float(self.r[end - 1]), float(self.r[end])
        return math.exp(min(k * (r1 - r0), 300.0)) * math.sqrt(r1 / r0)

    def count(self, eps: float, limit: Optional[int] = None) -> int:
        """The number of levels below eps whose tail decays.

        The Sturm count of B. R. Johnson (J. Chem. Phys. 69, 4678 (1978))
        for the end condition y[end - 1] = _tail_ratio(eps, end) y[end]
        that seeds the inward sweep: the nodes of one outward sweep to the
        end (_weights), plus one when it ends in a tail that decays faster
        (no sign change from y[end - 1] to y[end], and |y[end - 1]| >
        |y[end]| _tail_ratio).  Just below a level the outward tail grows;
        at the level it meets the end condition; just above it, it decays
        faster and then crosses zero, at first past the end.  So the count
        never falls as eps rises and steps by one at each level.  With
        limit given, a count above it is only known to exceed it
        (_sweep's count limit).
        """
        w, end = self._weights(eps)
        n, ends = _sweep(w, 0.0, 1.0, self.y1, 1, end, 1, limit)
        if ends is not None:
            _, y1, y2 = ends
            if not (y1 < 0.0 < y2 or y2 < 0.0 < y1) \
                    and abs(y1) > abs(y2) * self._tail_ratio(eps, end):
                n += 1
        return n

    def interior_nodes(self, eps: float) -> int:
        """Node count of the matched eigenfunction, tail artifact excluded.

        The sweeps match at the outer turning point m, the first point
        past the last one where U < eps: genuine nodes all lie before it,
        and past it only the roundoff-injected growing mode of the outward
        sweep can flip sign.  So the outward sweep stops at m, and the
        nodes from m on come from an inward sweep from the end (_weights),
        seeded by the decaying tail.
        """
        w, end = self._weights(eps)
        allowed = np.flatnonzero(self.U[:end + 1] < eps)
        m = min(int(allowed[-1]) + 1, end) if allowed.size else 1
        n_out, _ = _sweep(w, 0.0, 1.0, self.y1, 1, m, 1)
        v_end = 1e-120
        n_in, _ = _sweep(w, 0.0, v_end, v_end * self._tail_ratio(eps, end),
                         end - 1, m, -1)
        return n_out + n_in

    def floor(self, n_target: int):
        """A search floor below the n_target eigenvalue and its level count.

        U near r_min can be dominated by an attractive singularity (-2e6
        for hydrogen's -2/r), so the floor starts from the minimum of U
        over r >= 0.5 fm and deepens adaptively until the level count at
        the floor does not exceed n_target.  Returns (floor, count) or None.
        """
        i_skip = min(int(np.searchsorted(self.r, _FLOOR_FROM)), self.U.size - 2)
        floor = float(self.U[i_skip:].min())
        if floor >= 0.0:
            return None
        for _ in range(6):
            n = self.count(floor, n_target)
            if n <= n_target:
                return floor, n
            floor *= 4.0
        return None

    def eigenvalue(self, n_target: int):
        """(eps, interior nodes) of the level with n_target levels below it.

        A single bisection on the level count (count: eps lies below the
        level when at most n_target levels lie below eps) finds eps to a
        relative width of 1e-14; the node count is interior_nodes at eps.
        Raises NoEigenvalueError when the level is not in the window
        (floor, 0).
        """
        found = self.floor(n_target)
        if found is None:
            raise NoEigenvalueError(
                "potential admits no bound spectrum on this grid")
        lo, n_lo = found
        n_hi = self.count(0.0, n_target)
        if n_hi <= n_target:
            raise NoEigenvalueError(
                f"no eigenvalue with {n_target} nodes in the search window "
                f"(level count spans [{n_lo}, {n_hi}))")
        a, b = lo, 0.0
        for _ in range(220):
            mid = 0.5 * (a + b)
            if self.count(mid, n_target) <= n_target:
                a = mid
            else:
                b = mid
            if b - a <= 1e-14 * max(1.0, abs(a), abs(b)):
                break
        eps = 0.5 * (a + b)
        return eps, self.interior_nodes(eps)


def _mesh(cfg: OracleConfig, r_max: float) -> np.ndarray:
    """The logarithmic mesh from _R_MIN to cfg.r_max, or to r_max when the
    config leaves it unset, with cfg.num_points intervals."""
    if cfg.r_max is not None:
        r_max = cfg.r_max
    return np.exp(np.linspace(math.log(_R_MIN), math.log(r_max),
                              cfg.num_points + 1))


def schrodinger_eigenvalue(U_eff: Callable, n_target: int,
                           cfg: OracleConfig):
    """Eigenvalue eps of u'' = [U(r) - eps] u with n_target interior nodes.

    U_eff is a callable that maps an array of radii to an array of real
    values of the same shape.  It is solved on the config's logarithmic
    mesh (OracleConfig), which ends at 40 fm when the config leaves r_max
    unset; the search floor is the minimum of U over r >= 0.5 fm.
    Returns (eps, nodes); raises DomainError for an n_target that is not a
    nonnegative integer (QuantumNumbers' rule) or a U_eff that does not
    return one real value per radius, and NoEigenvalueError when the
    requested level does not exist in the searchable window (eps < 0) or
    when the eigenfunction found there has another number of interior
    nodes than n_target.
    """
    if not isinstance(n_target, numbers.Integral) or n_target < 0:
        raise DomainError(f"n_target must be an integer >= 0, "
                          f"got {n_target!r}")
    r = _mesh(cfg, 40.0)
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
                 E: float) -> Optional[int]:
    """Sign of eps_inner(E) - eps_target(E) via the level count.

    parts are _effective_parts on the mesh r; the node target is the
    degree of their equation.  The inner eigenvalue exceeds the target
    exactly when at most degree levels lie below eps_target, so one
    outward sweep (_InnerSolver.count) decides the sign without solving
    the inner eigenproblem.  Returns +1 or -1, or None where U_eff falls
    to the centre (D < 0): it has no lowest level there, and its count is
    only the mesh's.
    """
    solver = _InnerSolver(_u_eff(parts, E), r)
    if solver.D < 0.0:
        return None
    degree = parts[0].degree
    n = solver.count(target_eigenvalue(E, sym, M), degree)
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
    of the polynomial factor of the solved component).  Every search runs
    on one logarithmic mesh (OracleConfig: num_points intervals, 3000 by
    default, up to r_max = 2 max(40, 12/sqrt(|eps_ref|)) fm unless the
    config sets it) and uses one level count (_InnerSolver.count: the
    levels below eps whose tail decays, from one outward Numerov sweep).
    160 probe energies split the energy window into neighbouring pairs,
    visited nearest E = 0 first, with one count per probe, each probe
    counted once; the first pair whose defect changes sign, the bracket
    nearest E = 0, is bisected with one count per step.  A probe where
    U_eff falls to the centre (U_eff ~ lam / r^2 at r[0] with lam < -1/4,
    as for spin (0, -3) at H = 2.5, C = 7) carries no sign: U_eff has no
    lowest level there.  U_eff is built at each energy from parts computed
    once.

    Two more counts certify the final energy (Johnson's Sturm count,
    J. Chem. Phys. 69, 4678 (1978)): the count never falls as eps rises,
    so the level lies in (eps_target - 1e-8, eps_target + 1e-8] exactly
    when at most n_target levels lie below the lower end and more than
    n_target below the upper one.  The node count is then interior_nodes
    at eps_target.

    Every failure raises; a returned result is certified.  Raises
    NoEigenvalueError when no self-consistent bound state exists in the
    window: no energy admits a decaying tail, no probe pair changes sign,
    or U_eff falls to the centre at the final energy (D < 0, which the
    scan leaves only to rounding: the bracket's ends do not fall, and lam
    is linear in E).  Raises NotConvergedError when the two counts refute
    the final level, as where the bracket holds a jump of the defect
    rather than a root; its message names both counts and eps_target.
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

    # reference scale for the automatic box: the deepest target eigenvalue
    mid = 0.5 * (e_lo + e_hi)
    eps_ref = abs(target_eigenvalue(mid, sym, p.M))
    r = _mesh(cfg, 2.0 * max(40.0, 12.0 / math.sqrt(max(eps_ref, 1e-12))))
    parts = _effective_parts(r, p, sym, qn, cfg.centrifugal_mode)

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
                signs[j] = _defect_sign(parts, sym, p.M, r, probes[j])
        if None not in (signs[i], signs[i + 1]) and signs[i] != signs[i + 1]:
            lo, hi = pairs[i]
            break
    else:
        raise NoEigenvalueError(
            "no self-consistent bound state in the energy window "
            f"[{e_lo:.4f}, {e_hi:.4f}]")

    outer = 0
    s_lo = _defect_sign(parts, sym, p.M, r, lo)
    while hi - lo > 1e-10 and outer < 200:
        mid = 0.5 * (lo + hi)
        if _defect_sign(parts, sym, p.M, r, mid) == s_lo:
            lo = mid
        else:
            hi = mid
        outer += 1

    E = 0.5 * (lo + hi)
    eps_t = target_eigenvalue(E, sym, p.M)
    solver = _InnerSolver(_u_eff(parts, E), r)
    if solver.D < 0.0:
        # U_eff ~ lam / r^2 with D = 1/4 + lam < 0: no lowest level, so
        # the count is only the mesh's and certifies nothing
        raise NoEigenvalueError(
            f"U_eff falls to the centre at the bisected E={E:.8f} "
            f"(D = {solver.D:.6g} < 0): no lowest level")
    n_lo = solver.count(eps_t - _OUTER_TOL, n_target)
    n_hi = solver.count(eps_t + _OUTER_TOL, n_target)
    if not n_lo <= n_target < n_hi:
        raise NotConvergedError(
            f"bisected to E={E:.8f}, but the level counts at eps_target "
            f"-/+ {_OUTER_TOL:g} (eps_target = {eps_t:.10g}) are "
            f"({n_lo}, {n_hi}), not (at most {n_target}, above {n_target}); "
            f"a count above {n_target} is only a lower bound")
    return OracleResult(E=float(E), node_count=solver.interior_nodes(eps_t),
                        outer_iters=outer)
