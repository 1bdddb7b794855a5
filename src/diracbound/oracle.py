"""Independent shooting-method eigenvalue solver for the radial equations.

The reduced radial problem is u'' = [U_eff(r; E) - eps] u.  For a fixed
trial energy E this is a linear Sturm-Liouville eigenproblem in eps, solved
here on a Sturm level count from outward Numerov sweeps: a few bisection
steps on the count, then a secant estimate on the matching condition that
two more counts certify (bisection to the end where they do not).
Because U_eff itself depends on E, a bound state of the original problem is
the self-consistent point where the inner eigenvalue eps_inner(E) crosses
the target curve eps_target(E) fixed by the symmetry limit.

The sweeps run on a logarithmic mesh, x = ln r, in Liouville form (W. R.
Johnson, Atomic Structure Theory, Springer 2007, ch. 2): y = r^(-1/2) u
has the nodes of u and obeys y'' = [r^2 (U_eff - eps) + 1/4] y in x.
Near r = 0 that coefficient is D + b1 r + (b2 - eps) r^2 + O(r^3), with
D = 1/4 + lim r^2 U_eff, and the regular solution is y = exp(sqrt(D) x)
(1 + a1 r + a2 r^2 + O(r^3)).  Every outward sweep starts at r = 1e-4 fm
from this two-term Frobenius solution, with D, b1 and b2 read from the
first three samples of r^2 U_eff; it picks the regular solution also where
D < 1 and both solutions of u are square-integrable at the origin.

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
                         _effective_parts, _index, _u_eff, target_eigenvalue)
from .spectra import QuantumNumbers

__all__ = [
    "OracleConfig",
    "OracleResult",
    "schrodinger_eigenvalue",
    "dirac_eigenvalue",
]

_RESCALE_AT = 1e250
_CHUNK = 2048            # weights per array that a scalar sweep converts
_TAIL = 64               # steps between growing-tail checks of a sweep
_R_MIN = 1e-4            # first mesh point (fm)
_FLOOR_FROM = 0.5        # an inner search's floor is min U over r >= this (fm)
_OUTER_TOL = 1e-8        # half-width of the certificate's window at eps_target
_SECANT_AFTER = 8        # count bisections before the inner level's estimate
_LEVEL_TOL = 1e-12       # relative half-width of the inner level's certificate


@dataclass(frozen=True)
class OracleConfig:
    """Mesh settings for the shooting solver.

    The mesh is uniform in x = ln r, from r = 1e-4 fm to r_max, with
    num_points intervals (default 2241, at least 1000; on an 80 fm box
    the default step is h = 0.00607); the probe scan,
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
    num_points: int = 2241
    centrifugal_mode: str = "approximated"

    def __post_init__(self):
        if self.r_max is not None and not (
                isinstance(self.r_max, numbers.Real)
                and not isinstance(self.r_max, bool)
                and math.isfinite(self.r_max) and self.r_max > _R_MIN):
            raise DomainError(f"r_max must be a finite number above the "
                              f"grid start {_R_MIN:g}, got {self.r_max!r}")
        _index(self.num_points, "num_points", low=1000)
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


def _sweep(w, u0, u1, i, stop, step, limit=None):
    """Numerov sweep of u'' = f u with weights w, in direction step.

    u0 = u[i - step] and u1 = u[i] seed the recurrence, which fills
    u[i + step], ... up to index stop (step = +1 outward, -1 inward).
    Returns (nodes, ends): nodes counts the sign changes above the roundoff
    floor, so the noise that takes over deep in a forbidden region cannot
    fake one, and ends is (u[stop - step], u[stop]) when the sweep reaches
    stop, None when it stops early or takes no step (stop at or behind i).
    |u| is rescaled whenever it passes _RESCALE_AT; a rescale divides both
    values of the pair, so ends holds one scale; only ratios of u are
    meaningful.

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
      once |u0| is a normal float; |u| grows less than 27-fold per step
      and is rescaled once it passes _RESCALE_AT, so it stays below
      27 _RESCALE_AT and never overflows; and the rescale divides both
      values, changing their ratio by an ulp.  So once every later step
      qualifies and u0, u1 do, no later step adds a node, and the sweep
      returns.  The rule is checked after every _TAIL steps past the
      last step that does not qualify, so the recurrence's own steps
      cost what they did.

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
      thr = min(amax, _RESCALE_AT); below _RESCALE_AT, x2 is a new amax
      and thr.
    - Chunks.  The weights are converted a chunk at a time, and only the
      cuts every _TAIL steps from tail test the growing-tail rule, so
      the other cuts do not move where the sweep stops.
    """
    n = (stop - i) * step           # the number of steps
    if n < 1:
        return 0, None
    # The weights w[j] and 12 - 10 w[j] of the swept span, in sweep order.
    # Elementwise float64 arithmetic gives the bits the step-by-step
    # products would, and the steps run on Python floats, several times
    # faster than on numpy scalars.  The doubles are copied a chunk at a
    # time into an array.array, whose iteration makes each float as its
    # step needs it, from the float free list; a list made up front costs
    # about 10 % more per step.
    lo, hi = sorted((i - step, stop))
    wc = np.asarray(w[lo:hi + 1], dtype=float)
    if step < 0:
        wc = wc[::-1]
    kc = 12.0 - 10.0 * wc
    # Step t is taken at grid index i + t step and has center wc[t + 1].
    # The tail rule may stop the sweep after the steps before tail: every
    # later step qualifies.  The weight test is left out when every weight
    # passes it, as on every level count's span (_weights); a NaN weight
    # fails wc.min() > 0.5 and keeps it.
    ok = kc[1:-1] - wc[:-2] - wc[2:] >= 1e-12
    if not wc.min() > 0.5:
        big = wc > 0.5
        ok &= big[:-2] & big[1:-1] & big[2:]
    bad = np.flatnonzero(~ok)
    tail = int(bad[-1]) + 1 if bad.size else 0
    # chunk cuts before tail, checks from it, then n: bad < n, so tail <= n
    # and the three ranges are sorted and disjoint
    checks = range(tail, n, _TAIL)
    cuts = [*range(_CHUNK, tail, _CHUNK), *checks, n]
    if limit is None:
        limit = math.inf
    u0, u1 = float(u0), float(u1)
    s = -1.0 if u1 < 0.0 else 1.0
    x0, x1 = s * u0, s * u1
    nodes = 0
    amax = abs(u1)
    thr = min(amax, _RESCALE_AT)
    a = 0
    for b in cuts:
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
                if a2 > _RESCALE_AT:
                    u1 /= _RESCALE_AT
                    u2 /= _RESCALE_AT
                    amax /= _RESCALE_AT
                s = -1.0 if u2 < 0.0 else 1.0
                x1, x2 = s * u1, s * u2
                thr = min(amax, _RESCALE_AT)
            elif x2 > thr:
                if x2 <= _RESCALE_AT:
                    # then x2 passes amax <= _RESCALE_AT: a new maximum
                    amax = thr = x2
                else:
                    if x2 > amax:
                        amax = x2
                    x1 /= _RESCALE_AT
                    x2 /= _RESCALE_AT
                    amax /= _RESCALE_AT
                    thr = min(amax, _RESCALE_AT)
            x0, x1 = x1, x2
            wm, wq = wq, wp
        if b in checks and abs(x1) >= abs(x0) >= sys.float_info.min:
            return nodes, None
        a = b
    return nodes, (s * x0, s * x1)


def _origin(U, r):
    """(D, b1, b2) of f = r^2 U + 1/4 = D + b1 r + b2 r^2 + O(r^3) near
    r = 0: the parabola through the first three samples, so D is off by
    O(r0^3) and b2 by O(r0)."""
    (r0, r1, r2), (u0, u1, u2) = map(float, r[:3]), map(float, U[:3])
    f0, f1, f2 = (0.25 + r0 * r0 * u0, 0.25 + r1 * r1 * u1,
                  0.25 + r2 * r2 * u2)
    d01 = (f1 - f0) / (r1 - r0)
    b2 = ((f2 - f1) / (r2 - r1) - d01) / (r2 - r0)
    return f0 - d01 * r0 + b2 * r0 * r1, d01 - b2 * (r0 + r1), b2


class _InnerSolver:
    """Level and node counts of u'' = [U(r) - eps] u for a fixed U(r).

    r is a logarithmic mesh (_mesh) with step h in x = ln r.  The sweeps
    run on y = r^(-1/2) u, whose Numerov weights at eps are
    w_j = wU_j + eps (h^2/12) r_j^2, with wU_j = 1 - (h^2/12)(r_j^2 U_j +
    1/4); they are built as one array per count and passed to _sweep.
    Every outward sweep starts from the regular Frobenius solution, to
    two terms (_origin gives D, b1 and b2 of f = r^2 U + 1/4):
    y = r^sqrt(D) (1 + a1 r + a2 r^2), with a1 = b1 / (1 + 2 sqrt(D)) and
    a2 = (b1 a1 + b2 - eps) / (4 (1 + sqrt(D))), since the equation's
    coefficient is f - eps r^2; y0 = 1 and y1 = y(r1) / y(r0) (_seed).  The
    seed's error is then O(r0^3) in y1; with the first term only it is
    O(r0^2), which on a mesh from 1e-4 fm put a state with D = 0.018
    3e-8 off in E.  D includes every 1/r^2 term of U, and D < 0 is the
    fall to the centre, where U has no lowest level.  The level count
    (count) brackets a level; a secant on the matching mismatch
    (_mismatch, _estimate) estimates it, and the count certifies the
    estimate (eigenvalue).
    """

    def __init__(self, U: np.ndarray, r: np.ndarray):
        self.U = U
        self.r = r
        self.h = math.log(r[-1] / r[0]) / (r.size - 1)
        hh12 = self.h * self.h / 12.0
        r2 = r * r
        self.g = hh12 * r2
        self.wU = 1.0 - hh12 * (r2 * U + 0.25)
        self.D, self._b1, self._b2 = _origin(U, r)

    def _seed(self, eps: float) -> float:
        """y1 / y0 of the regular solution at eps, to two Frobenius terms."""
        root = math.sqrt(max(self.D, 0.0))
        a1 = self._b1 / (1.0 + 2.0 * root)
        a2 = (self._b1 * a1 + self._b2 - eps) / (4.0 * (1.0 + root))
        r0, r1 = float(self.r[0]), float(self.r[1])
        return (math.exp(root * self.h) * (1.0 + r1 * (a1 + a2 * r1))
                / (1.0 + r0 * (a1 + a2 * r0)))

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
        n, ends = _sweep(w, 1.0, self._seed(eps), 1, end, 1, limit)
        if ends is not None:
            y1, y2 = ends
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
        n_out, _ = _sweep(w, 1.0, self._seed(eps), 1, m, 1)
        v_end = 1e-120
        n_in, _ = _sweep(w, v_end, v_end * self._tail_ratio(eps, end),
                         end - 1, m, -1)
        return n_out + n_in

    def floor(self, n_target: int):
        """A search floor below the n_target eigenvalue and its level count.

        U near r_min can be dominated by an attractive singularity (-2e4
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

    def _mismatch(self, eps: float, j: int) -> Optional[float]:
        """F(eps) = y_out[j - 1] / y_out[j] - y_in[j - 1] / y_in[j], or None.

        y_out comes from an outward sweep to j from the regular solution
        (_seed), y_in from an inward sweep to j - 1 from the sweep's end
        (_weights), seeded with the decaying tail as in interior_nodes.  F
        is zero where the two make one discrete eigenvector, and rises
        through zero at a level (Cooley's matching condition, J. W.
        Cooley, Math. Comp. 15, 363 (1961)).  None when a sweep returns no
        end pair or ends on a zero.
        """
        w, end = self._weights(eps)
        _, out = _sweep(w, 1.0, self._seed(eps), 1, j, 1)
        v_end = 1e-120
        _, inward = _sweep(w, v_end, v_end * self._tail_ratio(eps, end),
                           end - 1, j - 1, -1)
        if out is None or inward is None or not out[1] or not inward[0]:
            return None
        return out[0] / out[1] - inward[1] / inward[0]

    def _estimate(self, a: float, b: float) -> Optional[float]:
        """A secant estimate of a level in the count bracket (a, b), or None.

        The match point j is fixed from the weights at a: the last index
        where w[j - 1] and w[j] are above 1, inside the allowed region;
        the weights grow with eps, so it stays inside over (a, b).  Secant
        steps on _mismatch at j start from a and b and end at the first
        step within _LEVEL_TOL max(1, |x|) of the point before it.  A
        secant, not Cooley's Newton step: that step needs sum r^2 y^2, so
        a sweep that stores y, and the secant needs only the end pairs
        _sweep returns.  None when no index qualifies as j, a mismatch is
        None, a step leaves (a, b) or ten steps do not settle; the count
        certifies whatever is returned (eigenvalue).
        """
        w, _ = self._weights(a)
        inside = np.flatnonzero((w[:-1] > 1.0) & (w[1:] > 1.0))
        if not inside.size:
            return None
        j = int(inside[-1]) + 1
        x0, f0, x1, f1 = a, self._mismatch(a, j), b, self._mismatch(b, j)
        for _ in range(10):
            if f0 is None or f1 is None or f0 == f1:
                return None
            x2 = x1 - f1 * (x1 - x0) / (f1 - f0)
            if not a < x2 < b:
                return None
            if abs(x2 - x1) <= _LEVEL_TOL * max(1.0, abs(x2)):
                return x2
            x0, f0, x1, f1 = x1, f1, x2, self._mismatch(x2, j)
        return None

    def eigenvalue(self, n_target: int):
        """(eps, interior nodes) of the level with n_target levels below it.

        Bisection on the level count (count: eps lies below the level when
        at most n_target levels lie below eps) runs _SECANT_AFTER steps;
        then the secant estimate x (_estimate) is certified by two counts
        (Johnson's Sturm count, as in dirac_eigenvalue): at most n_target
        levels below x - tol and more than n_target below x + tol, with
        tol = _LEVEL_TOL max(1, |x|), put the level within tol of x, and x
        is returned.  Without an estimate, or where the counts refute it,
        the bisection goes on to a relative width of 1e-14 and returns
        the midpoint, as it would with no estimate tried.  The node count
        is interior_nodes at eps.  Raises NoEigenvalueError when the level
        is not in the window (floor, 0).
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
        for step in range(220):
            if step == _SECANT_AFTER:
                x = self._estimate(a, b)
                if x is not None:
                    tol = _LEVEL_TOL * max(1.0, abs(x))
                    if self.count(x - tol, n_target) <= n_target \
                            < self.count(x + tol, n_target):
                        return x, self.interior_nodes(x)
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
    unset; the search floor is the minimum of U over r >= 0.5 fm.  The
    level is bracketed on the level count and estimated by a secant on
    the matching condition, which two counts certify to within 1e-12
    max(1, |eps|); where they do not, the count bisection runs to a
    relative width of 1e-14 (_InnerSolver.eigenvalue).
    Returns (eps, nodes); raises DomainError for an n_target that is not a
    nonnegative integer (QuantumNumbers' rule) or a U_eff that does not
    return one real value per radius, and NoEigenvalueError when the
    requested level does not exist in the searchable window (eps < 0) or
    when the eigenfunction found there has another number of interior
    nodes than n_target.
    """
    n_target = _index(n_target, "n_target")
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


def _inside_the_fall(parts, r: np.ndarray, e_a: float, e_b: float) -> float:
    """An energy just inside D > 0 in a probe pair (e_a, e_b) with D < 0 at
    one end only.

    D is linear in E (U_eff is), so D = 0 at e0, where the line through
    the ends' D crosses zero.  The energy returned lies 1e-3 of the way
    from e0 to the end where D > 0, so its D is 1e-3 of that end's, far
    above the O(r0^3) error of D's extrapolation (_origin); a root between
    the signed end and e0 escapes the new bracket only within that last
    1e-3.
    """
    d_a, d_b = (_origin(_u_eff(parts, E), r)[0] for E in (e_a, e_b))
    e0 = e_a + (e_b - e_a) * d_a / (d_a - d_b)
    return e0 + 1e-3 * ((e_a if d_a > d_b else e_b) - e0)


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
    on one logarithmic mesh (OracleConfig: num_points intervals, 2241 by
    default, up to r_max = 2 max(40, 12/sqrt(|eps_ref|)) fm unless the
    config sets it) and uses one level count (_InnerSolver.count: the
    levels below eps whose tail decays, from one outward Numerov sweep).
    160 probe energies split the energy window into neighbouring pairs,
    visited nearest E = 0 first, with one count per probe, each probe
    counted once; the first pair whose defect changes sign, the bracket
    nearest E = 0, is bisected with one count per step.  A probe where
    U_eff falls to the centre (U_eff ~ lam / r^2 near r = 0 with
    lam < -1/4, D < 0, as for spin (0, -3) at H = 2.5, C = 7) carries no
    sign: U_eff has no lowest level there.  A pair with one such end takes
    one more probe just inside D > 0 (_inside_the_fall) in place of that
    end, so a root just below the energy where U_eff starts to fall is
    bracketed.  U_eff is built at each energy from parts computed once.

    Two more counts certify the final energy (Johnson's Sturm count,
    J. Chem. Phys. 69, 4678 (1978)): the count never falls as eps rises,
    so the level lies in (eps_target - 1e-8, eps_target + 1e-8] exactly
    when at most n_target levels lie below the lower end and more than
    n_target below the upper one.  The node count is then interior_nodes
    at eps_target.

    Every failure raises; a returned result is certified.  Raises
    NoEigenvalueError when no self-consistent bound state exists in the
    window: no energy admits a decaying tail, no probe pair changes sign
    (with its extra probe where it has one), or U_eff falls to the centre
    at the final energy (D < 0, which the scan leaves only to rounding:
    the bracket's ends do not fall, and D is linear in E).  Raises NotConvergedError when the two counts refute
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
    # is the bracket taken.  A pair with one end that falls to the centre
    # takes one more probe, just inside D > 0 (_inside_the_fall), in place
    # of that end.
    for i in sorted(range(len(pairs)),
                    key=lambda i: abs(0.5 * (pairs[i][0] + pairs[i][1]))):
        for j in (i, i + 1):
            if j not in signs:
                signs[j] = _defect_sign(parts, sym, p.M, r, probes[j])
        (lo, hi), s_lo, s_hi = pairs[i], signs[i], signs[i + 1]
        if (s_lo is None) != (s_hi is None):
            inner = _inside_the_fall(parts, r, lo, hi)
            s_in = _defect_sign(parts, sym, p.M, r, inner)
            if s_lo is None:
                lo, s_lo = inner, s_in
            else:
                hi, s_hi = inner, s_in
        if None not in (s_lo, s_hi) and s_lo != s_hi:
            break
    else:
        raise NoEigenvalueError(
            "no self-consistent bound state in the energy window "
            f"[{e_lo:.4f}, {e_hi:.4f}]")

    outer = 0
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
