"""Shooting-method integrator against closed-form eigenvalues."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from diracbound import (
    DiracboundError,
    DomainError,
    NoEigenvalueError,
    NotConvergedError,
    NonRelParams,
    OracleConfig,
    PotentialParams,
    QuantumNumbers,
    ReducedEquation,
    SymmetryLimit,
    benchmark_params,
    dirac_eigenvalue,
    effective_potential,
    nonrel_energy_hulthen,
    numerov_integrate,
    schrodinger_eigenvalue,
    count_nodes,
    solve_levels,
    target_eigenvalue,
)
from diracbound import oracle
from diracbound.potentials import _effective_parts
from diracbound.oracle import _RESCALE_AT, _energy_window, _sweep, _u_eff


def test_numerov_reproduces_sine_solution():
    r = np.linspace(0.0, math.pi, 2001)
    Q = -np.ones_like(r)
    u = numerov_integrate(r, Q, 0.0, math.sin(r[1]))
    assert np.max(np.abs(u - np.sin(r))) < 1e-9


def test_numerov_rescaling_keeps_proportionality():
    # cosh(10 r) passes the overflow guard near r = 57.6, so the output is
    # rescaled (max |u| stays below the guard) yet must stay proportional.
    r = np.linspace(0.0, 60.0, 12001)
    Q = 100.0 * np.ones_like(r)
    u = numerov_integrate(r, Q, 1.0, math.cosh(10.0 * r[1]))
    ref = np.cosh(10.0 * r)
    i, j = 6000, 11000
    assert np.all(np.isfinite(u))
    assert np.max(np.abs(u)) < _RESCALE_AT
    assert u[j] / u[i] == pytest.approx(ref[j] / ref[i], rel=1e-5)


def test_numerov_rejects_bad_grids():
    with pytest.raises(DomainError):
        numerov_integrate(np.array([0.0, 1.0, 3.0]), np.zeros(3), 0.0, 1.0)
    with pytest.raises(DomainError):
        numerov_integrate(np.array([0.0, 1.0]), np.zeros(2), 0.0, 1.0)


# Sweep cases on a dyadic grid (h = 2**-7), so stepping either way meets the
# same exact spacing: (direction, Q(r), r_end, seed solution, mark).  The
# oscillating Q varies, so a weight taken from the wrong neighbor shows; in
# the growing cases the seed solution is exact and passes the overflow
# guard before mark.
_H = 2.0 ** -7
# Q giving the weight 1 - (h^2 / 12) Q = 1/2 exactly: a step with this weight
# breaks the growing-tail certificate, so a sweep that ends on it is not cut
# short on a growing tail
_Q_HALF = 6.0 / (_H * _H)


def _wave(r):
    return np.sin(3.0 * r + 0.5)


def _ripple(r):
    return -9.0 - 2.0 * np.cos(r)


def _steep(r):
    return np.full_like(r, 100.0)


_SWEEP_CASES = {
    "forward-oscillating": (1, _ripple, 10.0, _wave, 600),
    "backward-oscillating": (-1, _ripple, 10.0, _wave, 600),
    "forward-growing": (1, _steep, 60.0, lambda r: np.cosh(10.0 * r), 7600),
    "backward-growing": (-1, _steep, 60.0,
                         lambda r: np.exp(10.0 * (60.0 - r)), 100),
}


def _sweep_setup(step, q, r_end, seed_solution):
    r = np.arange(round(r_end / _H) + 1) * _H
    Q = q(r)
    w = (1.0 - (_H * _H / 12.0) * Q).tolist()
    order = np.arange(r.size)[::step]
    seed = seed_solution(r[order[:2]])
    return r, Q, w, order, float(seed[0]), float(seed[1])


@pytest.mark.parametrize("case", sorted(_SWEEP_CASES))
def test_sweep_matches_numerov_integrate_at_mark(case):
    # The sweep and the reference both run in sweep order and stop one
    # point past mark, so ends is the triplet at mark.  In the growing
    # cases every step qualifies for the growing-tail rule, which would
    # stop the sweep before its first step; the weight 1/2 at the stop
    # point keeps it going, so the rescales on the way are checked too.
    step, q, r_end, seed_solution, mark = _SWEEP_CASES[case]
    r, Q, w, order, u0, u1 = _sweep_setup(step, q, r_end, seed_solution)
    if case.endswith("growing"):
        assert _sweep(w, 0.0, u0, u1, order[1], mark + step, step) == (0, None)
        Q[mark + step] = _Q_HALF
        w[mark + step] = 0.5
    nodes, ends = _sweep(w, 0.0, u0, u1, order[1], mark + step, step)
    k = int(np.nonzero(order == mark)[0][0])
    seg = order[:k + 2]
    u = numerov_integrate(r[seg], Q[seg], u0, u1)
    assert nodes == count_nodes(np.append(u, u[-1]))
    assert list(ends) == u[k - 1:k + 2].tolist()
    if case.endswith("growing"):
        assert abs(ends[1]) < _RESCALE_AT < seed_solution(r[mark])


@pytest.mark.parametrize("step", [1, -1])
def test_sweep_counts_nodes_like_count_nodes(step):
    # Q = -9: sin(3 r + 0.5) on [0, 10] has 9 interior zeros, 4 below r = 5.
    r, Q, w, order, u0, u1 = _sweep_setup(
        step, lambda x: np.full_like(x, -9.0), 10.0, _wave)
    cap = int(np.searchsorted(r, 5.0))
    nodes = _sweep(w, 0.0, u0, u1, order[1], order[-1], step)[0]
    before_cap = _sweep(w, 0.0, u0, u1, order[1], cap, step)[0]
    u = numerov_integrate(r[order], Q[order], u0, u1)
    kc = int(np.nonzero(order == cap)[0][0])
    assert nodes == count_nodes(u) == 9
    assert before_cap == count_nodes(np.append(u[:kc + 1], u[kc]))
    assert before_cap == (4 if step > 0 else 5)


@st.composite
def _bounded_sweeps(draw):
    """An outward sweep of u'' = (r^2 - e + a sin 3r) u from u(0) = 0 on a
    dyadic grid, with stop, spike and limit.  Without the ripple the odd
    levels are e = 3, 7, 11, ...  Families: an end that is classically
    allowed, where the growing-tail rule must never stop the sweep; a
    36 fm grid with stop near its end, so that the growing tail passes
    _RESCALE_AT on the way; e just off a level, where u decays into the
    forbidden region and, above the level, crosses zero there; and any
    e.  With spike, the weight at stop is 1/2, which keeps the
    growing-tail rule from stopping the sweep."""
    family = draw(st.sampled_from(["allowed-end", "rescale", "near-level",
                                   "any"]))
    h = 2.0 ** -draw(st.integers(5, 7))
    r_end = 36.0 if family == "rescale" else draw(
        st.sampled_from([4.0, 6.0, 8.0, 12.0]))
    ripple = 0.0
    if family == "allowed-end":
        e = r_end * r_end + draw(st.floats(1.0, 60.0))
    elif family == "near-level":
        e = draw(st.sampled_from([3.0, 7.0, 11.0])) + draw(
            st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-7.0, 0.0))
    else:
        e = draw(st.floats(-5.0, 40.0))
        ripple = draw(st.floats(0.0, 2.0))
    n = round(r_end / h)
    stop = draw(st.integers(n - 100 if family == "rescale" else 0, n))
    return (family, h, r_end, e, ripple, stop, draw(st.booleans()),
            draw(st.none() | st.integers(0, 6)), draw(st.booleans()))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_bounded_sweeps())
# a node at the first step of the growing-tail certificate's run
@example(("any", 2.0 ** -6, 8.0, 3.64, 0.0, 512, False, None, False))
# decays into a 36 fm tail just below the lowest odd level, then grows
# past _RESCALE_AT before stop
@example(("rescale", 2.0 ** -6, 36.0, 3.0 - 1e-7, 0.0, 2250, True, 0, True))
def test_bounded_sweep_matches_numerov_integrate_and_count_nodes(case):
    # The stop rules leave the node count (or, with a limit, a count above
    # it) as a full sweep has it, and ends is the full sweep's last three
    # values whenever the sweep reaches stop.  count_nodes skips exact
    # zeros and has no roundoff floor, so draws with an exact zero or a
    # sign change at the floor are set aside; the floor rule is pinned by
    # the test_sweep_batch_node_* tests.
    family, h, r_end, e, ripple, stop, spike, limit, as_list = case
    r = np.arange(round(r_end / h) + 1) * h
    Q = r * r - e + ripple * np.sin(3.0 * r)
    if spike:
        Q[stop] = 6.0 / (h * h)
    w = 1.0 - (h * h / 12.0) * Q
    nodes, ends = _sweep(w.tolist() if as_list else w, 0.0, 0.0, h, 1, stop,
                         1, limit)
    if stop < 2:
        # stop at or behind the seeds: no step
        assert (nodes, ends) == (0, None)
        return
    u = numerov_integrate(r[:stop + 1], Q[:stop + 1], 0.0, h)
    a = np.abs(u[1:])
    flip = np.signbit(u[1:-1]) != np.signbit(u[2:])
    floor = 1e-12 * np.maximum.accumulate(a)[1:]
    assume(a.all() and (a[1:][flip] > floor[flip]).all())
    # the sweep counts sign changes between u[1], ..., u[stop]
    want = count_nodes(np.append(u, u[-1]))
    if limit is not None and want > limit:
        assert (nodes, ends) == (limit + 1, None)
        return
    assert nodes == want
    if spike or family == "allowed-end":
        assert ends is not None
    if ends is not None and max(abs(ends[1]), abs(ends[2])) <= _RESCALE_AT:
        # the last two steps do not rescale, nor, below _RESCALE_AT, does
        # the reference
        assert list(ends) == u[-3:].tolist()


def test_growing_tail_rule_reaches_a_flip_at_the_last_step():
    # Weights 1 - 2**-5 (a discrete f > 0) let u grow about 1.8-fold per
    # step from equal seeds.  The center weight 1.5 (k = -3) of the last
    # step flips the sign of u; the step before, whose wp it is, still
    # grows |u|.  Those two steps break the certificate, so the rule may
    # not stop the sweep before the grid ends.
    w = np.full(300, 1.0 - 2.0 ** -5)
    w[-2] = 1.5
    assert _sweep(w, 0.0, 1.0, 1.0, 1, w.size - 1, 1)[0] == 1


# The next three tests keep the names they had when each case was also
# run through a batched outward sweep; _sweep now steps every probe, so
# they pin its node floor alone: a sign change is a node only above
# 1e-12 of the running max of |u|.

def test_sweep_batch_node_rule_matches_sweep():
    # All weights are exactly 1, so u falls on the exact line A - j/1024 and
    # reaches A - 1 at j = 1024: a sign change there below the floor
    # (A = 1 - 2**-53) or through an exact zero (A = 1) is no node, and one
    # above it (A = 1 + 2**-52, the next point) is.
    n = 1100
    assert [_sweep(np.ones(n), 0.0, a, a - 2.0 ** -10, 1, n - 1, 1)[0]
            for a in (1.0 - 2.0 ** -53, 1.0, 1.0 + 2.0 ** -52)] == [0, 0, 1]


def test_sweep_batch_node_floor_follows_running_max():
    # All weights are 1 but one, so u climbs the exact line u[j] = j from
    # its start value 1.  The weight W at index f = 1000 gives u[f] = f / W:
    # with W = -2**43 the sign flips at 1.1e-10, below 1e-12 of the running
    # max 999 but above 1e-12 of the start value, so it is no node; with
    # W = -2**30 it flips at 9.3e-7, above the floor, and is one.  No later
    # step changes sign, so the sweep to f counts what the whole one does.
    n, f = 1100, 1000
    for weight, want in ((-2.0 ** 43, 0), (-2.0 ** 30, 1)):
        w = np.ones(n)
        w[f] = weight
        assert _sweep(w, 0.0, 0.0, 1.0, 1, n - 1, 1)[0] == want
        nodes, ends = _sweep(w, 0.0, 0.0, 1.0, 1, f, 1)
        assert nodes == want
        if want == 0:
            assert 1e-12 < -ends[2] < 1e-12 * ends[1]


def test_sweep_batch_node_floor_carries_across_blocks():
    # All weights are 1 but one, so u falls on the exact line
    # u[j] = f + 1.5 - j from its start value f + 0.5, the running max; the
    # weight W at index f = 194 flips the sign at u[f] = 1.5 / W.  With
    # W = -2**33 (1.7e-10) that is below 1e-12 of the running max, set far
    # back, though above 1e-12 of the |u| of the last steps, so it is no
    # node; with W = -2**28 (5.6e-9) it is one.
    f = 194
    for weight, want in ((-2.0 ** 33, 0), (-2.0 ** 28, 1)):
        w = np.ones(f + 100)
        w[f] = weight
        assert _sweep(w, 0.0, f + 1.5, f + 0.5, 1, w.size - 1, 1)[0] == want


def _per_step_sweep(w, c, u0, u1, i, stop, step, limit=None):
    """_sweep as a plain loop: every step tests the sign, the count limit
    and, but on the last two steps, the rescale, and no step stops on a
    growing tail.  The reference for test_sweep_matches_its_per_step_form,
    and the source of triplets where _sweep may stop short of them."""
    n = (stop - i) * step
    if n < 1:
        return 0, None
    # The weights w[j] + c and 12 - 10 (w[j] + c) of the swept span, in
    # sweep order.  Elementwise float64 arithmetic gives the bits the
    # step-by-step sums would.
    lo, hi = sorted((i - step, stop))
    wc = np.asarray(w[lo:hi + 1], dtype=float) + c
    if step < 0:
        wc = wc[::-1]
    kc = 12.0 - 10.0 * wc
    if limit is None:
        limit = math.inf
    u0, u1 = float(u0), float(u1)
    nodes = 0
    amax = abs(u1)
    neg1 = u1 < 0.0
    ws = wc.tolist()
    for t, (wm, k, wp) in enumerate(zip(ws, kc[1:-1].tolist(), ws[2:])):
        u2 = (k * u1 - wm * u0) / wp
        if u2 < 0.0:
            a2, neg2 = -u2, True
        else:
            a2, neg2 = u2, False
        if a2 > amax:
            amax = a2
        if neg2 != neg1 and u2 != 0.0 and u1 != 0.0 and a2 > 1e-12 * amax:
            nodes += 1
            if nodes > limit:
                return nodes, None
        if a2 > _RESCALE_AT and t < n - 2:
            u1 /= _RESCALE_AT
            u2 /= _RESCALE_AT
            amax /= _RESCALE_AT
        first = u0
        u0, u1, neg1 = u1, u2, neg2
    return nodes, (first, u0, u1)


_SEEDS = [0.0, -0.0, 1.0, -1.0, 2.5, -3.0, 1e-300, -5e-324, 1e200, -1e249]
# oscillating (k = -1), slowly growing and flat weights
_CALM = [1.3, 1.0 - 2.0 ** -12, 1.0]
# and fast growing, tiny (a huge jump of |u|), negative, NaN, k = 0, k < 0
_WILD = _CALM + [0.6, 1e-260, 1e-300, -1.0, math.nan, 1.2, 2.0, 0.5]


@st.composite
def _any_sweeps(draw):
    """Weights, seeds and (i, stop, step, limit) of a sweep.

    Families: "wild", weights from _WILD; "oscillating", weights of 1.3
    (k = -1, a node every two steps or so), where the count limit may
    trip on any step; "linear", weights of 1 (k = 2), so that integer
    seeds step exactly along a line that meets zero or crosses it at or
    under the 1e-12 node floor; "jump", calm weights with a tiny one that
    makes one of the last three steps pass _RESCALE_AT, followed by
    weights that drop |u| and then multiply it; and "tail", an
    oscillating stretch before growing weights, long enough for the
    _CHUNK cuts and the growing-tail stop.  Half the draws put stop
    within a dozen steps of the start, or up to two behind it.
    """
    family = draw(st.sampled_from(["wild", "oscillating", "linear", "jump",
                                   "tail"]))
    size = draw(st.integers(2200, 2600) if family == "tail"
                else st.integers(3, 90))
    step = draw(st.sampled_from([1, -1]))
    i = draw(st.integers(1, size - 2))
    near = (st.integers(max(i - 2, 0), min(i + 12, size - 1)) if step > 0
            else st.integers(max(i - 12, 0), min(i + 2, size - 1)))
    far = st.integers(i, size - 1) if step > 0 else st.integers(0, i)
    stop = draw(near | far)
    limit = draw(st.none() | st.integers(0, 6))
    c = 0.0
    u0, u1 = draw(st.sampled_from(_SEEDS)), draw(st.sampled_from(_SEEDS))
    # the weights of the wild and jump families come from one drawn seed:
    # a draw per weight would cost most of the test's time
    pick = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).choice
    if family == "wild":
        w = pick(_WILD, size).tolist()
        c = draw(st.sampled_from([0.0, 2.0 ** -10]))
    elif family == "oscillating":
        w = [1.3] * size
    elif family == "linear":
        w = [1.0] * size
        d = draw(st.sampled_from([1.0, -3.0, 2.0 ** 40, -(2.0 ** 40)]))
        u0 = draw(st.integers(0, 30)) * d + draw(st.integers(-20, 20))
        u1 = u0 - d
    elif family == "jump":
        # the sweep runs to the grid's end, and |u| stays near the seeds'
        # size up to the jump
        stop = size - 1 if step > 0 else 0
        u0, u1 = draw(st.sampled_from(_SEEDS[2:6])), draw(
            st.sampled_from(_SEEDS[2:6]))
        w = pick(_CALM, size).tolist()
        # the wp of the last step, of the one before it or of the one
        # before the two that never rescale, then, in sweep order, weights
        # that drop |u| tenfold and then multiply it by 1e9
        at = stop - draw(st.integers(0, 2)) * step
        for j, v in enumerate((1e-300, 1.0, 10.0, 1e-7)):
            if 0 <= at + j * step < size:
                w[at + j * step] = v
    else:
        turn = draw(st.integers(0, size))
        w = [1.3] * turn + [1.0 - 2.0 ** -5] * (size - turn)
    if draw(st.booleans()):
        w = np.array(w)
    return w, c, u0, u1, i, stop, step, limit


def _hex(values):
    return None if values is None else [float.hex(v) for v in values]


@settings(max_examples=400, derandomize=True, deadline=None)
@given(_any_sweeps())
# the step before the last two passes _RESCALE_AT and must rescale; the
# last two pass it unrescaled
@example(([1.3] * 20 + [1e-300, 1.0, 10.0], 0.0, 1.0, 1.0, 1, 22, 1, None))
@example(([1.3] * 20 + [1e-300, 1.0, 10.0], 0.0, 1.0, 1.0, 1, 21, 1, None))
# the count limit trips on the last step: no ends
@example(([1.3] * 40, 0.0, 0.0, 1.0, 1, 2, 1, 0))
@example(([1.3] * 40, 0.0, 0.0, 1.0, 38, 37, -1, 0))
# an exact zero, then a sign change under the node floor
@example(([1.0] * 40, 0.0, 3.0, 2.0, 1, 39, 1, None))
@example(([1.0] * 40, 0.0, 10 * 2.0 ** 40 - 5.0, 9 * 2.0 ** 40 - 5.0,
          1, 39, 1, None))
# NaN weights
@example(([1.3] * 10 + [math.nan] + [1.3] * 10, 0.0, 0.0, 1.0, 1, 20, 1,
          None))
# stop behind the seeds, either way: no step
@example(([1.3] * 10, 0.0, 0.0, 1.0, 5, 1, 1, None))
@example(([1.3] * 10, 0.0, 0.0, 1.0, 5, 9, -1, None))
def test_sweep_matches_its_per_step_form(case):
    # _sweep runs in a sign-normalized frame with chunk cuts and stops
    # once the count is settled; its node count is the per-step loop's,
    # and so are its ends, the zero signs and NaNs included, whenever it
    # returns them.
    want = _per_step_sweep(*case)
    got = _sweep(*case)
    assert got[0] == want[0]
    if got[1] is not None:
        assert _hex(got[1]) == _hex(want[1])


def _log_mesh(r_max, num_points):
    """The oracle's logarithmic mesh to r_max with num_points intervals."""
    return oracle._mesh(OracleConfig(r_max=r_max, num_points=num_points),
                        r_max)


def _count_steps(monkeypatch):
    """A function giving the recurrence steps _sweep has taken since the
    call: each chunk makes its weights' array, then its centers' array,
    with one element per step."""
    made = []
    real = oracle.array

    def spy(code, data):
        values = real(code, data)
        made.append(len(values))
        return values

    monkeypatch.setattr(oracle, "array", spy)
    return lambda: sum(made[1::2])


def test_node_only_sweeps_stop_on_a_growing_tail(monkeypatch):
    # Pseudospin 1s1/2 at C = -5, H = 0 is repulsive: U_eff - eps_target
    # is positive everywhere, so every step of every probe qualifies for
    # the growing-tail rule and each level count, with a count limit or
    # without, stops before its first step: it reads the triplet at the
    # sweep's end only when the sweep gets there.
    qn, sym, p = QuantumNumbers(1, -1), SymmetryLimit.pseudospin(-5.0), \
        benchmark_params(H=0.0)
    steps = _count_steps(monkeypatch)
    with pytest.raises(NoEigenvalueError):
        dirac_eigenvalue(qn, sym, p, OracleConfig(num_points=1000))
    assert steps() == 0
    r = _log_mesh(60.0, 4000)
    lo, hi = _energy_window(ReducedEquation.of(p, sym, qn))
    for E in np.linspace(lo + 1e-6, hi - 1e-6, 5):
        solver = oracle._InnerSolver(
            effective_potential(r, E, p, sym, qn, "approximated"), r)
        eps = target_eigenvalue(E, sym, p.M)
        before = steps()
        assert solver.count(eps, 1) == 0
        assert solver.count(eps) == 0
        assert steps() == before


def test_sweep_stop_points_are_pinned(monkeypatch):
    # Steps of the level count's outward sweep for the spot state (spin
    # 0p3/2, H = 0) on 4000-interval log meshes, with a count limit of 0
    # and without, which only a step count shows: the stop rules leave
    # every returned value as a full sweep has it.  On the 60 fm mesh the
    # sweep stops on the growing tail, on the first _TAIL check after the
    # last step that breaks the certificate (at E = 0.3 no step breaks
    # it), or on the node past the limit, which the tail stop finds too
    # at E = 0.45.  On the 12 fm mesh, 1e-9 above its level, y still
    # decays at the mesh end: the sweep runs all 3999 steps from its
    # start, and the tail test adds the level.
    p = PotentialParams(V0=2.0, A=1.0, B=1.0, delta=0.05, H=0.0, M=4.76)
    qn, sym = QuantumNumbers(0, -2), SymmetryLimit.spin(5.0)
    steps = _count_steps(monkeypatch)
    got = []
    for r_max, E in ((60.0, 0.3), (60.0, 0.42), (60.0, 0.45),
                     (12.0, 0.4232619662)):
        r = _log_mesh(r_max, 4000)
        solver = oracle._InnerSolver(
            effective_potential(r, E, p, sym, qn, "approximated"), r)
        eps = target_eigenvalue(E, sym, p.M)
        for limit in (0, None):
            before = steps()
            got.append((solver.count(eps, limit), steps() - before))
    assert got == [(0, 0), (0, 0), (0, 3541), (0, 3541), (1, 3423),
                   (1, 3423), (1, 3999), (1, 3999)]


def test_a_sweep_ends_before_its_first_weight_of_one_half():
    # On a 2000 fm mesh the weights of hydrogen's equation at eps < 0 fall
    # to 1/2 and then far below it (to -67 at eps = -4) deep in the
    # forbidden region, where the recurrence no longer follows the
    # equation: a sweep over the whole mesh counts hundreds of false
    # nodes there.  The level count ends the sweep at the point before
    # the first weight <= 1/2 and reads hydrogen's levels, -1/(n + 1)^2.
    r = _log_mesh(2000.0, 3000)
    solver = oracle._InnerSolver(_hydrogen(r), r)
    for eps, levels in ((-4.0, 0), (-1.5, 0), (-0.5, 1), (-0.2, 2),
                        (-0.1, 3)):
        w, end = solver._weights(eps)
        assert w[end] > 0.5 >= w[end + 1]
        assert (w[1:end + 1] > 0.5).all() and w[-1] < 0.0
        assert _sweep(w, 0.0, 1.0, solver.y1, 1, w.size - 1, 1)[0] > 10
        assert solver.count(eps) == levels, eps


def test_interior_nodes_with_the_turning_point_behind_the_start():
    # U < eps only at r[0], so the outer turning point is index 1, where
    # the outward sweep starts: it takes no step, and the inward one
    # finds no node in the forbidden region behind it.
    r = _log_mesh(10.0, 1000)
    U = np.where(np.arange(r.size) < 1, -1e5, 1.0)
    solver = oracle._InnerSolver(U, r)
    w, end = solver._weights(-1.0)
    assert end == r.size - 1
    assert _sweep(w, 0.0, 1.0, solver.y1, 1, 1, 1) == (0, None)
    assert solver.interior_nodes(-1.0) == 0


# dirac_eigenvalue and schrodinger_eigenvalue outputs pinned as float.hex:
# a faster oracle must keep every bit.  Dirac cases: (limit, C, V0 = 2 A =
# 2 B, H, (n, kappa), centrifugal mode, num_points) -> (E, node_count,
# outer_iters, converged).  The pseudospin case is the charge conjugate of
# the spin one (V0, A, B, C and eta negated), on its own mesh.  The
# approximated cases lie within 4.1e-8 of their closed-form roots, the
# last one on 1000 points.
_PINNED_DIRAC = {
    ("spin", 5.0, 2.0, 0.0, (0, -2), "approximated", 1000):
        ("0x1.b16b95c122956p-2", 0, 29, True),
    ("pseudospin", -5.0, -2.0, 0.0, (0, -1), "approximated", 1500):
        ("-0x1.b16b95c4c6192p-2", 0, 29, True),
    ("spin", 7.0, 2.0, 0.0, (0, -1), "exact", 2000):
        ("0x1.22863f5596ef2p+1", 0, 28, True),
    ("spin", 5.0, 2.0, 5.0, (1, -2), "approximated", 2000):
        ("0x1.37d065e289fb6p+0", 1, 29, True),
    ("spin", 6.0903, 0.6306, 2.9848, (2, -1), "approximated", 1000):
        ("0x1.f01fee10d24fbp+1", 2, 28, True),
}
_PINNED_HYDROGEN = {0: "-0x1.000000000e134p+0", 1: "-0x1.00000000438dcp-2"}


def test_oracle_outputs_are_pinned():
    for (kind, C, V0, H, nk, mode, num), want in _PINNED_DIRAC.items():
        p = PotentialParams(V0=V0, A=V0 / 2.0, B=V0 / 2.0, delta=0.05, H=H,
                            M=4.76)
        res = dirac_eigenvalue(QuantumNumbers(*nk), SymmetryLimit(kind, C),
                               p, OracleConfig(num_points=num,
                                               centrifugal_mode=mode))
        got = (res.E.hex(), res.node_count, res.outer_iters, res.converged)
        assert got == want, (kind, C, nk)
    with pytest.raises(NoEigenvalueError) as err:
        dirac_eigenvalue(QuantumNumbers(1, -1), SymmetryLimit.pseudospin(-5.0),
                         benchmark_params(H=0.0),
                         OracleConfig(num_points=1000))
    assert str(err.value) == ("no self-consistent bound state in the energy "
                              "window [-4.7600, -0.2400]")
    cfg = OracleConfig(r_max=60.0, num_points=3000)
    for n, want in _PINNED_HYDROGEN.items():
        eps, nodes = schrodinger_eigenvalue(lambda r: -2.0 / r, n, cfg)
        assert (float(eps).hex(), nodes) == (want, n)


def _pinned_inputs(kind, C, V0, H, nk, mode, num, A=None, B=None):
    # A and B default to V0 / 2, as in _PINNED_DIRAC
    p = PotentialParams(V0=V0, A=V0 / 2.0 if A is None else A,
                        B=V0 / 2.0 if B is None else B, delta=0.05, H=H,
                        M=4.76)
    return (QuantumNumbers(*nk), SymmetryLimit(kind, C), p,
            OracleConfig(num_points=num, centrifugal_mode=mode))


def test_u_eff_from_parts_is_effective_potential():
    # The outer bisection builds U(E) from parts computed once; it must be
    # effective_potential's U, bit for bit, in both centrifugal modes.
    r = _log_mesh(60.0, 2000)
    for key in _PINNED_DIRAC:
        qn, sym, p, cfg = _pinned_inputs(*key)
        mode = cfg.centrifugal_mode
        parts = _effective_parts(r, p, sym, qn, mode)
        lo, hi = _energy_window(ReducedEquation.of(p, sym, qn))
        for E in [lo, 0.3 * lo + 0.7 * hi, 0.0, 0.1, hi, -1.7]:
            assert np.array_equal(_u_eff(parts, E), effective_potential(
                r, E, p, sym, qn, mode), equal_nan=True), (key, E)


# The verify spot state and a state near the fall to the centre (1 + 4 lam
# = 0.23 for U_eff ~ lam / r^2 at its energy), both on the default mesh; a
# state whose final defect was 9.6e-8 on the 1001-point uniform grid of
# earlier versions (converged=False, 1 + 4 lam = 164); and a state whose
# U_eff falls to the centre (1 + 4 lam < 0) over the upper part of its
# energy window.
_SPOT = ("spin", 5.0, 2.0, 0.0, (0, -2), "approximated", 3000)
_NEAR_FALL = ("spin", 7.2786, 2.0, 2.2314, (0, -3), "approximated", 3000)
_UNCONVERGED = ("spin", 4.7241, 2.5171, 4.9842, (1, 1), "approximated", 1000,
                -1.4149, 0.6642)
_FALLS = ("spin", 7.0, 2.0, 2.5, (0, -3), "approximated", 2000)


# More states that the uniform grids of earlier versions got wrong, on
# 1000 points unless stated: two without a normalizable root, whose
# brackets held the energy where U_eff starts to fall to the centre (the
# final eigensolve then found no bound spectrum, on 5000 points, or no
# floor) and which now find no bracket; one whose bracket held a jump of
# the defect (final defect 24.8); and one whose level count stepped where
# the outward sweep's start index moved, 4.5e-9 above eps_target, and
# which returned E = 1.42973.
_NO_SPECTRUM = ("spin", -1.0534, -0.8742, 0.9394, (0, -3), "approximated",
                5000, -0.3801, 1.7679)
_NO_FLOOR = ("spin", 0.0, 0.0, 0.0, (0, -3), "approximated", 1000, 0.0, 1.0)
_JUMP = ("spin", -2.2103, 0.858, 4.6935, (0, 2), "approximated", 1000,
         -0.6888, -0.7218)
_START_STEP = ("pseudospin", 0.0, -1.4639074292756025, 0.0, (2, -2),
               "approximated", 1000, 0.5757924780141548, 0.0)


@pytest.mark.parametrize("key, root", [(_UNCONVERGED, 1.775929351832813),
                                       (_JUMP, 2.8160304044128193),
                                       (_START_STEP, 1.3329506701737843)],
                         ids=["unconverged", "jump", "start-step"])
def test_grid_artifacts_give_way_to_the_closed_form_root(key, root):
    # Each state's only normalizable root (AC-5's normalizable_roots); on
    # 1000 points the oracle lands within 1.3e-7 of it, with the node
    # count of the degree.  _START_STEP once returned E = 1.42973.
    qn, sym, p, cfg = _pinned_inputs(*key)
    res = dirac_eigenvalue(qn, sym, p, cfg)
    assert res.converged
    assert res.node_count == ReducedEquation.of(p, sym, qn).degree
    assert abs(res.E - root) < 1e-6


def _check_certificate(qn, sym, p, cfg, final_D=None):
    """dirac_eigenvalue's outcome against a full inner eigensolve at its E.

    The solvers that _defect_sign builds for the scan and the outer
    bisection are not recorded, so the one recorded, if any, is the final
    solver, and its level counts are the certificate's two.  final_D, when
    given, replaces that solver's D.  The reference is the eigensolve the
    certificate replaces, _InnerSolver.eigenvalue on that solver.  Returns
    "certified", or the error type raised: NoEigenvalueError from the scan,
    or where U_eff falls to the centre at the final energy (the message
    names D), and NotConvergedError where the two counts refute the level
    (the message names both).
    """
    scanning, last = [], []

    class Recorded(oracle._InnerSolver):
        def __init__(self, U, r):
            super().__init__(U, r)
            self.counts = []
            if not scanning:
                last.append(self)
                if final_D is not None:
                    self.D = final_D

        def count(self, eps, limit=None):
            n = super().count(eps, limit)
            self.counts.append((eps, n))
            return n

    real_sign = oracle._defect_sign

    def sign(*args):
        scanning.append(True)
        try:
            return real_sign(*args)
        finally:
            scanning.pop()

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_InnerSolver", Recorded)
        mp.setattr(oracle, "_defect_sign", sign)
        try:
            res, err = dirac_eigenvalue(qn, sym, p, cfg), None
        except DiracboundError as e:
            res, err = None, e
    if not last:
        assert type(err) is NoEigenvalueError
        return NoEigenvalueError
    solver, = last
    if solver.D < 0.0:
        assert type(err) is NoEigenvalueError
        assert f"D = {solver.D:.6g}" in str(err)
        assert solver.counts == []
        return NoEigenvalueError
    degree = ReducedEquation.of(p, sym, qn).degree
    tol = oracle._OUTER_TOL
    (eps_lo, n_lo), (eps_hi, n_hi) = solver.counts
    try:
        eps_ref, nodes_ref = solver.eigenvalue(degree)
    except NoEigenvalueError:
        eps_ref = None
    if n_lo <= degree < n_hi:
        assert err is None
        eps_t = target_eigenvalue(res.E, sym, p.M)
        assert (eps_lo, eps_hi) == (eps_t - tol, eps_t + tol)
        assert abs(eps_ref - eps_t) <= tol
        assert res.node_count == nodes_ref == degree
        return "certified"
    assert type(err) is NotConvergedError
    assert f"({n_lo}, {n_hi})" in str(err)
    # the reference agrees: no level inside the window
    slack = 1e-14 * max(1.0, abs(eps_lo))
    assert eps_ref is None or not eps_lo + slack < eps_ref < eps_hi - slack
    return NotConvergedError


@pytest.mark.parametrize("key, outcome", [
    *(pytest.param(key, "certified", id=f"pinned{i}")
      for i, key in enumerate(_PINNED_DIRAC)),
    pytest.param(_SPOT, "certified", id="spot", marks=pytest.mark.slow),
    pytest.param(_NEAR_FALL, "certified", id="near-fall",
                 marks=pytest.mark.slow),
    pytest.param(_UNCONVERGED, "certified", id="unconverged"),
    pytest.param(_FALLS, NoEigenvalueError, id="falls"),
    pytest.param(_NO_SPECTRUM, NoEigenvalueError, id="no-spectrum"),
    pytest.param(_NO_FLOOR, NoEigenvalueError, id="no-floor"),
    pytest.param(_JUMP, "certified", id="jump"),
    pytest.param(_START_STEP, "certified", id="start-step"),
])
def test_a_guess_never_changes_the_inner_eigenvalue(key, outcome):
    # eps_target is the guess of the inner eigenvalue that the two level
    # counts check.  Where U_eff has a lowest level and the counts hold,
    # the level lies within 1e-8 of it, with the eigensolve's node count,
    # which is the degree; elsewhere dirac_eigenvalue raises.
    assert _check_certificate(*_pinned_inputs(*key)) == outcome


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.sampled_from(["spin", "pseudospin"]), st.floats(-4.0, 4.0),
       st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.floats(-8.0, 8.0),
       st.floats(0.0, 6.0), st.integers(0, 2),
       st.sampled_from([-3, -2, -1, 1, 2, 3]))
def test_a_guess_never_changes_the_inner_eigenvalue_anywhere(
        kind, V0, A, B, C, H, n, kappa):
    p = PotentialParams(V0=V0, A=A, B=B, delta=0.05, H=H, M=4.76)
    _check_certificate(QuantumNumbers(n, kappa), SymmetryLimit(kind, C), p,
                       OracleConfig(num_points=1000))


def test_a_state_off_its_target_or_falling_to_the_centre_is_not_converged(
        monkeypatch):
    # With a tolerance of 1e-13 the two counts cannot certify
    # _UNCONVERGED's level: NotConvergedError, whose message names both
    # counts, and the eigensolve finds the level outside the window.
    inputs = _pinned_inputs(*_UNCONVERGED)
    with monkeypatch.context() as mp:
        mp.setattr(oracle, "_OUTER_TOL", 1e-13)
        assert _check_certificate(*inputs) is NotConvergedError
    # A fall to the centre at the final energy, which the scan leaves only
    # to rounding, forced: NoEigenvalueError, whose message names D.
    assert _check_certificate(*inputs, final_D=-0.01) is NoEigenvalueError
    # U_eff falls to the centre at the energy that the grid's own lowest
    # level once gave (2.2464, returned with converged=False): it has no
    # lowest level there, so the scan gives such energies no sign, and no
    # bound state is found.
    qn, sym, p, cfg = _pinned_inputs(*_FALLS)
    with pytest.raises(NoEigenvalueError):
        dirac_eigenvalue(qn, sym, p, cfg)
    r = np.array([1e-6])
    lam = effective_potential(r, 2.2464, p, sym, qn,
                              cfg.centrifugal_mode)[0] * r[0] ** 2
    assert 1.0 + 4.0 * lam < 0.0


@pytest.mark.slow
def test_sweep_count_budget(monkeypatch):
    # Sweeps and recurrence steps per dirac_eigenvalue, which no timing
    # shows on a machine of another speed.  Every sweep runs on the one
    # 3001-point log mesh.  The scan sweeps a probe once when its pair is
    # visited, nearest E = 0 first, and stops at the first sign change: 8
    # of the 160 probes for the spot state, 3 for the near-fall state.
    # Each level count is one outward sweep: with the outer bisection's
    # (30 and 29), the two counts that certify the level and the final
    # interior_nodes' outward and inward sweeps, the spot state takes 42
    # sweeps and the near-fall state 36.  The step budgets are the exact
    # counts, every sweep ending on a growing tail or at its end.
    sweeps = Counter()
    real = oracle._sweep

    def spy(w, *args, **kwargs):
        sweeps[len(w)] += 1
        return real(w, *args, **kwargs)

    monkeypatch.setattr(oracle, "_sweep", spy)
    signs = []
    real_sign = oracle._defect_sign

    def sign_spy(*args):
        signs.append(args)
        return real_sign(*args)

    monkeypatch.setattr(oracle, "_defect_sign", sign_spy)
    steps = _count_steps(monkeypatch)
    for key, probes, budget, step_budget in ((_SPOT, 8, 42, 99_181),
                                             (_NEAR_FALL, 3, 36, 97_475)):
        sweeps.clear()
        signs.clear()
        before = steps()
        res = dirac_eigenvalue(*_pinned_inputs(*key))
        assert sweeps.keys() == {3001}, key
        assert len(signs) - 1 - res.outer_iters == probes, key
        assert sweeps[3001] <= budget, key
        assert steps() - before <= step_budget, key


@pytest.mark.parametrize("kwargs", [
    {"r_max": float("nan")},
    {"r_max": float("inf")},
    {"r_max": 1e-6},
    {"num_points": 2000.5},
    {"num_points": 2000.0},
    {"num_points": 999},
    {"centrifugal_mode": "other"},
    {"r_max": "40"},
    {"r_max": True},
])
def test_oracle_config_rejects_bad_values(kwargs):
    with pytest.raises(DomainError):
        OracleConfig(**kwargs)


def test_schrodinger_eigenvalue_rejects_negative_level():
    with pytest.raises(DomainError):
        schrodinger_eigenvalue(lambda r: -2.0 / r, -1,
                               OracleConfig(r_max=60.0, num_points=3000))


@pytest.mark.parametrize("level", [0.5, 1.0, "0", None])
def test_schrodinger_eigenvalue_rejects_a_non_integer_level(level):
    # QuantumNumbers' rule: 0.5 once gave the n = 0 level, "0" and None an
    # untyped TypeError
    with pytest.raises(DomainError):
        schrodinger_eigenvalue(lambda r: -2.0 / r, level,
                               OracleConfig(r_max=60.0, num_points=3000))


@pytest.mark.parametrize("U_eff", [lambda r: -2.0, lambda r: np.ones(7),
                                   lambda r: "deep"])
def test_schrodinger_eigenvalue_rejects_a_potential_of_another_shape(U_eff):
    with pytest.raises(DomainError):
        schrodinger_eigenvalue(U_eff, 0,
                               OracleConfig(r_max=60.0, num_points=3000))


def _hydrogen(r):
    return -2.0 / r


# Hydrogen, u'' = (-2/r - eps) u, has its level n at -1/(n + 1)^2.  Each
# bound on |eps + 1/(n + 1)^2| is about twice the largest gap measured on
# its log mesh (4.7e-8, 4.5e-8, 3.6e-9 and 5.0e-11, at n = 3 each time;
# on the 60 fm meshes that gap is the box's, whose end cuts the n = 3
# tail, and n = 0 to 2 are within 2.0e-9 and 2.5e-11).
_HYDROGEN_GRIDS = {(60.0, 1000): 1e-7, (60.0, 3000): 1e-7,
                   (120.0, 1000): 8e-9, (200.0, 3000): 1e-10}


def test_inner_solver_on_coulomb_levels():
    for (r_max, num_points), bound in _HYDROGEN_GRIDS.items():
        cfg = OracleConfig(r_max=r_max, num_points=num_points)
        for n in range(4):
            eps, nodes = schrodinger_eigenvalue(_hydrogen, n, cfg)
            assert nodes == n, (r_max, num_points, n)
            assert abs(eps + 1.0 / (n + 1) ** 2) <= bound, (r_max,
                                                             num_points, n)


def _grid_id(grid):
    return f"{grid[0]:g}fm-{grid[1]}"


@pytest.mark.slow
@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.integers(0, 5), st.sampled_from([30.0, 60.0, 100.0, 200.0]),
       st.sampled_from([1000, 3000, 12000]))
def test_schrodinger_eigenvalue_returns_the_asked_level_or_raises(
        n, r_max, num_points):
    try:
        eps, nodes = schrodinger_eigenvalue(
            _hydrogen, n, OracleConfig(r_max=r_max, num_points=num_points))
    except DiracboundError:
        return
    assert nodes == n
    assert eps < 0.0


@pytest.mark.parametrize("found", [1, None])
def test_schrodinger_eigenvalue_raises_on_another_node_count(monkeypatch,
                                                             found):
    # The level is bisected on the level count; when its eigenfunction
    # has another number of interior nodes (or that sweep is lost), no
    # level comes back.
    monkeypatch.setattr(oracle._InnerSolver, "interior_nodes",
                        lambda self, eps: found)
    with pytest.raises(NoEigenvalueError, match="interior nodes, not 0"):
        schrodinger_eigenvalue(_hydrogen, 0,
                               OracleConfig(r_max=60.0, num_points=3000))


def _hydrogen_solver(r_max, num_points):
    r = _log_mesh(r_max, num_points)
    return oracle._InnerSolver(_hydrogen(r), r)


def test_interior_nodes_counts_a_node_at_match_idx_once():
    # The n = 1 hydrogen level has its node at r = 2 fm, between r[j - 1]
    # and r[j] on a 30 fm, 1000-interval mesh: the outward sweep to j
    # crosses it and the inward sweep to j does not, but one to j - 1
    # would.  So a split at any index counts a node on either side of it
    # once, as interior_nodes' split at the outer turning point (past
    # r = 8 fm) does.
    solver = _hydrogen_solver(30.0, 1000)
    eps, nodes = solver.eigenvalue(1)
    w, end = solver._weights(eps)
    j = int(np.searchsorted(solver.r, 2.0))
    tail = (1e-120, 1e-120 * solver._tail_ratio(eps, end), end - 1)
    assert [_sweep(w, 0.0, 1.0, solver.y1, 1, stop, 1)[0]
            for stop in (j - 1, j)] == [0, 1]
    assert [_sweep(w, 0.0, *tail, stop, -1)[0]
            for stop in (j, j - 1)] == [0, 1]
    assert nodes == solver.interior_nodes(eps) == 1


@pytest.mark.parametrize("grid", [(30.0, 1000), (60.0, 1000), (60.0, 3000),
                                  (200.0, 3000)], ids=_grid_id)
def test_level_count_never_falls_and_steps_by_one(grid):
    # On an eps grid much finer than the level spacing, the count starts
    # at 0 and rises by exactly one at each level; the first two levels
    # are hydrogen's, within the grid's Numerov error and the eps step.
    solver = _hydrogen_solver(*grid)
    eps = np.linspace(-1.2, -0.01, 3000)
    counts = np.array([solver.count(e) for e in eps])
    rises = np.diff(counts)
    assert counts[0] == 0
    assert set(rises.tolist()) <= {0, 1}
    levels = eps[1:][rises == 1]
    assert abs(levels[0] + 1.0) < 5e-3
    assert abs(levels[1] + 0.25) < 1e-3


def _johnson_count(solver, eps):
    """The level count in its matching form: the outward nodes up to the
    matching point m (the mesh point nearest 0.35 r_max), the nodes from
    it on of an inward sweep from the sweep end seeded with the decaying
    tail u ~ exp(-k r), k = sqrt(U[end] - eps), and one more when the
    log-derivative mismatch dout - din at m is negative (it falls
    through zero at each level).  The counts come from _sweep; the
    triplets around m from the per-step loop, since near m both
    solutions often grow, where _sweep stops short of them."""
    w, end = solver._weights(eps)
    m = int(np.searchsorted(solver.r, 0.35 * solver.r[-1]))
    start = (1.0, solver.y1, 1)
    k = math.sqrt(max(float(solver.U[end]) - eps, 0.0))
    r0, r1 = float(solver.r[end - 1]), float(solver.r[end])
    v_end = 1e-120
    tail = (v_end, v_end * math.exp(min(k * (r1 - r0), 300.0))
            * math.sqrt(r1 / r0), end - 1)
    n_out = _sweep(w, 0.0, *start, m, 1)[0]
    n_in = _sweep(w, 0.0, *tail, m, -1)[0]
    u0, u1, u2 = _per_step_sweep(w, 0.0, *start, m + 1, 1)[1]
    v2, v1, v0 = _per_step_sweep(w, 0.0, *tail, m - 1, -1)[1]
    dout = (u2 - u0) / (2.0 * solver.h * u1)
    din = (v2 - v0) / (2.0 * solver.h * v1)
    return n_out + n_in + (dout - din < 0.0)


def _spot_solver():
    # the spot state's U_eff at its energy, on a 4000-interval log mesh
    p = PotentialParams(V0=2.0, A=1.0, B=1.0, delta=0.05, H=0.0, M=4.76)
    r = _log_mesh(60.0, 4000)
    return oracle._InnerSolver(effective_potential(
        r, 0.4232619652, p, SymmetryLimit.spin(5.0), QuantumNumbers(0, -2),
        "approximated"), r)


@pytest.mark.parametrize("make, lo, levels", [
    (lambda: _hydrogen_solver(60.0, 3000), -1.2, 6),
    (lambda: _hydrogen_solver(25.0, 3000), -1.2, 4),
    (_spot_solver, -3.0, 4),
], ids=["hydrogen-60", "hydrogen-25", "spot"])
def test_level_count_is_the_matching_count(make, lo, levels):
    # The end test holds count to the matching form: in exact arithmetic
    # the outward solution meets the inward one at the matching point
    # exactly when its ratio at the sweep end is the inward seed's.  The two agree at
    # every eps of a fine grid over [lo, -0.01] and at 1e-2 ... 1e-10
    # from each level on both sides; only eps within 1e-11 (1 + |level|)
    # of a level, where roundoff decides both, are left out.
    solver = make()
    eps = np.linspace(lo, -0.01, 500)
    counts = [solver.count(e) for e in eps]
    found = []
    for i in np.flatnonzero(np.diff(counts)):
        a, b = eps[i], eps[i + 1]
        while b - a > 1e-14:
            mid = 0.5 * (a + b)
            if solver.count(mid) <= counts[i]:
                a = mid
            else:
                b = mid
        found.append(a)
    assert len(found) == levels == counts[-1]
    near = [at + side * 10.0 ** -k for at in found for side in (-1, 1)
            for k in range(2, 11)]
    for e in [*eps, *near]:
        if min(abs(e - at) / (1.0 + abs(at)) for at in found) > 1e-11:
            assert solver.count(e) == _johnson_count(solver, e), e


def test_inner_solver_on_screened_coulomb_closed_form():
    delta, v0 = 0.05, 0.1
    cfg = OracleConfig(r_max=60.0)

    def screened(r):
        s = np.exp(-2.0 * delta * r)
        return -2.0 * v0 * s / (1.0 - s)

    nrp = NonRelParams(m=1.0, l=0, Ze2=v0 / (2.0 * delta), A=0.0, B=0.0,
                       delta=delta)
    target = 2.0 * nonrel_energy_hulthen(nrp, 0)
    eps, nodes = schrodinger_eigenvalue(screened, 0, cfg)
    assert nodes == 0
    assert eps == pytest.approx(target, abs=1e-9)


def test_inner_solver_reports_missing_level():
    cfg = OracleConfig(r_max=40.0, num_points=6000)

    def shallow(r):
        return -0.05 * np.exp(-r)

    with pytest.raises(NoEigenvalueError):
        schrodinger_eigenvalue(shallow, 3, cfg)


@pytest.mark.slow
def test_dirac_oracle_agrees_with_principal_branch_root(params_h0, spin_sym):
    # The self-consistent shooting solve lands on the analytic root of the
    # positive quantization branch to far better than its own tolerance.
    qn = QuantumNumbers(0, -2)
    roots = [r for r in solve_levels(qn, spin_sym, params_h0)
             if r.nu_branch > 0 and r.sqrt_domain_ok and r.C_bound_ok
             and abs(r.E) < params_h0.M]
    assert roots, "no principal-branch bound root for the spot state"
    result = dirac_eigenvalue(qn, spin_sym, params_h0)
    assert result.converged
    assert result.node_count == 0
    assert result.E == pytest.approx(roots[0].E, abs=1e-6)


@pytest.mark.slow
def test_dirac_oracle_raises_when_no_bound_state(params_h0, pseudo_sym):
    with pytest.raises(NoEigenvalueError):
        dirac_eigenvalue(QuantumNumbers(1, -1), pseudo_sym, params_h0)
