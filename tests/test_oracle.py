"""Shooting-method integrator against closed-form eigenvalues."""

import math

import numpy as np
import pytest

from diracbound import (
    DomainError,
    NoEigenvalueError,
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
from diracbound.oracle import (_BLOCK, _OUTER_TOL, _RESCALE_AT,
                               _batch_starts, _defect_sign, _energy_window,
                               _probe_signs, _sweep, _sweep_batch, _u_eff,
                               _weight_rows)


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
    # The reference runs in sweep order and stops one point past mark, so
    # none of its later whole-array rescales touch the compared triplet.
    step, q, r_end, seed_solution, mark = _SWEEP_CASES[case]
    r, Q, w, order, u0, u1 = _sweep_setup(step, q, r_end, seed_solution)
    _, _, trip = _sweep(w, 0.0, u0, u1, order[1], order[-1], step, mark,
                        mark)
    k = int(np.nonzero(order == mark)[0][0])
    seg = order[:k + 2]
    u = numerov_integrate(r[seg], Q[seg], u0, u1)
    assert list(trip) == u[k - 1:k + 2].tolist()
    if case.endswith("growing"):
        assert abs(trip[1]) < _RESCALE_AT < seed_solution(r[mark])


@pytest.mark.parametrize("step", [1, -1])
def test_sweep_counts_nodes_like_count_nodes(step):
    # Q = -9: sin(3 r + 0.5) on [0, 10] has 9 interior zeros, 4 below r = 5.
    r, Q, w, order, u0, u1 = _sweep_setup(
        step, lambda x: np.full_like(x, -9.0), 10.0, _wave)
    cap = int(np.searchsorted(r, 5.0))
    nodes, before_cap, _ = _sweep(w, 0.0, u0, u1, order[1], order[-1], step,
                                  cap, cap)
    u = numerov_integrate(r[order], Q[order], u0, u1)
    kc = int(np.nonzero(order == cap)[0][0])
    assert nodes == count_nodes(u) == 9
    assert before_cap == count_nodes(u[:kc + 2])
    assert before_cap == (4 if step > 0 else 5)


def _overflows(w, c, seed):
    """Whether _sweep's outward recurrence from seed, never rescaled, has
    some |u| pass _RESCALE_AT or stop being finite: the lost rule."""
    u0, u1, i = seed
    for j in range(i, len(w) - 1):
        wm, wj, wp = w[j - 1] + c, w[j] + c, w[j + 1] + c
        u0, u1 = u1, ((12.0 - 10.0 * wj) * u1 - wm * u0) / wp
        if not abs(u1) <= _RESCALE_AT:
            return True
    return False


@pytest.mark.parametrize("case, at_guard", [
    ("forward-oscillating", False),
    ("forward-growing", False),
    ("forward-growing", True),
])
def test_sweep_batch_matches_sweep(case, at_guard):
    # Columns differ in g, c and start index; each column that is not lost
    # must give the node count of its own scalar _sweep, bit for bit.  The
    # case's Q is lam_cent, and g * pot deepens it near r = 0, so counts
    # differ.  In the growing case some columns pass the guard and are
    # lost; at_guard ends the grid at the first point where column 0
    # (g = c = 0, exact seed) passes it, so only column 0 is lost, at its
    # last row.
    _, _, r_end, seed_solution, _ = _SWEEP_CASES[case]
    end = None
    if at_guard:
        r = np.arange(round(r_end / _H) + 1) * _H
        end = int(np.argmax(seed_solution(r) > _RESCALE_AT)) + 1
    r, blocks, seeds, refs = _batch_case(case, [1, 2, 5, 9, 40, None, 3],
                                         end)
    counts, lost = _assert_batch_matches(r.size, blocks, seeds, refs)
    if case.endswith("oscillating"):
        assert lost == []
        assert len(set(counts) - {None}) > 1
    else:
        assert lost == ([0] if at_guard else [0, 1, 2, 3, 4])


def _batch_case(case, starts, end=None):
    """Weights and seeds of test_sweep_batch_matches_sweep's columns, on
    the case's grid cut to its first end rows."""
    _, q, r_end, seed_solution, _ = _SWEEP_CASES[case]
    r = (np.arange(round(r_end / _H) + 1) * _H)[:end]
    lam_cent, pot = q(r), -150.0 * np.exp(-r)
    hh12 = _H * _H / 12.0
    g = np.linspace(0.0, 2.0, len(starts))
    c = hh12 * np.linspace(0.0, 3.0, len(starts))
    seeds = [None if i is None else
             (float(seed_solution(r[i - 1])), float(seed_solution(r[i])), i)
             for i in starts]
    refs = [None if seed is None else
            (1.0 - hh12 * (lam_cent + g[k] * pot), c[k], seed)
            for k, seed in enumerate(seeds)]
    return r, _weight_rows(lam_cent, pot, g, c, hh12), seeds, refs


def _assert_batch_matches(size, blocks, seeds, refs):
    """_sweep_batch's (counts, lost) on a grid of size rows, checked
    against the scalar sweeps: lost are the columns _overflows names, and
    every other column has _sweep's count (mark and cap, never reached,
    play no part in it)."""
    counts, lost = _sweep_batch(blocks, seeds)
    assert lost == [k for k, ref in enumerate(refs)
                    if ref is not None and _overflows(*ref)]
    for k, ref in enumerate(refs):
        if ref is None or k in lost:
            assert counts[k] is None
        else:
            w, c, seed = ref
            assert counts[k] == _sweep(w, c, *seed, size - 1, 1, size,
                                       size)[0]
    return counts, lost


@pytest.mark.parametrize("last", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 600])
def test_sweep_batch_block_edges(last):
    # Columns start at either side of the first block edge, past it, and
    # at last - 1 and last, around the edge.  No |u| passes the guard, so
    # no column is lost and the array pass alone counts nodes.
    starts = [1, 5, None, _BLOCK - 1, _BLOCK, _BLOCK + 1, _BLOCK + 44,
              last - 1, last]
    r, blocks, seeds, refs = _batch_case("forward-oscillating",
                                         [i for i in starts
                                          if i is None or i <= last])
    _, lost = _assert_batch_matches(r.size, blocks, seeds, refs)
    assert lost == []


@pytest.mark.parametrize("edge", ["inside", "first", "last"])
@pytest.mark.parametrize("at_guard", [False, True])
def test_sweep_batch_guard_at_block_edges(edge, at_guard):
    # All weights are 1, so u runs on an exact line of multiples of
    # d = 2**823, and m d is the first multiple above the guard.  Row p is
    # inside a block, or its first or last row; at_guard ends the grid at
    # p.  Column 0 steps down from (m + 2) d, (m + 1) d to m d at p, its
    # only |u| above the guard, so it is lost; column 1 starts a step
    # lower, with a seed above the guard but no step there, and is not.
    # Column 2 climbs from 0 to m d at p and is lost; column 3 climbs one
    # step behind, to (m - 1) d at p, and is lost only when the grid goes
    # on.  Column 4 stays at d until a NaN weight at p, and is lost.
    d = 2.0 ** 823
    m = int(_RESCALE_AT // d) + 1
    assert (m - 1) * d <= _RESCALE_AT < m * d
    p = {"inside": 6 * _BLOCK + 20, "first": 6 * _BLOCK,
         "last": 6 * _BLOCK - 1}[edge]
    n = p + 1 if at_guard else p + 100
    rows = np.ones((n, 6))
    rows[p, 4] = np.nan
    seeds = [((m + 2) * d, (m + 1) * d, p - 1), ((m + 1) * d, m * d, p - 1),
             (0.0, d, p - m + 1), (0.0, d, p - m + 2), (d, d, 1), None]
    refs = [None if seed is None else (rows[:, k], 0.0, seed)
            for k, seed in enumerate(seeds)]
    _, lost = _assert_batch_matches(
        n, np.split(rows, range(_BLOCK, n, _BLOCK)), seeds, refs)
    assert lost == ([0, 2, 4] if at_guard else [0, 2, 3, 4])


def test_sweep_batch_node_rule_matches_sweep():
    # All weights are exactly 1, so u falls on the exact line A - j/1024 and
    # reaches A - 1 at j = 1024: a sign change there below 1e-12 max|u|
    # (A = 1 - 2**-53) or through an exact zero (A = 1) is no node, and one
    # above it (A = 1 + 2**-52, the next point) is.
    n = 1100
    zeros = np.zeros(n)
    heads = [1.0 - 2.0 ** -53, 1.0, 1.0 + 2.0 ** -52]
    seeds = [(a, a - 2.0 ** -10, 1) for a in heads]
    counts, _ = _sweep_batch(
        _weight_rows(zeros, zeros, np.zeros(3), np.zeros(3), 1.0), seeds)
    ref = [_sweep(np.ones(n), 0.0, *seed, n - 1, 1, 500, 500)[0]
           for seed in seeds]
    assert counts == ref == [0, 0, 1]


def test_sweep_batch_node_floor_follows_running_max():
    # All weights are 1 but one, so u climbs the exact line u[j] = j from
    # its start value 1.  The weight W at index f = 1000 gives u[f] = f / W:
    # with W = -2**43 the sign flips at 1.1e-10, below 1e-12 of the running
    # max 999 but above 1e-12 of the start value, so it is no node; with
    # W = -2**30 it flips at 9.3e-7, above the floor, and is one.
    n, f = 1100, 1000
    rows = np.ones((n, 2))
    rows[f] = [-2.0 ** 43, -2.0 ** 30]
    seeds = [(0.0, 1.0, 1)] * 2
    counts, lost = _sweep_batch([rows], seeds)
    ref = [_sweep(rows[:, k], 0.0, *seeds[k], n - 1, 1, f - 1, f - 1)
           for k in range(2)]
    assert counts == [nodes for nodes, _, _ in ref] == [0, 1]
    assert lost == []
    u_prev, u_flip = ref[0][2][1:]
    assert 1e-12 * seeds[0][1] < -u_flip < 1e-12 * u_prev


def test_sweep_batch_node_floor_carries_across_blocks():
    # All weights are 1 but one, so u falls on the exact line
    # u[j] = f + 1.5 - j from its start value f + 0.5, the running max; the
    # weight W at index f = 3 _BLOCK + 2, two rows into the fourth block,
    # flips the sign at u[f] = 1.5 / W.  With W = -2**33 (1.7e-10) that is
    # below 1e-12 of the running max, set three blocks back, but above
    # 1e-12 of the u = 4.5 that the block starts from, so it is no node;
    # with W = -2**28 (5.6e-9) it is one.
    f = 3 * _BLOCK + 2
    n = f + 100
    rows = np.ones((n, 2))
    rows[f] = [-2.0 ** 33, -2.0 ** 28]
    seeds = [(f + 1.5, f + 0.5, 1)] * 2
    counts, _ = _sweep_batch(np.split(rows, range(_BLOCK, n, _BLOCK)),
                             seeds)
    ref = [_sweep(rows[:, k], 0.0, *seeds[k], n - 1, 1, f - 1, f - 1)[0]
           for k in range(2)]
    assert counts == ref == [0, 1]


@pytest.mark.parametrize("first_near, start", [(-1, None), (-2, -2)])
def test_outward_start_stops_before_the_matching_point(first_near, start):
    # The weights come within 0.05 of 1 only from match_idx + first_near
    # on.  A sweep may start no later than match_idx - 2, so at
    # match_idx - 1 the solver and the batched scan both find no start.
    r = np.linspace(1e-6, 10.0, 1001)
    hh12 = (r[1] - r[0]) ** 2 / 12.0
    eps = -1.0
    m = int(oracle._MATCH_FRACTION * r.size)
    U = np.where(np.arange(r.size) < m + first_near, 1e5, 0.0)
    solver = oracle._InnerSolver(U, r)
    assert solver.match_idx == m
    c = solver.hh12 * eps
    near = np.abs(1.0 - (solver.wU + c)) <= 0.05
    assert int(near.argmax()) == m + first_near
    zeros = np.zeros(r.size)
    starts = _batch_starts(
        _weight_rows(U, zeros, np.zeros(1), np.array([c]), hh12), 1, m - 2)
    if start is None:
        assert solver.nodes(eps) is None
        assert starts == [None]
    else:
        assert isinstance(solver.nodes(eps), int)
        assert starts == [m + start]
        assert solver._start(c)[2] == m + start + 1


@pytest.mark.parametrize("kind, C, V0, qn, mode, r_max", [
    pytest.param("spin", 5.0, 2.0, QuantumNumbers(0, -2), "approximated",
                 60.0, id="spin-5.0-2.0-qn0-approximated"),
    pytest.param("pseudospin", -5.0, -2.0, QuantumNumbers(0, -1), "exact",
                 60.0, id="pseudospin--5.0--2.0-qn1-exact"),
    pytest.param("spin", 5.0, 2.0, QuantumNumbers(0, -2), "approximated",
                 400.0, id="spin-5.0-2.0-qn0-approximated-lost"),
])
def test_probe_signs_match_defect_sign(kind, C, V0, qn, mode, r_max,
                                       monkeypatch):
    # The batched coarse scan gives the 160 signs of the scalar one, and
    # hands the kernel, per probe, the weights and series seed that the
    # probe's own _InnerSolver sweeps from, bit for bit.  On the 400 fm
    # grid most but not all columns pass the guard, and those are swept
    # again by _sweep.
    p = PotentialParams(V0=V0, A=V0 / 2.0, B=V0 / 2.0, delta=0.05, H=0.0,
                        M=4.76)
    sym = SymmetryLimit(kind, C)
    eq = ReducedEquation.of(p, sym, qn)
    lo, hi = _energy_window(eq)
    probes = np.linspace(lo + 1e-6, hi - 1e-6, 160)
    r = np.linspace(1e-6, r_max, 2001)
    args = (p, sym, qn, eq.degree,
            OracleConfig(num_points=1000, centrifugal_mode=mode), r)
    parts = _effective_parts(r, p, sym, qn, mode)
    fed = {}

    def spy(blocks, seeds):
        fed.update(rows=np.concatenate(list(blocks)), seeds=seeds)
        counts, fed["lost"] = _sweep_batch([fed["rows"]], seeds)
        return counts, fed["lost"]

    monkeypatch.setattr(oracle, "_sweep_batch", spy)
    signs = _probe_signs(*args, probes)
    assert signs == [_defect_sign(parts, sym, p.M, r, E) for E in probes]
    assert {+1, -1} <= set(signs)
    if r_max > 60.0:
        assert 0 < len(fed["lost"]) < len(probes)
    else:
        assert fed["lost"] == []
    for k, E in enumerate(probes):
        solver = oracle._InnerSolver(
            effective_potential(r, E, p, sym, qn, mode), r)
        c = solver.hh12 * target_eigenvalue(E, sym, p.M)
        assert np.array_equal(fed["rows"][:, k], solver.wU + c)
        assert fed["seeds"][k] == solver._start(c)


# dirac_eigenvalue and schrodinger_eigenvalue outputs recorded as float.hex
# before the batched probe scan and the float-only sweep: a faster oracle
# must keep every bit.  Dirac cases: (limit, C, V0 = 2 A = 2 B, H, (n, kappa),
# centrifugal mode, num_points) -> (E, inner_eigenvalue, node_count,
# outer_iters, converged).  The pseudospin case is the charge conjugate of
# the spin one (V0, A, B, C and eta negated), on its own grid.
_PINNED_DIRAC = {
    ("spin", 5.0, 2.0, 0.0, (0, -2), "approximated", 1000):
        ("0x1.b16af40227f8cp-2", "-0x1.96e95ba44e344p-1", 0, 29, True),
    ("pseudospin", -5.0, -2.0, 0.0, (0, -1), "approximated", 1500):
        ("-0x1.b16b7f1e734fcp-2", "-0x1.96ea7c8a30c68p-1", 0, 29, True),
    ("spin", 7.0, 2.0, 0.0, (0, -1), "exact", 2000):
        ("0x1.22863ba869ab0p+1", "-0x1.2f2a12de1e14bp-4", 0, 28, True),
    ("spin", 5.0, 2.0, 5.0, (1, -2), "approximated", 2000):
        ("0x1.37d064f0902a8p+0", "-0x1.bb68d31f916dcp+1", 1, 29, True),
}
_PINNED_HYDROGEN = {0: "-0x1.0006283fef2c8p+0", 1: "-0x1.000251fe6e248p-2"}


def test_oracle_outputs_are_pinned():
    for (kind, C, V0, H, nk, mode, num), want in _PINNED_DIRAC.items():
        p = PotentialParams(V0=V0, A=V0 / 2.0, B=V0 / 2.0, delta=0.05, H=H,
                            M=4.76)
        res = dirac_eigenvalue(QuantumNumbers(*nk), SymmetryLimit(kind, C),
                               p, OracleConfig(num_points=num,
                                               centrifugal_mode=mode))
        got = (res.E.hex(), res.inner_eigenvalue.hex(), res.node_count,
               res.outer_iters, res.converged)
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


def _pinned_inputs(kind, C, V0, H, nk, mode, num):
    p = PotentialParams(V0=V0, A=V0 / 2.0, B=V0 / 2.0, delta=0.05, H=H,
                        M=4.76)
    return (QuantumNumbers(*nk), SymmetryLimit(kind, C), p,
            OracleConfig(num_points=num, centrifugal_mode=mode))


def test_u_eff_from_parts_is_effective_potential():
    # The outer bisection builds U(E) from parts computed once; it must be
    # effective_potential's U, bit for bit, in both centrifugal modes.
    r = np.linspace(1e-6, 60.0, 2001)
    for key in _PINNED_DIRAC:
        qn, sym, p, cfg = _pinned_inputs(*key)
        mode = cfg.centrifugal_mode
        parts = _effective_parts(r, p, sym, qn, mode)
        lo, hi = _energy_window(ReducedEquation.of(p, sym, qn))
        for E in [lo, 0.3 * lo + 0.7 * hi, 0.0, 0.1, hi, -1.7]:
            assert np.array_equal(_u_eff(parts, E), effective_potential(
                r, E, p, sym, qn, mode), equal_nan=True), (key, E)


# The verify spot state and the state whose final defect exceeds
# _OUTER_TOL (converged=False), both on the default grid.
_SPOT = ("spin", 5.0, 2.0, 0.0, (0, -2), "approximated", 20000)
_UNCONVERGED = ("spin", 7.2786, 2.0, 2.2314, (0, -3), "approximated", 20000)


def _final_eigensolve(key, monkeypatch):
    """dirac_eigenvalue's result, with its final solver, n_target, guess."""
    calls = []
    real = oracle._InnerSolver.eigenvalue

    def spy(self, n_target, guess=None):
        calls.append((self, n_target, guess))
        return real(self, n_target, guess)

    monkeypatch.setattr(oracle._InnerSolver, "eigenvalue", spy)
    res = dirac_eigenvalue(*_pinned_inputs(*key))
    monkeypatch.undo()
    return res, calls[-1]


@pytest.mark.parametrize("key", [
    *(pytest.param(key, id=f"pinned{i}")
      for i, key in enumerate(_PINNED_DIRAC)),
    pytest.param(_SPOT, id="spot", marks=pytest.mark.slow),
    pytest.param(_UNCONVERGED, id="unconverged", marks=pytest.mark.slow),
])
def test_a_guess_never_changes_the_inner_eigenvalue(key, monkeypatch):
    # A guess that the window check accepts skips sweeps; one it refutes
    # costs at most two more.  Either way the bisection ends on the bits
    # it ends on without a guess.
    res, (solver, n_target, eps_t) = _final_eigensolve(key, monkeypatch)
    _, sym, p, _ = _pinned_inputs(*key)
    assert eps_t == target_eigenvalue(res.E, sym, p.M)
    sweeps = []
    real_defect = oracle._InnerSolver.defect
    monkeypatch.setattr(oracle._InnerSolver, "defect",
                        lambda self, eps, n: sweeps.append(eps)
                        or real_defect(self, eps, n))

    def solve(guess):
        sweeps.clear()
        eps, nodes = solver.eigenvalue(n_target, guess)
        return (eps.hex(), nodes), len(sweeps)

    want, bare = solve(None)
    assert want == (res.inner_eigenvalue.hex(), res.node_count)
    eig = res.inner_eigenvalue
    half = 0.5 * _OUTER_TOL
    for guess in (eps_t, eps_t - half, eps_t + half):
        got, cost = solve(guess)
        assert got == want, guess
        if res.converged:
            assert cost < bare, guess
    for guess in (eig - 1e-3, eig + 1e-3, 0.5 * solver.floor(n_target)[0]):
        got, cost = solve(guess)
        assert got == want, guess
        assert bare < cost <= bare + 2, guess


@pytest.mark.slow
def test_sweep_count_budget(monkeypatch):
    # Sweeps per dirac_eigenvalue, which no timing shows on a machine of
    # another speed: the spot state takes 75 with the guess accepted (111
    # without it); the converged=False state refutes its guess, which may
    # cost two inner evaluations of at most two sweeps each (125 without).
    count = [0]
    real = oracle._sweep

    def spy(*args):
        count[0] += 1
        return real(*args)

    monkeypatch.setattr(oracle, "_sweep", spy)
    for key, budget in ((_SPOT, 75), (_UNCONVERGED, 125 + 4)):
        count[0] = 0
        dirac_eigenvalue(*_pinned_inputs(*key))
        assert count[0] <= budget, key


@pytest.mark.parametrize("kwargs", [
    {"r_max": float("nan")},
    {"r_max": float("inf")},
    {"r_max": 1e-6},
    {"num_points": 2000.5},
    {"num_points": 2000.0},
    {"num_points": 999},
    {"centrifugal_mode": "other"},
])
def test_oracle_config_rejects_bad_values(kwargs):
    with pytest.raises(DomainError):
        OracleConfig(**kwargs)


def test_schrodinger_eigenvalue_rejects_negative_level():
    with pytest.raises(DomainError):
        schrodinger_eigenvalue(lambda r: -2.0 / r, -1,
                               OracleConfig(r_max=60.0, num_points=3000))


def test_inner_solver_on_coulomb_levels():
    cfg = OracleConfig(r_max=60.0, num_points=12000)

    def coulomb(r):
        return -2.0 / r

    eps, nodes = schrodinger_eigenvalue(coulomb, 0, cfg)
    assert nodes == 0
    assert eps == pytest.approx(-1.0, abs=1e-4)
    eps, nodes = schrodinger_eigenvalue(coulomb, 1, cfg)
    assert nodes == 1
    assert eps == pytest.approx(-0.25, abs=1e-4)


def test_inner_solver_on_screened_coulomb_closed_form():
    delta, v0 = 0.05, 0.1
    cfg = OracleConfig(r_max=60.0, num_points=12000)

    def screened(r):
        s = np.exp(-2.0 * delta * r)
        return -2.0 * v0 * s / (1.0 - s)

    nrp = NonRelParams(m=1.0, l=0, Ze2=v0 / (2.0 * delta), A=0.0, B=0.0,
                       delta=delta)
    target = 2.0 * nonrel_energy_hulthen(nrp, 0)
    eps, nodes = schrodinger_eigenvalue(screened, 0, cfg)
    assert nodes == 0
    assert eps == pytest.approx(target, abs=1e-4)


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
