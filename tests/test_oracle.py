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
from diracbound.oracle import (_RESCALE_AT, _defect_sign, _energy_window,
                               _probe_signs, _sweep, _sweep_batch,
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


@pytest.mark.parametrize("case, at_guard", [
    ("forward-oscillating", False),
    ("forward-growing", False),
    ("forward-growing", True),
])
def test_sweep_batch_matches_sweep(case, at_guard):
    # Columns differ in g, c and start index; each must give the node count
    # and the triplet of its own scalar _sweep, bit for bit.  The case's Q
    # is lam_cent, and g * pot deepens it near r = 0, so counts differ.  In
    # the growing cases the guard fires; at_guard puts mark at the first
    # point where column 0 (g = c = 0, exact seed) passes the guard, so both
    # sweeps must skip the rescale there.
    _, q, r_end, seed_solution, mark = _SWEEP_CASES[case]
    r = np.arange(round(r_end / _H) + 1) * _H
    lam_cent = q(r)
    pot = -150.0 * np.exp(-r)
    hh12 = _H * _H / 12.0
    g = np.linspace(0.0, 2.0, 7)
    c = hh12 * np.linspace(0.0, 3.0, 7)
    if at_guard:
        mark = int(np.argmax(seed_solution(r) > _RESCALE_AT))
    seeds = [None if i is None else
             (float(seed_solution(r[i - 1])), float(seed_solution(r[i])), i)
             for i in [1, 2, 5, 9, 40, None, 3]]
    counts, trip = _sweep_batch(_weight_rows(lam_cent, pot, g, c, hh12),
                                seeds, mark)
    for k, seed in enumerate(seeds):
        if seed is None:
            assert counts[k] is None
            continue
        w = 1.0 - hh12 * (lam_cent + g[k] * pot)
        nodes, _, ref = _sweep(w, c[k], *seed, r.size - 1, 1, mark, mark)
        assert counts[k] == nodes
        assert trip[:, k].tolist() == list(ref)
    assert len(set(n for n in counts if n is not None)) > 1
    if case.endswith("growing"):
        assert seed_solution(r[mark]) > _RESCALE_AT


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
        _weight_rows(zeros, zeros, np.zeros(3), np.zeros(3), 1.0), seeds,
        500)
    ref = [_sweep(np.ones(n), 0.0, *seed, n - 1, 1, 500, 500)[0]
           for seed in seeds]
    assert counts == ref == [0, 0, 1]


@pytest.mark.parametrize("kind, C, V0, qn, mode", [
    ("spin", 5.0, 2.0, QuantumNumbers(0, -2), "approximated"),
    ("pseudospin", -5.0, -2.0, QuantumNumbers(0, -1), "exact"),
])
def test_probe_signs_match_defect_sign(kind, C, V0, qn, mode, monkeypatch):
    # The batched coarse scan gives the 160 signs of the scalar one, and
    # hands the kernel, per probe, the weights and series seed that the
    # probe's own _InnerSolver sweeps from, bit for bit.
    p = PotentialParams(V0=V0, A=V0 / 2.0, B=V0 / 2.0, delta=0.05, H=0.0,
                        M=4.76)
    sym = SymmetryLimit(kind, C)
    eq = ReducedEquation.of(p, sym, qn)
    lo, hi = _energy_window(eq)
    probes = np.linspace(lo + 1e-6, hi - 1e-6, 160)
    args = (p, sym, qn, eq.degree,
            OracleConfig(num_points=1000, centrifugal_mode=mode),
            np.linspace(1e-6, 60.0, 2001))
    fed = {}

    def spy(rows, seeds, mark):
        fed.update(rows=np.array(list(rows)), seeds=seeds, mark=mark)
        return _sweep_batch(fed["rows"], seeds, mark)

    monkeypatch.setattr(oracle, "_sweep_batch", spy)
    signs = _probe_signs(*args, probes)
    assert signs == [_defect_sign(*args, E) for E in probes]
    assert {+1, -1} <= set(signs)
    r = args[-1]
    for k, E in enumerate(probes):
        solver = oracle._InnerSolver(
            effective_potential(r, E, p, sym, qn, mode), r)
        c = solver._weight_shift(target_eigenvalue(E, sym, p.M))
        assert np.array_equal(fed["rows"][:, k], solver.wU + c)
        assert fed["seeds"][k] == solver._start(c)
    assert fed["mark"] == solver.match_idx


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
