"""Shooting-method integrator against closed-form eigenvalues."""

import math

import numpy as np
import pytest

from diracbound import (
    DomainError,
    NoEigenvalueError,
    NonRelParams,
    OracleConfig,
    QuantumNumbers,
    SymmetryLimit,
    benchmark_params,
    dirac_eigenvalue,
    nonrel_energy_hulthen,
    numerov_integrate,
    schrodinger_eigenvalue,
    count_nodes,
    solve_levels,
)
from diracbound.oracle import _RESCALE_AT, _sweep


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


def test_dirac_oracle_raises_when_no_bound_state(params_h0, pseudo_sym):
    with pytest.raises(NoEigenvalueError):
        dirac_eigenvalue(QuantumNumbers(1, -1), pseudo_sym, params_h0)
