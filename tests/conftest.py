"""Shared fixtures, the reference root scan and the acceptance summary.

Acceptance tests register one verdict per criterion through
record_criterion(); after the run pytest prints a single PASS/FAIL line
for each criterion, in order, so the whole contract can be read off the
terminal at a glance.

scan_roots() is the one grid scan the tests use as an independent
reference for root enumeration; pointwise() lets it scan the scalar
residuals of ``limits``.  count_nodes() is the node-count reference for
sampled spinor components and for the oracle's Numerov sweep.
"""

import numpy as np
import pytest

from diracbound import (
    BENCHMARK_C_PSEUDO,
    BENCHMARK_C_SPIN,
    DomainError,
    SymmetryLimit,
    benchmark_params,
)

CRITERIA = [f"AC-{i}" for i in range(1, 11)]

_results: dict[str, tuple[str, str]] = {}


def record_criterion(name: str, passed: bool, detail: str) -> None:
    """Store the verdict for one acceptance criterion.

    Called by the acceptance tests right before their assert, so the
    summary shows the true outcome even when the assert fires.
    """
    _results[name] = ("PASS" if passed else "FAIL", detail)


def _finite(values):
    values = np.asarray(values, dtype=float)
    return np.where(np.isfinite(values), values, np.nan)


def scan_roots(f, grid, tol):
    """Every root of the array residual f sampled on `grid`, ascending.

    The rule: a sample where f is exactly 0 is a root.  Between two
    neighbouring samples whose values are finite, nonzero and of opposite
    sign, the bracket is bisected until it is at most `tol` wide and its
    midpoint is the root.  A NaN or infinite value is a domain hole: it
    brackets nothing, so a root between a hole and its neighbour is not
    reported, and a bracket whose bisection lands in a hole is dropped.
    """
    grid = np.asarray(grid, dtype=float)
    g = _finite(f(grid))
    sign = np.sign(g)
    i = np.nonzero(sign[:-1] * sign[1:] < 0.0)[0]
    lo, hi, sign_lo = grid[i], grid[i + 1], sign[i]
    kept = np.ones(i.size, dtype=bool)
    steps = int(np.ceil(np.log2(np.max(hi - lo) / tol))) if i.size else 0
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        sign_mid = np.sign(_finite(f(mid)))
        kept &= ~np.isnan(sign_mid)
        up = sign_mid == sign_lo
        lo, hi = np.where(up, mid, lo), np.where(up, hi, mid)
    roots = np.concatenate([grid[g == 0.0], 0.5 * (lo + hi)[kept]])
    return np.sort(roots).tolist()


def count_nodes(samples) -> int:
    """Strict sign changes of a sampled component, endpoints excluded.

    Exact zeros are skipped so that a tangential touch does not count
    twice and a sampled zero crossing counts once.
    """
    v = np.asarray(samples, dtype=float)
    if v.ndim != 1 or v.size < 2:
        raise DomainError("need a 1-d array of at least 2 samples")
    interior = v[1:-1]
    nz = interior[interior != 0.0]
    if nz.size < 2:
        return 0
    return int(np.count_nonzero(np.signbit(nz[1:]) != np.signbit(nz[:-1])))


def pointwise(f):
    """Array form of a scalar residual: NaN where f raises DomainError or
    ZeroDivisionError."""
    def residual(energies):
        values = np.empty(len(energies))
        for i, e in enumerate(energies):
            try:
                values[i] = f(float(e))
            except (DomainError, ZeroDivisionError):
                values[i] = np.nan
        return values
    return residual


@pytest.fixture(scope="session")
def params_h0():
    return benchmark_params(H=0.0)


@pytest.fixture(scope="session")
def params_h5():
    return benchmark_params(H=5.0)


@pytest.fixture(scope="session")
def spin_sym():
    return SymmetryLimit.spin(BENCHMARK_C_SPIN)


@pytest.fixture(scope="session")
def pseudo_sym():
    return SymmetryLimit.pseudospin(BENCHMARK_C_PSEUDO)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _results:
        return
    tr = terminalreporter
    tr.section("acceptance criteria")
    for name in CRITERIA:
        status, detail = _results.get(name, ("NOT RUN", "no verdict recorded"))
        tr.write_line(f"{name:<6} {status:<7} {detail}")
