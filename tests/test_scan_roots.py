"""The reference root scan of conftest, pinned on synthetic residuals.

scan_roots() is the independent reference that the acceptance, limits and
spectra tests hold the solvers to, so its rules for sign changes, exact
zeros at samples and domain holes are fixed here.
"""

import numpy as np
import pytest

from diracbound import DomainError

from conftest import pointwise, scan_roots

GRID = np.linspace(0.0, 1.0, 11)   # step 0.1; GRID[5] == 0.5 exactly


def test_two_roots_one_grid_step_apart():
    roots = scan_roots(lambda x: (x - 0.43) * (x - 0.53), GRID, 1e-13)
    assert len(roots) == 2
    assert roots[0] == pytest.approx(0.43, abs=1e-13)
    assert roots[1] == pytest.approx(0.53, abs=1e-13)


def test_a_root_on_a_sample_is_that_sample_once():
    assert GRID[5] == 0.5
    assert scan_roots(lambda x: x - 0.5, GRID, 1e-13) == [0.5]
    # A touch zero on a sample is reported too, also once.
    assert scan_roots(lambda x: (x - 0.5) ** 2, GRID, 1e-13) == [0.5]


def test_a_domain_hole_brackets_nothing():
    # Finite below 0.27 (root 0.25) and above 0.55 (root 0.75).  The root
    # at 0.25 lies between the last finite sample 0.2 and the hole at 0.3,
    # so it is not reported; the one past the hole is.
    def f(x):
        return np.where(x < 0.27, x - 0.25,
                        np.where(x > 0.55, x - 0.75, np.nan))

    roots = scan_roots(f, GRID, 1e-13)
    assert len(roots) == 1
    assert roots[0] == pytest.approx(0.75, abs=1e-13)
    # Infinite values are holes as well.
    assert scan_roots(lambda x: np.where(x < 0.27, x - 0.25, np.inf),
                      GRID, 1e-13) == []


def test_a_bracket_that_bisects_into_a_hole_is_dropped():
    # Finite, opposite-sign samples at 0.4 and 0.5, but the midpoint 0.45
    # sits in a hole, so the sign change is not a root.
    def f(x):
        return np.where(np.abs(x - 0.45) < 0.01, np.nan,
                        np.where(x < 0.45, -1.0, 1.0))

    assert scan_roots(f, GRID, 1e-13) == []


def test_pointwise_maps_errors_to_nan():
    def f(e):
        if e > 0.85:
            raise DomainError("outside")
        return 1.0 / (e - 0.5)

    values = pointwise(f)(GRID)
    assert np.isnan(values[5]) and np.all(np.isnan(values[9:]))
    assert np.all(np.isfinite(np.delete(values, [5, 9, 10])))


def test_a_scalar_residual_scans_like_its_array_form():
    # Three roots; the one at 0.97 lies in the domain hole past 0.9.
    def scalar(e):
        if e > 0.9:
            raise DomainError("outside")
        return (e - 0.23) * (e - 0.61) * (e - 0.97)

    def array(x):
        return np.where(x > 0.9, np.nan, (x - 0.23) * (x - 0.61) * (x - 0.97))

    grid = np.linspace(0.0, 1.0, 1500)
    roots = scan_roots(pointwise(scalar), grid, 1e-13)
    assert roots == scan_roots(array, grid, 1e-13)
    assert np.allclose(roots, [0.23, 0.61], atol=1e-13, rtol=0.0)
