"""The root-enumeration polynomial of spectra, expanded back symbolically.

`spectra._polynomial` builds g (h + t)^2 as a polynomial in x = v / V by
convolving coefficient arrays, one row per state (see its docstring).
Here the same product is expanded exactly with sympy from the
reduced-equation record, with E(x) and t(x) as the solver maps them, and
the coefficients are compared.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

sympy = pytest.importorskip("sympy")

from diracbound import (PotentialParams, QuantumNumbers, ReducedEquation,
                        SymmetryLimit)
from diracbound.spectra import _polynomial, _stack


def _exact(value):
    """sympy Rational with the exact binary value of a float or Float."""
    return sympy.Rational(float(value))


def _rationalized(expr):
    return expr.xreplace({f: _exact(f) for f in expr.atoms(sympy.Float)})


def _draw(rng, case):
    """Parameters from dyadic rationals, so the floats hold them exactly."""
    def dyadic(lo, hi, bits=6):
        return float(Fraction(rng.randint(lo << bits, hi << bits), 1 << bits))

    B = {"B=0": 0.0, "shifted": dyadic(1, 8) / 4096,
         "unshifted": dyadic(1, 8)}[case]
    kappa = rng.choice([-4, -3, -2, -1, 1, 2, 3, 4])
    H = dyadic(3, 6) * (1 if kappa > 0 else -1) if case == "shifted" \
        else dyadic(-6, 6)
    p = PotentialParams(V0=dyadic(-20, 20), A=dyadic(-20, 20), B=B,
                        delta=float(Fraction(rng.randint(1, 32), 128)),
                        H=H, M=dyadic(1, 8))
    sym = SymmetryLimit(rng.choice(["spin", "pseudospin"]), dyadic(-20, 20))
    return p, sym, QuantumNumbers(rng.randint(0, 3), kappa)


@pytest.mark.parametrize("case", ["B=0", "shifted", "unshifted"])
def test_polynomial_expands_back_to_the_residual(case):
    rng = random.Random(f"polynomial-{case}")
    x = sympy.Symbol("x")
    checked = 0
    for _ in range(500):
        if checked == 12:
            break
        p, sym, qn = _draw(rng, case)
        eq = ReducedEquation.of(p, sym, qn)
        pad = p.M + abs(sym.constant) + 1.0
        poly, e_of_x, t_of_x = _polynomial(_stack([eq]), -pad, pad)
        poly = np.trim_zeros(poly[0], "f")
        if not poly.size:       # B = 0 with D < 0 everywhere: no roots
            continue
        if p.B != 0.0 and (case == "shifted") != (t_of_x(0.0)[0] > 0.0):
            continue            # t0 > 0 exactly when the solver shifts
        E = _rationalized(sympy.expand(e_of_x(x)[0]))
        t = _rationalized(sympy.expand(t_of_x(x)[0]))
        exact = ReducedEquation(**{
            name: (value if name == "degree" else _exact(value))
            for name, value in vars(eq).items()})
        _, lhs, alpha2, _, D = exact.terms(E)
        m = exact.degree
        h = m + sympy.Rational(1, 2)
        num = alpha2 - exact.lam - sympy.Rational(1, 2) - m * (m + 1) \
            - (2 * m + 1) * t
        target = lhs * (h + t) ** 2 - exact.d2 * num ** 2
        if p.B == 0.0:          # t is constant: the code keeps g itself
            target = target / (h + t) ** 2
        want = [float(c) for c in sympy.Poly(sympy.expand(target),
                                             x).all_coeffs()]
        got = np.concatenate([np.zeros(len(want) - len(poly)), poly])
        size = max(abs(c) for c in want)
        assert np.max(np.abs(got - want)) <= 1e-12 * size, (p, sym, qn)
        # The map keeps D(E(x)) = t(x)^2, so g's square root is t.
        gap = sympy.Poly(sympy.expand(D - t ** 2), x).all_coeffs()
        scale = max(abs(c) for c in sympy.Poly(sympy.expand(t ** 2),
                                               x).all_coeffs())
        assert max(abs(float(c)) for c in gap) <= 1e-12 * scale
        checked += 1
    assert checked == 12, f"only {checked} {case} draws"
