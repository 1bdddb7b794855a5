"""Closed-form spinor components, normalization constants and sample grids.

The solved radial component of a bound state is

    chi(r) = C * s^beta (1-s)^xi * (2beta+1)_m / m! * 2F1(-m, 2beta+2xi+m; 1+2beta; s)

with s = e^(-2 delta r), where the polynomial degree m, the decay exponent
beta and the barrier exponent xi follow from the solved energy.  The spin
limit solves the upper component F and constructs G from the first-order
relation G = [F' + (eta/r) F] / (M + E - C); the pseudospin limit solves the
lower component G and constructs F = [G' - (eta/r) G] / (M - E + C).  The
normalization constant has a closed Gamma-function form, evaluated in
log-Gamma space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (DomainError, NoEigenvalueError, PoleError,
                     SingularCouplingError)
from .potentials import (PotentialParams, ReducedEquation, SymmetryLimit,
                         _index, _like, _reals, _screening)
from .spectra import QuantumNumbers, table_energies

__all__ = [
    "WaveContext",
    "SpinorSolution",
    "hyp2f1_terminating",
    "jacobi_p",
    "wave_context",
    "solved_component",
    "paired_component",
    "norm_constant",
    "default_grid",
    "solve_wavefunction",
]


def hyp2f1_terminating(n: int, b: float, c: float, s):
    """Terminating hypergeometric series 2F1(-n, b; c; s).

    The first parameter is the nonpositive integer -n, so the series has
    exactly n+1 terms.  Scalar or array s.  Raises PoleError when the
    Pochhammer factor (c)_k vanishes before the series terminates.
    """
    n = _index(n, "n")
    s = np.asarray(s, dtype=float)
    total = term = np.ones_like(s)
    for k in range(n):
        ck = c + k
        if ck == 0.0:
            raise PoleError(
                f"2F1(-{n}, {b}; {c}; s) hits a pole: (c)_{k + 1} = 0")
        term = term * ((-n + k) * (b + k)) / (ck * (k + 1)) * s
        total = total + term
    return _like(total, s)


def jacobi_p(n: int, a: float, b: float, x):
    """Jacobi polynomial P_n^(a,b)(x) by the three-term recurrence."""
    n = _index(n, "n")
    x = np.asarray(x, dtype=float)
    p_prev = np.ones_like(x)
    if n == 0:
        return _like(p_prev, x)
    p_cur = (a + 1.0) + (a + b + 2.0) * (x - 1.0) / 2.0
    for k in range(2, n + 1):
        c1 = 2.0 * k * (k + a + b) * (2.0 * k + a + b - 2.0)
        c2 = (2.0 * k + a + b - 1.0) * (a * a - b * b)
        c3 = (2.0 * k + a + b - 2.0) * (2.0 * k + a + b - 1.0) \
            * (2.0 * k + a + b)
        c4 = 2.0 * (k + a - 1.0) * (k + b - 1.0) * (2.0 * k + a + b)
        p_prev, p_cur = p_cur, ((c2 + c3 * x) * p_cur - c4 * p_prev) / c1
    return _like(p_cur, x)


@dataclass(frozen=True)
class WaveContext:
    """Exponents and constants of one solved bound state.

    beta is the dimensionless decay exponent (positive square root), xi the
    barrier exponent, degree the polynomial degree of the solved component,
    coupling the first-order factor M+E-C (spin) or M-E+C (pseudospin).
    """

    qn: QuantumNumbers
    symmetry: SymmetryLimit
    E: float
    p: PotentialParams
    beta: float
    xi: float
    degree: int
    coupling: float

    @property
    def beta_dim(self) -> float:
        """Physical decay rate 2*delta*beta in fm^-1."""
        return 2.0 * self.p.delta * self.beta


def wave_context(qn: QuantumNumbers, sym: SymmetryLimit, p: PotentialParams,
                 E: float) -> WaveContext:
    """Build the evaluation context for a solved energy.

    Raises DomainError when E is not one real number or not a bound state
    (non-positive beta^2), or when the barrier discriminant is negative.
    """
    E = _reals(E, "E")
    if E.ndim:
        raise DomainError(f"E must be one energy, got shape {E.shape}")
    E = float(E)
    eq = ReducedEquation.of(p, sym, qn)
    coupling, lhs, _, _, disc = eq.terms(E)
    beta2 = lhs / eq.four_d2
    if beta2 <= 0.0:
        raise DomainError(
            f"E={E:.8f} is not a bound state (beta^2={beta2:.6g} <= 0)")
    if disc < 0.0:
        raise DomainError(
            f"barrier discriminant negative ({disc:.6g}) at E={E:.8f}")
    return WaveContext(
        qn=qn, symmetry=sym, E=E, p=p,
        beta=math.sqrt(beta2),
        xi=0.5 + math.sqrt(disc),
        degree=eq.degree,
        coupling=float(coupling),
    )


def _exp(x: float, what: str) -> float:
    """e^x for the log-space value x of what; DomainError where it
    overflows a float."""
    try:
        return math.exp(x)
    except OverflowError:
        raise DomainError(f"{what} overflows a float (log {x:.6g})") from None


def _components(r, ctx: WaveContext, norm: float, paired: bool):
    """The solved component and, when paired is true, the paired one.

    Returns (chi, other): chi = pre * y with pre = norm * prefac * s^beta
    (1-s)^xi and y = 2F1(-m, 2b+2x+m; 1+2b; s), both formed once; other is
    the first-order relation applied to chi and its analytic derivative
    (ds/dr = -2 delta s), or None when paired is false.  Scalar r gives
    Python floats.  Raises SingularCouplingError, before any evaluation,
    when the paired component is asked for and the coupling vanishes, and
    DomainError when prefac overflows a float.
    """
    if paired and ctx.coupling == 0.0:
        raise SingularCouplingError(
            "first-order coupling factor vanishes (exact-symmetry "
            "singular case); the paired component is undefined")
    rr, s, oms = _screening(r, ctx.p.delta)
    d, m = ctx.p.delta, ctx.degree
    tb = 2.0 * ctx.beta
    b, c = tb + 2.0 * ctx.xi + m, 1.0 + tb
    # (2beta+1)_m / m!
    prefac = _exp(math.lgamma(m + tb + 1.0) - math.lgamma(tb + 1.0)
                  - math.lgamma(m + 1.0), "the polynomial prefactor")
    y = hyp2f1_terminating(m, b, c, s)
    pre = norm * prefac * s ** ctx.beta * oms ** ctx.xi
    chi = pre * y
    other = None
    if paired:
        dy = 0.0 if m == 0 else (-m) * b / c * hyp2f1_terminating(
            m - 1, b + 1.0, c + 1.0, s)
        dchi = pre * (2.0 * d * (ctx.xi * s / oms - ctx.beta) * y
                      - 2.0 * d * s * dy)
        eta = ctx.qn.kappa + ctx.p.H
        other = _like((dchi + ctx.symmetry.sign * (eta / rr) * chi)
                      / ctx.coupling, r)
    return _like(chi, r), other


def solved_component(r, ctx: WaveContext, norm: float = 1.0):
    """The component the reduced equation solves: F (spin) or G (pseudospin).

    norm * s^beta (1-s)^xi * prefac * 2F1(-m, 2b+2x+m; 1+2b; s), with
    s = e^(-2 delta r) and prefac = (2beta+1)_m / m!.
    """
    return _components(r, ctx, norm, False)[0]


def paired_component(r, ctx: WaveContext, norm: float = 1.0):
    """The component built from the solved one: G (spin) or F (pseudospin).

    It is [chi' + sign (eta/r) chi] / coupling with chi the solved
    component and sign = +1 (spin) or -1 (pseudospin), so
    G = [F' + (eta/r) F]/(M+E-C) and F = [G' - (eta/r) G]/(M-E+C).  Raises
    SingularCouplingError when the coupling factor vanishes.
    """
    return _components(r, ctx, norm, True)[1]


def norm_constant(ctx: WaveContext) -> float:
    """Closed-form L2 normalization constant of the solved component.

    C = sqrt( 2 delta m! (m+xi+beta) Gamma(2beta+1) Gamma(m+2beta+2xi)
              / [ (m+xi) Gamma(2beta) Gamma(m+2beta+1) Gamma(m+2xi) ] )

    evaluated in log-Gamma space.  Raises DomainError if any Gamma argument
    or algebraic factor is non-positive, or if C overflows a float.
    """
    m, beta, xi = ctx.degree, ctx.beta, ctx.xi
    args = (2.0 * beta, 2.0 * beta + 1.0, m + 2.0 * beta + 1.0,
            m + 2.0 * beta + 2.0 * xi, m + 2.0 * xi)
    if any(a <= 0.0 for a in args) or (m + xi) <= 0.0 \
            or (m + xi + beta) <= 0.0:
        raise DomainError("normalization Gamma argument <= 0; "
                          "state is not normalizable")
    log_c2 = (math.log(2.0 * ctx.p.delta) + math.lgamma(m + 1.0)
              + math.log(m + xi + beta) + math.lgamma(2.0 * beta + 1.0)
              + math.lgamma(m + 2.0 * beta + 2.0 * xi)
              - math.log(m + xi) - math.lgamma(2.0 * beta)
              - math.lgamma(m + 2.0 * beta + 1.0)
              - math.lgamma(m + 2.0 * xi))
    return _exp(0.5 * log_c2, "the normalization constant")


def default_grid(ctx: WaveContext) -> np.ndarray:
    """Log-spaced 2000-point grid covering the rise and the decaying tail.

    Starts from the physical decay scale (outer radius max(30, 18/beta_dim)
    fm) and extends until the sampled solved component has fallen below
    1e-7 of its peak, so the tail criterion |chi(r_max)| < 1e-6 max|chi|
    holds with margin even when the normalization constant is large.  The
    inner radius 1e-6 fm resolves the r -> 0 boundary behavior.
    """
    r_max = max(30.0, 18.0 / ctx.beta_dim)
    for _ in range(40):
        r = np.geomspace(1e-6, r_max, 2000)
        chi = solved_component(r, ctx)
        if abs(chi[-1]) < 1e-7 * np.max(np.abs(chi)):
            return r
        r_max *= 1.4
    return r


@dataclass(frozen=True)
class SpinorSolution:
    """A solved bound state with both spinor components sampled on a grid.

    samples has one row (r, F, G) per grid point; norm_const normalizes the
    solved component (F in the spin limit, G in the pseudospin limit) to
    unit L2 norm, and the paired component is constructed from the same
    normalized solution.  The exponents beta and xi are wave_context's.
    """

    E: float
    norm_const: float
    samples: np.ndarray


def solve_wavefunction(qn: QuantumNumbers, sym: SymmetryLimit,
                       p: PotentialParams,
                       E: Optional[float] = None) -> SpinorSolution:
    """Solve (or accept) a bound-state energy and sample both components.

    When E is omitted the tabulation-convention root is solved first;
    NoEigenvalueError is raised when the state is unbound.  The components
    are sampled on default_grid.
    """
    if E is None:
        E = table_energies([(qn, sym, p)])[0]
        if math.isnan(E):
            raise NoEigenvalueError(
                f"no bound state for {qn.label} in the {sym.kind} limit")
    ctx = wave_context(qn, sym, p, E)
    norm = norm_constant(ctx)
    r = default_grid(ctx)
    solved, paired = _components(r, ctx, norm, True)
    F, G = (solved, paired) if sym.is_spin else (paired, solved)
    return SpinorSolution(E=ctx.E, norm_const=norm,
                          samples=np.column_stack([r, F, G]))
