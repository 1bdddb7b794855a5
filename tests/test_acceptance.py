"""Acceptance suite: ten numbered criteria, one test per criterion.

Each test computes a pass/fail verdict and a one-line detail string,
records both through the conftest hook (the terminal summary prints one
line per criterion regardless of outcome), then asserts.  AC-5 checks the
shooting oracle against the normalizable (Q > 0) branch of the closed
form and pins that the benchmark table energies, which sit on the Q < 0
branch, are not eigenvalues of the integrated radial equation.  The
oracle accuracy contract beside it holds the oracle to that branch over
random draws in both limits.
"""

import itertools
import math
import random
import time

import numpy as np
import pytest
from scipy.integrate import quad

from diracbound import (
    NoEigenvalueError,
    NonRelParams,
    PotentialParams,
    QuantumNumbers,
    ReducedEquation,
    SymmetryLimit,
    approx_potential,
    coulomb_energy,
    dirac_eigenvalue,
    doublet_partner,
    exact_potential,
    hulthen_roots,
    iq_yukawa_residual,
    kratzer_fues_residual,
    nonrel_energy_coulomb,
    norm_constant,
    nu_residual,
    paired_component,
    radial_poly_degree,
    select_table_root,
    solve_levels,
    solve_wavefunction,
    solved_component,
    susy_residual,
    swave_residual,
    sweep_delta,
    target_eigenvalue,
    wave_context,
)
from diracbound.errors import DomainError
from diracbound.limits import _screened_coulomb_roots

from conftest import count_nodes, pointwise, record_criterion, scan_roots
from reference_data import (ORACLE_SPOT_STATES, PSEUDO_H0_EXEMPT,
                            PSEUDO_TABLE, SCAN_PSEUDO_STATES,
                            SCAN_SPIN_STATES, SPIN_TABLE,
                            SWEEP_PSEUDO_OVERLAPS, SWEEP_PSEUDO_STATES,
                            SWEEP_SPIN_OVERLAPS, SWEEP_SPIN_STATES,
                            WAVEFUNCTION_PSEUDO_STATES,
                            WAVEFUNCTION_SPIN_STATES)

MASS = 4.76


def bench(H: float) -> PotentialParams:
    return PotentialParams(V0=2.0, A=1.0, B=1.0, delta=0.05, H=H, M=MASS)


def table_energy(qn, sym, p):
    root = select_table_root(solve_levels(qn, sym, p))
    return None if root is None else root.E


# ---------------------------------------------------------------------------
# AC-1: spin-limit benchmark table
# ---------------------------------------------------------------------------

def test_ac1_spin_table(spin_sym):
    started = time.perf_counter()
    worst = 0.0
    missing = 0
    for (n, kappa), expected_pair in sorted(SPIN_TABLE.items()):
        qn = QuantumNumbers(n, kappa)
        for h, expected in zip((0.0, 5.0), expected_pair):
            e = table_energy(qn, spin_sym, bench(h))
            if e is None:
                missing += 1
            else:
                worst = max(worst, abs(e - expected))
    elapsed = time.perf_counter() - started
    ok = missing == 0 and worst <= 1e-6 and elapsed < 5.0
    detail = (f"64 energies, max |dE| {worst:.2e}, {elapsed:.2f}s; "
              f"direct-strength V0 convention confirmed")
    if missing:
        detail = f"{missing} states missing; " + detail
    record_criterion("AC-1", ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# AC-2: pseudospin-limit benchmark table
# ---------------------------------------------------------------------------

def test_ac2_pseudospin_table(pseudo_sym):
    worst = 0.0
    strict_cells = 0
    computed_h0 = {}
    for (n, kappa), (e_h0, e_h5) in sorted(PSEUDO_TABLE.items()):
        qn = QuantumNumbers(n, kappa)
        e0 = table_energy(qn, pseudo_sym, bench(0.0))
        e5 = table_energy(qn, pseudo_sym, bench(5.0))
        assert e0 is not None and e5 is not None, f"missing root for {qn}"
        computed_h0[(n, kappa)] = e0
        worst = max(worst, abs(e5 - e_h5))
        strict_cells += 1
        if (n, kappa) not in PSEUDO_H0_EXEMPT:
            worst = max(worst, abs(e0 - e_h0))
            strict_cells += 1
    # The eight flagged reference cells repeat the previous radial level;
    # for those, assert strict monotonicity in n of the computed energies.
    monotone = True
    for lt in (1, 2, 3, 4):
        for family in ([(i + 1, -lt) for i in range(4)],
                       [(i, lt + 1) for i in range(4)]):
            seq = np.array([computed_h0[key] for key in family])
            diffs = np.diff(seq)
            monotone = monotone and bool(np.all(diffs < 0.0)
                                         or np.all(diffs > 0.0))
    flagged = ", ".join(f"({n},{k})={computed_h0[(n, k)]:.8f}"
                        for n, k in sorted(PSEUDO_H0_EXEMPT))
    ok = worst <= 1e-6 and monotone
    detail = (f"{strict_cells} strict cells max |dE| {worst:.2e}; "
              f"flagged cells monotone in n, computed: {flagged}")
    record_criterion("AC-2", ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# AC-3: the two quantization routes agree pointwise
# ---------------------------------------------------------------------------

def test_ac3_route_equivalence():
    rng = np.random.default_rng(735)
    started = time.perf_counter()
    worst = 0.0
    checked = 0
    while checked < 200:
        p = PotentialParams(V0=rng.uniform(0.0, 5.0),
                            A=rng.uniform(0.0, 5.0),
                            B=rng.uniform(0.0, 5.0),
                            delta=rng.uniform(0.01, 0.2),
                            H=float(rng.choice([0.0, 1.0, 5.0])),
                            M=MASS)
        C = rng.uniform(-10.0, 10.0)
        qn = QuantumNumbers(int(rng.integers(0, 5)),
                            int(rng.choice([-5, -4, -3, -2, -1,
                                            1, 2, 3, 4, 5])))
        E = float(rng.uniform(-MASS + 1e-3, MASS - 1e-3))
        spin, pseudo = SymmetryLimit.spin(C), SymmetryLimit.pseudospin(C)
        try:
            nu_s = nu_residual(E, p, spin, qn)
            susy_s = susy_residual(E, p, spin, qn)
            nu_p = nu_residual(E, p, pseudo, qn)
            susy_p = susy_residual(E, p, pseudo, qn)
        except DomainError:
            continue
        worst = max(worst,
                    abs(nu_s - susy_s) / (1.0 + abs(nu_s)),
                    abs(nu_p - susy_p) / (1.0 + abs(nu_p)))
        checked += 1
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-9 and elapsed < 1.0
    detail = (f"200 draws, both limits each, max relative gap "
              f"{worst:.2e}, {elapsed:.3f}s")
    record_criterion("AC-3", ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# AC-4: doublet degeneracy without the tensor term, splitting with it
# ---------------------------------------------------------------------------

def test_ac4_doublet_degeneracy(spin_sym, pseudo_sym):
    worst_h0 = 0.0
    min_split = math.inf
    pairs = 0
    members = {
        spin_sym: [(n, -(l + 1)) for l in (1, 2, 3, 4) for n in range(4)],
        pseudo_sym: [(i + 1, -lt) for lt in (1, 2, 3, 4) for i in range(4)],
    }
    for sym, states in members.items():
        for n, kappa in states:
            qn = QuantumNumbers(n, kappa)
            partner = doublet_partner(qn, sym)
            for h, is_split in ((0.0, False), (5.0, True)):
                p = bench(h)
                e1 = table_energy(qn, sym, p)
                e2 = table_energy(partner, sym, p)
                assert e1 is not None and e2 is not None, (qn, partner, h)
                gap = abs(e1 - e2)
                if is_split:
                    min_split = min(min_split, gap)
                else:
                    worst_h0 = max(worst_h0, gap)
            pairs += 1
    ok = worst_h0 <= 1e-10 and min_split > 1e-3
    detail = (f"{pairs} doublets: H=0 max gap {worst_h0:.2e}, "
              f"H=5 min split {min_split:.2e}")
    record_criterion("AC-4", ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# AC-5: independent integration oracle against the normalizable branch
# ---------------------------------------------------------------------------
# The table energies (AC-1, AC-2) are zeros of the squared quantization
# relation on its Q < 0 branch, which squaring introduced; they are not
# eigenvalues of the radial equation.  The oracle integrates that equation,
# so it must land on the Q > 0 roots, and never on a table energy.

ORACLE_TOL = 1e-8
TABLE_MIN_GAP = 1e-4


def normalizable_roots(qn, sym, p):
    """Closed-form roots on the Q > 0 branch that the oracle can reach.

    Flags as in solve_levels; the last condition is the oracle's energy
    window, where eps_target < 0 so a decaying tail exists.
    """
    return [r.E for r in solve_levels(qn, sym, p)
            if r.nu_branch > 0 and r.sqrt_domain_ok and r.C_bound_ok
            and abs(r.E) < p.M and target_eigenvalue(r.E, sym, p.M) < 0.0]


@pytest.mark.slow
def test_ac5_oracle_cross_check():
    started = time.perf_counter()
    lines = []
    cells = []
    agreed = 0
    normalizable = 0
    total = 0
    for n, kappa, kind in ORACLE_SPOT_STATES:
        sym = (SymmetryLimit.spin(5.0) if kind == "spin"
               else SymmetryLimit.pseudospin(-5.0))
        qn = QuantumNumbers(n, kappa)
        degree = radial_poly_degree(qn, kind)
        for h in (0.0, 5.0):
            total += 1
            p = bench(h)
            table = table_energy(qn, sym, p)
            assert table is not None
            roots = normalizable_roots(qn, sym, p)
            normalizable += bool(roots)
            try:
                result = dirac_eigenvalue(qn, sym, p)
            except NoEigenvalueError as exc:
                result, reason = None, str(exc)
            if result is None:
                # right only where the normalizable branch is empty too
                root = roots[0] if roots else None
                ok_state = root is None
                found = f"oracle none ({reason})"
            else:
                root = min(roots, key=lambda e: abs(e - result.E),
                           default=None)
                gap = math.inf if root is None else abs(result.E - root)
                table_gap = abs(result.E - table)
                ok_state = (result.converged and result.node_count == degree
                            and gap <= ORACLE_TOL
                            and table_gap >= TABLE_MIN_GAP)
                found = (f"oracle {result.E:.8f} (converged="
                         f"{result.converged}, {result.node_count} nodes, "
                         f"want {degree}), gap to root {gap:.1e}, gap to "
                         f"table {table_gap:.1e}")
            agreed += ok_state
            oracle_e = "none" if result is None else f"{result.E:.8f}"
            root_e = "none" if root is None else f"{root:.8f}"
            lines.append(f"  {'ok ' if ok_state else 'BAD'} {kind} "
                         f"{qn.label} H={h:g}: {found}; normalizable roots "
                         f"{[round(e, 8) for e in roots]}; table energy "
                         f"{table:.8f}")
            cells.append(f"{kind} {qn.label} H={h:g} {oracle_e}/{root_e}/"
                         f"{table:.8f}")
    elapsed = time.perf_counter() - started
    ok = agreed == total and normalizable > 0 and elapsed < 60.0
    detail = (f"{agreed}/{total} spot states, {normalizable} with a "
              f"normalizable root ({elapsed:.1f}s); oracle/normalizable "
              f"root/table E: " + "; ".join(cells))
    record_criterion("AC-5", ok, detail)
    assert ok, (
        "independent-integration cross-check failed "
        f"({agreed}/{total} states, {normalizable} with a normalizable "
        f"root, {elapsed:.1f}s):\n"
        + "\n".join(lines)
        + f"\nEach state needs: the oracle converged, with the node count "
          f"of the polynomial degree and within {ORACLE_TOL:g} of a "
          f"closed-form root on the normalizable (Q > 0) branch, or "
          f"NoEigenvalueError where that branch has no root in the "
          f"window; and the table energy (Q < 0 branch) at least "
          f"{TABLE_MIN_GAP:g} from any oracle energy.")


# Oracle accuracy contract.  The draws come from random.Random(7); per draw,
# in this order: the limit, V0 in [-4, 4], A and B in [-2, 2], C in
# [-8, 8], H in [0, 6], n in {0, 1, 2} and kappa in {-3, -2, -1, 1, 2, 3};
# delta = 0.05 and M = 4.76.  The first 40 draws with a normalizable root
# are kept; 4 of them have D < 1 at their root (D = 0.13 to 0.77), where
# both solutions r^(1/2 +- sqrt D) of the radial equation are
# square-integrable at the origin.  On the default mesh the worst gap to
# the nearest root was 1.83e-8 (pseudospin, D = 40) and the worst with
# D < 1 was 1.31e-10 (the same with the mesh from 1e-6 fm and from
# 1e-4 fm); the uniform 20001-point grid of earlier versions was 6.2e-6
# off on a D < 1 draw.  The bounds hold those measurements: at most 2e-8,
# and 3e-10 (about twice the worst) for D < 1.
#
# The 1 <= D < 2.25 stratum: the 40 draws hold two such roots, both
# pseudospin (D = 1.10 and 1.55), so the draws after them, up to draw 200,
# that have a normalizable root in the band are added: two, both spin
# (D = 1.05 and 2.14).  The worst gap of the four was 2.38e-10 (spin,
# D = 2.14) with the mesh from 1e-6 fm and from 1e-4 fm alike, and the
# bound holds about twice that.
CONTRACT_DRAWS = 40
CONTRACT_STRATA_DRAWS = 200
CONTRACT_TOL = 2e-8
CONTRACT_TOL_LOW_D = 3e-10
CONTRACT_TOL_MID_D = 5e-10


def random_states():
    """(qn, sym, p) of every draw of random.Random(7), in draw order."""
    rng = random.Random(7)
    while True:
        kind = rng.choice(["spin", "pseudospin"])
        V0 = rng.uniform(-4.0, 4.0)
        A = rng.uniform(-2.0, 2.0)
        B = rng.uniform(-2.0, 2.0)
        C = rng.uniform(-8.0, 8.0)
        H = rng.uniform(0.0, 6.0)
        n = rng.choice([0, 1, 2])
        kappa = rng.choice([-3, -2, -1, 1, 2, 3])
        p = PotentialParams(V0=V0, A=A, B=B, delta=0.05, H=H, M=MASS)
        yield QuantumNumbers(n, kappa), SymmetryLimit(kind, C), p


def contract_draws():
    """(qn, sym, p, roots) of the contract's 40 draws, in draw order."""
    kept = []
    for qn, sym, p in random_states():
        roots = normalizable_roots(qn, sym, p)
        if roots:
            kept.append((qn, sym, p, roots))
            if len(kept) == CONTRACT_DRAWS:
                return kept


def mid_d_draws():
    """(qn, sym, p, roots) of the draws after the contract's 40, among the
    first CONTRACT_STRATA_DRAWS, with a normalizable root at 1 <= D < 2.25
    (ReducedEquation's D at the root)."""
    kept, mid = 0, []
    for qn, sym, p in itertools.islice(random_states(), CONTRACT_STRATA_DRAWS):
        roots = normalizable_roots(qn, sym, p)
        if not roots:
            continue
        kept += 1
        eq = ReducedEquation.of(p, sym, qn)
        if kept > CONTRACT_DRAWS and any(1.0 <= eq.terms(e)[4] < 2.25
                                         for e in roots):
            mid.append((qn, sym, p, roots))
    return mid


@pytest.mark.slow
def test_oracle_accuracy_contract():
    # Every draw and every AC-5 spot state with a normalizable root: the
    # oracle converges, with the node count of the polynomial degree,
    # within the bound of the nearest root (a tighter one where D < 2.25
    # at that root); where there is no root, it raises NoEigenvalueError.
    states = contract_draws() + mid_d_draws()
    for n, kappa, kind in ORACLE_SPOT_STATES:
        sym = (SymmetryLimit.spin(5.0) if kind == "spin"
               else SymmetryLimit.pseudospin(-5.0))
        for h in (0.0, 5.0):
            qn, p = QuantumNumbers(n, kappa), bench(h)
            states.append((qn, sym, p, normalizable_roots(qn, sym, p)))
    bad = []
    low_d, mid_d = set(), set()
    for qn, sym, p, roots in states:
        what = (sym.kind, qn.n, qn.kappa, p)
        if not roots:
            with pytest.raises(NoEigenvalueError):
                dirac_eigenvalue(qn, sym, p)
            continue
        eq = ReducedEquation.of(p, sym, qn)
        res = dirac_eigenvalue(qn, sym, p)
        root = min(roots, key=lambda e: abs(e - res.E))
        D = eq.terms(root)[4]
        if D < 1.0:
            tol = CONTRACT_TOL_LOW_D
            low_d.add(sym.kind)
        elif D < 2.25:
            tol = CONTRACT_TOL_MID_D
            mid_d.add(sym.kind)
        else:
            tol = CONTRACT_TOL
        if not (res.converged and res.node_count == eq.degree
                and abs(res.E - root) <= tol):
            bad.append((what, D, res, root))
    assert not bad, bad
    # the draws reach D < 1 and 1 <= D < 2.25 in both limits
    assert low_d == mid_d == {"spin", "pseudospin"}


# The contract's |E| >= M stratum.  normalizable_roots keeps |E| < M only;
# beyond_mass_roots keeps the other Q > 0 roots in the oracle's window.  Of
# the first 200 draws above, 21 have such a root and none below M.  On the
# default mesh all 21 converge onto it, the worst 2.70e-9 off (spin
# (2, -3), E = -4.952), and the bound holds about twice that.  Draw 64
# (spin (1, -2), root E = -7.5722 with D = 0.018) is 7.0e-12 off: U_eff
# starts to fall to the centre 0.019 above its root, inside the root's
# probe pair, and the scan brackets the root with one more probe just
# inside D > 0 (oracle._inside_the_fall); without that probe the oracle
# missed it.
CONTRACT_BEYOND_M_DRAWS = 200
CONTRACT_TOL_BEYOND_M = 5e-9


def beyond_mass_roots(qn, sym, p):
    """Closed-form roots on the Q > 0 branch in the oracle's energy window
    with |E| >= M: the roots normalizable_roots leaves out."""
    return [r.E for r in solve_levels(qn, sym, p)
            if r.nu_branch > 0 and r.sqrt_domain_ok and r.C_bound_ok
            and abs(r.E) >= p.M and target_eigenvalue(r.E, sym, p.M) < 0.0]


@pytest.mark.slow
def test_oracle_accuracy_contract_beyond_the_mass():
    # Every draw with a root at |E| >= M and none below M: the oracle
    # converges onto it, with the node count of the polynomial degree,
    # within CONTRACT_TOL_BEYOND_M.
    met, bad = 0, []
    for k, (qn, sym, p) in enumerate(
            itertools.islice(random_states(), CONTRACT_BEYOND_M_DRAWS)):
        roots = beyond_mass_roots(qn, sym, p)
        if not roots or normalizable_roots(qn, sym, p):
            continue
        res = dirac_eigenvalue(qn, sym, p)
        root = min(roots, key=lambda e: abs(e - res.E))
        if (res.node_count == ReducedEquation.of(p, sym, qn).degree
                and abs(res.E - root) <= CONTRACT_TOL_BEYOND_M):
            met += 1
        else:
            bad.append((k, sym.kind, qn.n, qn.kappa, res, root))
    assert not bad, bad
    assert met == 21


# ---------------------------------------------------------------------------
# AC-6: centrifugal approximation quality on the plotting window
# ---------------------------------------------------------------------------

def test_ac6_approximation_gap():
    p = bench(0.0)
    r = np.linspace(0.5, 10.0, 2001)
    gap = np.abs(exact_potential(r, p) - approx_potential(r, p))
    spread = float(gap.max() / gap.min())
    ok = float(gap.max()) <= 5e-3 and spread < 3.0
    detail = (f"max |exact - approx| {gap.max():.3e} on r in [0.5, 10], "
              f"variation factor {spread:.3f}")
    record_criterion("AC-6", ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# AC-7: limiting cases against the general solver
# ---------------------------------------------------------------------------

def _solved_roots(qn, sym, p, lo, hi):
    """The production enumerator's roots on [lo, hi], ascending."""
    return sorted(r.E for r in solve_levels(qn, sym, p) if lo <= r.E <= hi)


def _coulomb_limit_gap(sym, qn, H):
    e_closed = coulomb_energy(sym, qn, 1.0, MASS, H)
    p = PotentialParams(V0=0.0, A=1.0, B=0.0, delta=1e-6, H=H, M=MASS)
    roots = _solved_roots(qn, sym, p, e_closed - 0.1, e_closed + 0.1)
    assert roots, f"no screened root near the closed-form value for {qn}"
    return min(abs(root - e_closed) for root in roots), e_closed


def _dual_path_draws():
    """Root agreement of each special case with the general solver.

    The general side is solve_levels; the Hulthen and Yukawa sides are
    the closed quadratic roots, the s-wave and inverse-square sides a
    1500-point scan of their residuals.
    """
    rng = np.random.default_rng(20260817)
    lo, hi = -MASS + 1e-6, MASS - 1e-6
    grid = np.linspace(lo, hi, 1500)
    worst = 0.0
    draws = 0
    for case in ("hulthen", "yukawa", "iq", "swave"):
        for kind in ("spin", "pseudospin"):
            done = 0
            while done < 20:
                strength = rng.uniform(0.5, 4.0)
                delta = rng.uniform(0.01, 0.12)
                C = rng.uniform(-8.0, 8.0)
                H = float(rng.choice([0.0, 1.0, 5.0]))
                n = int(rng.integers(0, 5))
                if case == "hulthen":
                    p = PotentialParams(V0=strength, A=0.0, B=0.0,
                                        delta=delta, H=H, M=MASS)
                elif case == "yukawa":
                    p = PotentialParams(V0=0.0, A=strength, B=0.0,
                                        delta=delta, H=H, M=MASS)
                elif case == "iq":
                    p = PotentialParams(V0=0.0, A=0.0, B=strength,
                                        delta=delta, H=H, M=MASS)
                else:
                    p = PotentialParams(V0=strength,
                                        A=rng.uniform(0.0, 2.0),
                                        B=rng.uniform(0.0, 2.0),
                                        delta=delta, H=H, M=MASS)
                if case == "swave":
                    kappa = -1 if kind == "spin" else 1
                    if kind == "pseudospin" and n == 0:
                        n = 1
                elif kind == "pseudospin":
                    kappa = -int(rng.integers(1, 5))
                else:
                    kappa = int(rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]))
                eta = kappa + p.H
                if kind == "spin" and not eta + 0.5 > 0.05:
                    continue
                if (kind == "pseudospin" and case != "swave"
                        and not eta - 0.5 > 0.05):
                    continue
                # The s-wave pseudospin form is indexed by the polynomial
                # degree; degree n corresponds to the label (n - 1, +1).
                qn = (QuantumNumbers(n - 1, kappa)
                      if (case, kind) == ("swave", "pseudospin")
                      else QuantumNumbers(n, kappa))
                sym = (SymmetryLimit.spin(C) if kind == "spin"
                       else SymmetryLimit.pseudospin(C))
                if case == "hulthen":
                    r_spe = hulthen_roots(p, sym, qn)
                elif case == "yukawa":
                    r_spe = _screened_coulomb_roots(p, sym, qn, p.A)
                elif case == "iq":
                    r_spe = scan_roots(pointwise(
                        lambda e: iq_yukawa_residual(e, p, sym, qn)),
                        grid, 1e-13)
                else:
                    r_spe = scan_roots(pointwise(
                        lambda e: swave_residual(e, p, sym, n)), grid, 1e-13)
                r_spe = [e for e in r_spe if lo <= e <= hi]
                r_gen = _solved_roots(qn, sym, p, lo, hi)
                if len(r_gen) != len(r_spe):
                    return math.inf, draws
                if not r_gen:
                    continue
                worst = max(worst,
                            max(abs(a - b) for a, b in
                                zip(sorted(r_gen), sorted(r_spe))))
                done += 1
                draws += 1
    return worst, draws


def test_ac7_limiting_cases():
    # (a) Coulomb closed form against the enumerator's screened root at
    # delta = 1e-6.
    spin = SymmetryLimit.spin(5.0)
    gap_spin, e_spin = _coulomb_limit_gap(spin, QuantumNumbers(0, 1), 0.0)
    gap_pseudo, e_pseudo = _coulomb_limit_gap(SymmetryLimit.pseudospin(-5.0),
                                              QuantumNumbers(0, -2), 5.0)
    a_ok = gap_spin <= 1e-4 and gap_pseudo <= 1e-4
    # The rotational-vibrational form collapses onto the same closed
    # value once its quadratic strength is switched off.
    kf = abs(kratzer_fues_residual(e_spin, spin, QuantumNumbers(0, 1),
                                   1.0, 0.0, MASS, 0.0))
    a_ok = a_ok and kf <= 1e-10
    # (b) nonrelativistic Coulomb closed form, exact rational expression.
    rng = np.random.default_rng(99)
    b_worst = 0.0
    for _ in range(25):
        m_mass = rng.uniform(0.2, 5.0)
        ze2 = rng.uniform(0.1, 3.0)
        l = int(rng.integers(0, 4))
        n = int(rng.integers(0, 5))
        nrp = NonRelParams(m=m_mass, l=l, Ze2=ze2, A=0.0, B=0.0,
                           delta=1e-6)
        expected = -m_mass * ze2 ** 2 / (2.0 * (l + n + 1) ** 2)
        b_worst = max(b_worst, abs(nonrel_energy_coulomb(nrp, n)
                                   - expected) / abs(expected))
    b_ok = b_worst <= 1e-12
    # (c) special cases against the restricted general solver.
    c_worst, c_draws = _dual_path_draws()
    c_ok = c_draws >= 160 and c_worst <= 1e-10
    ok = a_ok and b_ok and c_ok
    detail = (f"coulomb-limit gaps {gap_spin:.1e}/{gap_pseudo:.1e}, "
              f"quadratic-term reduction residual {kf:.1e}; "
              f"nonrelativistic closed form rel {b_worst:.1e}; "
              f"dual-path worst root gap {c_worst:.1e} over {c_draws} "
              f"draws in 8 cases")
    record_criterion("AC-7", ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# AC-8: wavefunction norm, node counts, first-order relation
# ---------------------------------------------------------------------------

def test_ac8_wavefunctions(params_h5, spin_sym, pseudo_sym):
    worst_norm = 0.0
    worst_res = 0.0
    node_errors = []
    grid = np.geomspace(0.3, 20.0, 60)
    h = 0.005
    cases = ((spin_sym, WAVEFUNCTION_SPIN_STATES),
             (pseudo_sym, WAVEFUNCTION_PSEUDO_STATES))
    for sym, states in cases:
        for n, kappa in states:
            qn = QuantumNumbers(n, kappa)
            sol = solve_wavefunction(qn, sym, params_h5)
            ctx = wave_context(qn, sym, params_h5, sol.E)
            nc = norm_constant(ctx)
            upper = 40.0 / (2.0 * params_h5.delta * ctx.beta)
            norm, err = quad(lambda rr: solved_component(rr, ctx, nc) ** 2,
                             0.0, upper, limit=300)
            assert err < 1e-7
            worst_norm = max(worst_norm, abs(norm - 1.0))
            expected_nodes = n if sym.is_spin else n + 1
            column = 1 if sym.is_spin else 2
            nodes = count_nodes(sol.samples[:, column])
            if nodes != expected_nodes:
                node_errors.append(f"{sym.kind} {qn.label}: {nodes} != "
                                   f"{expected_nodes}")
            # First-order relation defining the built component, checked
            # with an independent five-point derivative stencil.
            eta = kappa + params_h5.H
            solved = solved_component(grid, ctx, nc)
            built = paired_component(grid, ctx, nc)
            deriv = (solved_component(grid - 2 * h, ctx, nc)
                     - 8.0 * solved_component(grid - h, ctx, nc)
                     + 8.0 * solved_component(grid + h, ctx, nc)
                     - solved_component(grid + 2 * h, ctx, nc)) / (12.0 * h)
            if sym.is_spin:
                residual = deriv + (eta / grid) * solved \
                    - ctx.coupling * built
            else:
                residual = deriv - (eta / grid) * solved \
                    - ctx.coupling * built
            scale = np.maximum(np.abs(solved), np.abs(built))
            worst_res = max(worst_res, float(np.max(np.abs(residual)
                                                    / scale)))
    ok = worst_norm <= 1e-6 and not node_errors and worst_res <= 1e-6
    detail = (f"6 states: max |norm - 1| {worst_norm:.1e}, node counts "
              f"n and n+1 as required, first-order relation residual "
              f"{worst_res:.1e}")
    if node_errors:
        detail += "; node errors: " + ", ".join(node_errors)
    record_criterion("AC-8", ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# AC-9: screening-parameter trends
# ---------------------------------------------------------------------------

def test_ac9_delta_trends(spin_sym, pseudo_sym):
    deltas = [round(0.01 * i, 10) for i in range(1, 31)]
    idx_ref = deltas.index(0.05)
    monotone = True
    worst_pair_gap = 0.0
    worst_ratio = 0.0
    cases = ((spin_sym, SWEEP_SPIN_STATES, SWEEP_SPIN_OVERLAPS, 1.0),
             (pseudo_sym, SWEEP_PSEUDO_STATES, SWEEP_PSEUDO_OVERLAPS,
              -1.0))
    for sym, states, overlaps, sign in cases:
        qns = [QuantumNumbers(n, k) for n, k in states]
        energies = sweep_delta(qns, sym, bench(5.0), deltas)
        series = {qn.label: column
                  for qn, column in zip(qns, energies.T.tolist())}
        for vals in series.values():
            steps = [(a, b) for a, b in zip(vals, vals[1:])
                     if not (math.isnan(a) or math.isnan(b))]
            assert steps, "sweep produced no consecutive bound energies"
            monotone = monotone and all(sign * (b - a) > 0.0
                                        for a, b in steps)
        # Curve pairs that overlap on the plotted sweep: the in-pair gap
        # stays far below the distance to every other curve.
        for (na, ka), (nb, kb) in overlaps:
            la = QuantumNumbers(na, ka).label
            lb = QuantumNumbers(nb, kb).label
            gap_ref = abs(series[la][idx_ref] - series[lb][idx_ref])
            worst_pair_gap = max(worst_pair_gap, gap_ref)
            for i in range(len(deltas)):
                ea, eb = series[la][i], series[lb][i]
                if math.isnan(ea) or math.isnan(eb):
                    continue
                others = [series[label][i] for label in series
                          if label not in (la, lb)
                          and not math.isnan(series[label][i])]
                nearest = min(abs(ea - other) for other in others)
                worst_ratio = max(worst_ratio, abs(ea - eb) / nearest)
    ok = monotone and worst_pair_gap <= 1e-4 and worst_ratio <= 0.15
    detail = (f"16 curves monotone over delta in (0, 0.3]; overlap pairs: "
              f"gap at delta=0.05 max {worst_pair_gap:.1e}, "
              f"separation ratio max {worst_ratio:.3f}")
    record_criterion("AC-9", ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# AC-10: bound-region classification over the symmetry constant
# ---------------------------------------------------------------------------

def test_ac10_bound_regions():
    p = PotentialParams(V0=2.0, A=2.0, B=2.0, delta=0.05, H=5.0, M=MASS)
    frozen = {("spin", (0, -2), 7.0): 2.25136420,
              ("spin", (0, 1), 7.0): 2.27504793,
              ("pseudospin", (0, -1), -7.0): -2.27551129,
              ("pseudospin", (0, 2), -7.0): -2.41032233}
    points = 0
    wrong = []
    worst = 0.0
    cases = (("spin", SCAN_SPIN_STATES, (0.0, 5.0, 7.0, 12.0, 20.0)),
             ("pseudospin", SCAN_PSEUDO_STATES,
              (0.0, -5.0, -7.0, -12.0, -20.0)))
    for kind, states, c_probe in cases:
        for n, kappa in states:
            qn = QuantumNumbers(n, kappa)
            for c in c_probe:
                expect_bound = c != 0.0
                e = table_energy(qn, SymmetryLimit(kind, c), p)
                points += 1
                if (e is not None) != expect_bound:
                    wrong.append(f"{kind} {qn.label} C={c:g}")
                key = (kind, (n, kappa), c)
                if key in frozen and e is not None:
                    worst = max(worst, abs(e - frozen[key]))
    ok = not wrong and worst <= 1e-6
    detail = (f"{points} probe points: bound for |C| >= 5, unbound at "
              f"C=0, both limits; |C|=7 energies match frozen values to "
              f"{worst:.1e}")
    if wrong:
        detail = "misclassified: " + ", ".join(wrong) + "; " + detail
    record_criterion("AC-10", ok, detail)
    assert ok, detail
