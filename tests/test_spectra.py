"""Quantum numbers, quantization residuals, root finding and selection."""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracbound import (
    DomainError,
    PotentialParams,
    QuantumNumbers,
    ReducedEquation,
    SymmetryLimit,
    benchmark_params,
    doublet_partner,
    nu_residual,
    radial_poly_degree,
    scan_v0_c,
    select_table_root,
    solve_levels,
    solve_levels_batch,
    sweep_delta,
    table_energies,
)
from diracbound import spectra
from diracbound.spectra import (_dedupe, _polynomial, _stack,
                                _table_energies)

from conftest import scan_roots
from reference_data import PSEUDO_TABLE, SPIN_TABLE


@pytest.mark.parametrize("kappa, l, l_tilde, j, label", [
    (-1, 0, 1, 0.5, "0s1/2"),
    (-2, 1, 2, 1.5, "0p3/2"),
    (-5, 4, 5, 4.5, "0g9/2"),
    (1, 1, 0, 0.5, "0p1/2"),
    (2, 2, 1, 1.5, "0d3/2"),
    (4, 4, 3, 3.5, "0g7/2"),
])
def test_quantum_number_derivations(kappa, l, l_tilde, j, label):
    qn = QuantumNumbers(0, kappa)
    assert qn.l == l
    assert qn.l_tilde == l_tilde
    assert qn.j == j
    assert qn.label == label


def test_quantum_number_validation():
    with pytest.raises(DomainError):
        QuantumNumbers(-1, -2)
    with pytest.raises(DomainError):
        QuantumNumbers(0, 0)
    for n, kappa in ((0.5, -2), (1, 1.5), (1.0, 2), (True, -1), (1, True)):
        with pytest.raises(DomainError):
            QuantumNumbers(n, kappa)
    # numpy integers are integers.
    assert QuantumNumbers(np.int64(1), np.int32(-2)).label == "1p3/2"


def test_radial_poly_degree_index_shift():
    # The pseudospin reduction for kappa > 0 solves a polynomial one degree
    # higher than the printed radial label; every other case keeps n.
    assert radial_poly_degree(QuantumNumbers(2, -3), "spin") == 2
    assert radial_poly_degree(QuantumNumbers(2, 3), "spin") == 2
    assert radial_poly_degree(QuantumNumbers(2, -3), "pseudospin") == 2
    assert radial_poly_degree(QuantumNumbers(2, 3), "pseudospin") == 3


def test_radial_poly_degree_rejects_an_unknown_kind():
    # Without the check an abbreviation gets the spin degree: 0 here,
    # where the pseudospin degree is 1.
    for kind in ("pseudo", "Spin", "", None):
        with pytest.raises(DomainError):
            radial_poly_degree(QuantumNumbers(0, 1), kind)


def test_residual_vanishes_at_reference_roots(params_h0, params_h5):
    qn = QuantumNumbers(0, -2)
    e0, e5 = SPIN_TABLE[(0, -2)]
    spin = SymmetryLimit.spin(5.0)
    assert abs(nu_residual(e0, params_h0, spin, qn)) < 1e-5
    assert abs(nu_residual(e5, params_h5, spin, qn)) < 1e-5
    qn = QuantumNumbers(1, -1)
    e0, e5 = PSEUDO_TABLE[(1, -1)]
    pseudo = SymmetryLimit.pseudospin(-5.0)
    assert abs(nu_residual(e0, params_h0, pseudo, qn)) < 1e-5
    assert abs(nu_residual(e5, params_h5, pseudo, qn)) < 1e-5


def test_residual_array_mode_masks_invalid_domain(params_h0):
    qn = QuantumNumbers(0, -2)
    E = np.linspace(-6.0, 6.0, 101)
    res = nu_residual(E, params_h0, SymmetryLimit.spin(5.0), qn)
    assert res.shape == E.shape
    assert np.any(np.isfinite(res))
    assert np.any(np.isnan(res))


def test_residual_scalar_mode_raises_outside_domain(params_h0):
    # Far above the upper continuum edge the square-root discriminant of
    # the quantization bracket goes negative.
    qn = QuantumNumbers(0, -2)
    E_grid = np.linspace(5.0, 40.0, 200)
    spin = SymmetryLimit.spin(5.0)
    bad = E_grid[np.isnan(nu_residual(E_grid, params_h0, spin, qn))]
    assert bad.size, "expected an out-of-domain energy in the probe range"
    with pytest.raises(DomainError):
        nu_residual(float(bad[0]), params_h0, spin, qn)


def test_solve_levels_finds_both_quantization_branches(params_h0, spin_sym):
    roots = solve_levels(QuantumNumbers(0, -2), spin_sym, params_h0)
    assert len(roots) >= 2
    table = [r for r in roots if abs(r.E - 0.24181258) < 1e-6]
    principal = [r for r in roots if abs(r.E - 0.42326197) < 1e-6]
    assert table and principal
    assert table[0].nu_branch == -1 and table[0].sign_ok
    assert principal[0].nu_branch == +1
    eq = ReducedEquation.of(params_h0, spin_sym, QuantumNumbers(0, -2))
    for r in roots:
        assert eq.terms(r.E)[4] >= 0.0


def test_select_table_root_prefers_smallest_valid_energy(params_h0, spin_sym,
                                                         pseudo_sym):
    root = select_table_root(solve_levels(QuantumNumbers(0, -2), spin_sym,
                                          params_h0))
    assert root is not None and root.E == pytest.approx(0.24181258, abs=1e-6)
    assert root.E > 0.0
    root = select_table_root(solve_levels(QuantumNumbers(1, -1), pseudo_sym,
                                          params_h0))
    assert root is not None and root.E == pytest.approx(-0.24665137, abs=1e-6)
    assert root.E < 0.0
    # No bound state when the symmetry constant is switched off.
    assert select_table_root(
        solve_levels(QuantumNumbers(0, -2), SymmetryLimit.spin(0.0),
                     params_h0)) is None


def test_solve_levels_resolves_close_root_pair():
    # The two roots at V0 = 17 are 8.4e-4 apart, closer than the 1e-3 grid
    # step the solver once scanned, which lost both and left the cell NA.
    qn = QuantumNumbers(0, -2)
    sym = SymmetryLimit.spin(9.5)
    tied = {v0: PotentialParams(V0=v0, A=v0, B=v0, delta=0.05, H=5.0,
                                M=4.76) for v0 in (17.0, 19.5)}
    energies = [r.E for r in solve_levels(qn, sym, tied[17.0])]
    for expected in (4.748127, 4.748968):
        assert any(abs(E - expected) < 1e-6 for E in energies)
    assert select_table_root(solve_levels(qn, sym, tied[17.0])).E \
        == pytest.approx(4.74812740, abs=5e-9)
    assert select_table_root(solve_levels(qn, sym, tied[19.5])).E \
        == pytest.approx(4.74709486, abs=5e-9)


def _residual(E, p, sym, qn):
    """g over an array of E, NaN where the discriminant is negative."""
    return nu_residual(np.asarray(E, dtype=float), p, sym, qn)


@st.composite
def _problems(draw):
    delta = draw(st.floats(0.01, 0.25))
    B = draw(st.one_of(
        st.just(0.0),
        st.floats(0.0, 1e-4, exclude_max=True).map(lambda x: x / delta ** 2),
        st.floats(0.0, 20.0)))
    p = PotentialParams(V0=draw(st.floats(0.0, 20.0)),
                        A=draw(st.floats(0.0, 20.0)), B=B, delta=delta,
                        H=draw(st.floats(0.0, 6.0)),
                        M=draw(st.floats(0.5, 8.0)))
    sym = SymmetryLimit(draw(st.sampled_from(["spin", "pseudospin"])),
                        draw(st.floats(-20.0, 20.0)))
    qn = QuantumNumbers(draw(st.integers(0, 3)),
                        draw(st.sampled_from([-4, -3, -2, -1, 1, 2, 3, 4])))
    return p, sym, qn


def _assert_complete(p, sym, qn):
    """Every scanned root is returned, and every returned root is a zero."""
    found = np.array([r.E for r in solve_levels(qn, sym, p)])
    # A 1e-3 grid over the default window, bisected to 1e-12.
    pad = p.M + abs(sym.constant) + 1.0
    grid = np.arange(-pad, pad + 0.5e-3, 1e-3)
    for E in scan_roots(lambda E: _residual(E, p, sym, qn), grid, 1e-12):
        assert found.size and np.min(np.abs(found - E)) <= 1e-9, \
            f"scanned root {E!r} missing from {found.tolist()}"
    for E in found:
        w = 1e-8 * (1.0 + abs(E))
        g_lo, g_E, g_hi = _residual([E - w, E, E + w], p, sym, qn)
        if sym.is_spin:
            lhs = p.M ** 2 - E ** 2 - sym.constant * (p.M - E)
        else:
            lhs = p.M ** 2 - E ** 2 + sym.constant * (p.M + E)
        assert (g_lo * g_E <= 0.0 or g_E * g_hi <= 0.0
                or abs(g_E) <= 1e-9 * (1.0 + abs(lhs))), \
            f"returned root {E!r} is not a zero of the residual"


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_problems())
def test_solve_levels_finds_every_scanned_root(problem):
    _assert_complete(*problem)


@pytest.mark.parametrize("B", [1e-300, 1e-20, 1e-17, 1e-15, 1e-12])
def test_solve_levels_complete_where_discriminant_vanishes(B):
    # With eta = -1/2 (spin) or +1/2 (pseudospin), 1/4 + lam is exactly 0,
    # so D = gamma2 is tiny and changes sign inside the window.
    rng = np.random.default_rng(11)
    for _ in range(60):
        kind = str(rng.choice(["spin", "pseudospin"]))
        kappa = int(rng.choice([-1, -2, -3]))
        H = -0.5 - kappa if kind == "spin" else 0.5 - kappa
        p = PotentialParams(V0=rng.uniform(0.0, 20.0),
                            A=rng.uniform(0.0, 20.0), B=B,
                            delta=rng.uniform(0.01, 0.25), H=H,
                            M=rng.uniform(0.5, 8.0))
        sym = SymmetryLimit(kind, rng.uniform(-20.0, 20.0))
        qn = QuantumNumbers(int(rng.integers(0, 4)), kappa)
        _assert_complete(p, sym, qn)


def test_doublet_partner_maps(spin_sym, pseudo_sym):
    assert doublet_partner(QuantumNumbers(0, -2), spin_sym) \
        == QuantumNumbers(0, 1)
    assert doublet_partner(QuantumNumbers(0, 1), spin_sym) \
        == QuantumNumbers(0, -2)
    assert doublet_partner(QuantumNumbers(1, -1), pseudo_sym) \
        == QuantumNumbers(0, 2)
    assert doublet_partner(QuantumNumbers(0, 2), pseudo_sym) \
        == QuantumNumbers(1, -1)


@pytest.mark.parametrize("qn, limit, message", [
    ((1, -1), "spin", "1s1/2 has no spin doublet partner"),
    ((0, -2), "pseudospin",
     "0p3/2 has no pseudospin partner (n would be negative)"),
    ((1, 1), "pseudospin", "1p1/2 has no pseudospin doublet partner"),
])
def test_doublet_partner_raises_where_there_is_none(spin_sym, pseudo_sym, qn,
                                                    limit, message):
    sym = spin_sym if limit == "spin" else pseudo_sym
    with pytest.raises(DomainError) as err:
        doublet_partner(QuantumNumbers(*qn), sym)
    assert str(err.value) == message


def test_sweep_delta_rows_and_out_of_domain(params_h5, spin_sym):
    states = [QuantumNumbers(0, 1), QuantumNumbers(0, 2)]
    energies = sweep_delta(states, spin_sym, params_h5, [0.0, 0.05, 0.10])
    # One row per delta, one column per state; delta = 0 is out of domain.
    assert energies.shape == (3, 2)
    assert np.isnan(energies[0]).all()
    assert states[0].label == "0p1/2"
    assert energies[1, 0] == pytest.approx(0.26229015, abs=1e-6)
    # Spin energies rise with the screening parameter.
    assert (energies[2] > energies[1]).all()


def test_scan_grid_shape_and_classification(params_h5):
    v0 = [0.5, 2.0]
    c = [0.0, 7.0]
    grid = scan_v0_c(QuantumNumbers(0, -2), "spin", params_h5, v0, c)
    assert grid.shape == (2, 2)
    assert np.isnan(grid[0, 1])
    assert grid[1, 1] == pytest.approx(2.25136420, abs=1e-6)


# One row of each polynomial form at the benchmark point (0p3/2, C_S = 5,
# H = 5): B = 0 (a quadratic in E), B = 1e-13 (shifted, with its leading
# coefficients trimmed) and B = 1 (unshifted).
_FORM_ROWS = [(QuantumNumbers(0, -2), SymmetryLimit.spin(5.0),
               PotentialParams(V0=2.0, A=1.0, B=B, delta=0.05, H=5.0,
                               M=4.76)) for B in (0.0, 1e-13, 1.0)]


def _forms(batch):
    """Which polynomial forms the rows of batch take in solve_levels."""
    eq = _stack([ReducedEquation.of(p, sym, qn) for qn, sym, p in batch])
    pad = eq.M + np.abs(eq.C) + 1.0
    poly, _, t_of_x = _polynomial(eq, -pad, pad)
    quadratic = eq.s_b == 0.0
    shifted = ~quadratic & (t_of_x(0.0) > 0.0)
    forms = {"quadratic": quadratic, "shifted": shifted,
             "unshifted": ~quadratic & ~shifted,
             "trimmed": ~quadratic & (poly[:, 0] == 0.0)}
    return {name for name, rows in forms.items() if rows.any()}


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.lists(_problems(), min_size=1, max_size=12),
       st.randoms(use_true_random=False))
def test_solve_levels_batch_rows_are_independent(problems, rng):
    batch = [(qn, sym, p) for p, sym, qn in problems] + _FORM_ROWS
    rng.shuffle(batch)
    assert _forms(batch) == {"quadratic", "shifted", "unshifted", "trimmed"}
    together = solve_levels_batch(batch)
    backwards = solve_levels_batch(batch[::-1])[::-1]
    for query, roots, reversed_roots in zip(batch, together, backwards):
        # repr shows every bit of every float, and NaN equals NaN there.
        alone = repr(solve_levels(*query))
        assert repr(roots) == alone, query
        assert repr(reversed_roots) == alone, query
        # Each root is bisected inside a bracket whose ends have D >= 0,
        # and D is linear in E, so D >= 0 at the root too.
        qn, sym, p = query
        eq = ReducedEquation.of(p, sym, qn)
        assert all(eq.terms(r.E)[4] >= 0.0 for r in roots), query


def test_solve_levels_batch_resolves_close_root_pair_among_others():
    rng = np.random.default_rng(3)
    batch = []
    for _ in range(100):
        delta = rng.uniform(0.01, 0.25)
        p = PotentialParams(V0=rng.uniform(0.0, 20.0),
                            A=rng.uniform(0.0, 20.0),
                            B=float(rng.choice([0.0, rng.uniform(0.0, 20.0)])),
                            delta=delta, H=rng.uniform(0.0, 6.0),
                            M=rng.uniform(0.5, 8.0))
        sym = SymmetryLimit(str(rng.choice(["spin", "pseudospin"])),
                            rng.uniform(-20.0, 20.0))
        batch.append((QuantumNumbers(int(rng.integers(0, 4)),
                                     int(rng.choice([-3, -2, -1, 1, 2]))),
                      sym, p))
    close_pair = (QuantumNumbers(0, -2), SymmetryLimit.spin(9.5),
                  PotentialParams(V0=17.0, A=17.0, B=17.0, delta=0.05,
                                  H=5.0, M=4.76))
    batch.insert(50, close_pair)
    energies = [r.E for r in solve_levels_batch(batch)[50]]
    for expected in (4.748127, 4.748968):
        assert any(abs(E - expected) < 1e-6 for E in energies)


def _table_energy(qn, sym, p):
    """The tabulated energy of one state, solved alone, or NaN."""
    root = select_table_root(solve_levels(qn, sym, p))
    return np.nan if root is None else root.E


def _cell_grid(qn, kind, p, v0, c):
    """scan_v0_c's grid, one solve_levels per cell."""
    return [[_table_energy(qn, SymmetryLimit(kind, c_i),
                           PotentialParams(V0=v, A=v, B=v, delta=p.delta,
                                           H=p.H, M=p.M)) for v in v0]
            for c_i in c]


def _cell_sweep(states, sym, p, deltas):
    """sweep_delta's array, one solve_levels per cell."""
    return [[np.nan if d <= 0.0
             else _table_energy(qn, sym, PotentialParams(
                 V0=p.V0, A=p.A, B=p.B, delta=d, H=p.H, M=p.M))
             for qn in states] for d in deltas]


def test_scan_with_a_zero_v0_column_matches_solve_levels(params_h5):
    # V0 = A = B = 0 makes B = 0, so that column takes the quadratic form.
    # 15 x 41 cells are more than one chunk of the batch.
    qn = QuantumNumbers(0, -2)
    v0 = [0.5 * i for i in range(41)]
    c = [-7.0 + i for i in range(15)]
    grid = scan_v0_c(qn, "spin", params_h5, v0, c)
    # repr shows every bit of every float, and NaN equals NaN there.
    assert repr(grid.tolist()) \
        == repr(_cell_grid(qn, "spin", params_h5, v0, c))
    assert not np.isnan(grid[:, 0]).all()


_SCAN_REFERENCE = (Path(__file__).resolve().parents[1] / "perfbench"
                   / "reference" / "scan_paper.json")


def test_scan_reproduces_the_paper_panels(params_h5):
    # The four preset panels against the independently enumerated frozen
    # reference.  Its V0 = 0 column is NA by the CLI's convention.
    panels = json.loads(_SCAN_REFERENCE.read_text())
    assert len(panels) == 4
    for stem, ref in panels.items():
        v0 = [float(v) for v in ref["v0"]]
        c = [float(x) for x in ref["c"]]
        grid = scan_v0_c(QuantumNumbers(ref["n"], ref["kappa"]), ref["kind"],
                         params_h5, v0[1:], c)
        want = np.array([[np.nan if E is None else E for E in row[1:]]
                         for row in ref["E"]], dtype=float)
        assert v0[0] == 0.0 and grid.shape == want.shape == (81, 40)
        assert np.array_equal(np.isnan(grid), np.isnan(want)), stem
        bound = ~np.isnan(want)
        assert np.max(np.abs(grid[bound] - want[bound])) <= 1e-6, stem


def test_the_paper_panels_send_few_rows_to_the_eigensolve(params_h5,
                                                         monkeypatch):
    # Of the 12,960 cells of the four panels, 7,757 are proved to hold no
    # selectable root and never reach the companion eigensolve (1,973,
    # 1,911, 1,962 and 1,911 per panel).  A weaker proof fails here
    # instead of only costing time.
    solved = []
    eigvals = np.linalg.eigvals

    def spy(companion):
        solved.append(len(companion))
        return eigvals(companion)

    monkeypatch.setattr(np.linalg, "eigvals", spy)
    for ref in json.loads(_SCAN_REFERENCE.read_text()).values():
        scan_v0_c(QuantumNumbers(ref["n"], ref["kappa"]), ref["kind"],
                  params_h5, [float(v) for v in ref["v0"][1:]],
                  [float(x) for x in ref["c"]])
    assert sum(solved) <= 5203


def _with_root_at(eq, E, branch):
    """eq with s_v set so that g(E) = 0 on the given Q branch, or eq where
    no s_v does (lhs < 0, D < 0 or no coupling at E)."""
    coupling, lhs, _, _, D = eq.terms(E)
    if not (lhs >= 0.0 and D >= 0.0 and coupling != 0.0):
        return eq
    m, t = eq.degree, np.sqrt(D)
    Q = branch * np.sqrt(lhs / eq.d2)
    alpha2 = Q * (m + 0.5 + t) + eq.lam + 0.5 + m * (m + 1.0) \
        + (2.0 * m + 1.0) * t
    return replace(eq, s_v=float(alpha2 * eq.four_d2 / coupling))


@st.composite
def _edge_records(draw):
    """A record whose residual has a zero where the emptiness proof of
    _table_energies is tightest: near E = 0, near D = 0, near an end of
    the bound window (lhs = 0), anywhere on the selectable side, or a
    record with B = 0 or with a polynomial that is all 0."""
    p, sym, qn = draw(_problems())
    eq = ReducedEquation.of(p, sym, qn)
    near = st.one_of(st.floats(-2e-5, 2e-5), st.floats(-3e-4, 3e-4))
    case = draw(st.sampled_from(["E=0", "D=0", "bound edge", "selectable",
                                 "B=0", "all zero"]))
    if case == "all zero":      # B = 0 and D = 1/4 + lam < 0 for every E
        return replace(eq, s_b=0.0, lam=-0.3)
    if case == "B=0":
        eq, E = replace(eq, s_b=0.0), draw(near)
    elif case == "E=0":
        E = draw(near)
    elif case == "selectable":
        E = eq.s * draw(st.floats(0.0, 1.0)) * (eq.M + abs(eq.C))
    elif case == "D=0":
        # s_b puts D = 0 at E_D, and E lies beside it where D >= 0
        E_D = draw(st.one_of(near, st.floats(-1.0, 1.0).map(
            lambda u: u * (eq.M + abs(eq.C)))))
        coupling = eq.coupling(E_D)
        if coupling != 0.0:
            eq = replace(eq, s_b=(0.25 + eq.lam) * eq.four_d2 / coupling)
        E = E_D + draw(st.floats(-1e-6, 1e-6))
    else:
        # lhs = s (M - s E) (M + s E - C): zero at E = s M and E = C - s M
        edge = draw(st.sampled_from([eq.s * eq.M, eq.C - eq.s * eq.M]))
        E = edge + draw(st.floats(-1e-3, 1e-3))
    return _with_root_at(eq, E, draw(st.sampled_from([1.0, -1.0])))


@settings(max_examples=80, derandomize=True, deadline=None)
@given(st.lists(_edge_records(), min_size=1, max_size=12))
def test_rows_proved_empty_hold_no_selectable_root(records):
    # _table_energies against the same call with the proof off (no row is
    # skipped) and with the whole selection off (every root enumerated, as
    # solve_levels does): the same bits, and NaN on every skipped row.
    eq = _stack(records)
    polynomial, roots = spectra._polynomial, spectra._roots
    skipped = []

    def spy(eq, e_lo, e_hi, span=None):
        out = polynomial(eq, e_lo, e_hi, span)
        kept = polynomial(eq, e_lo, e_hi)[0]
        skipped.append(kept.any(axis=1) & ~out[0].any(axis=1))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectra, "_polynomial", spy)
        got = _table_energies(eq)
        mp.setattr(spectra, "_polynomial",
                   lambda eq, e_lo, e_hi, span=None:
                   polynomial(eq, e_lo, e_hi))
        unproved = _table_energies(eq)
        mp.setattr(spectra, "_roots", lambda eq, selectable=False: roots(eq))
        enumerated = _table_energies(eq)
    assert repr(got.tolist()) == repr(unproved.tolist()) \
        == repr(enumerated.tolist())
    assert np.isnan(enumerated[skipped[0]]).all()


@st.composite
def _axis(draw, values):
    """0-6 entries drawn from a pool of at most 4 values, so repeats occur."""
    pool = draw(st.lists(values, min_size=1, max_size=4))
    return draw(st.lists(st.sampled_from(pool), max_size=6))


_STATES = st.builds(QuantumNumbers, st.integers(0, 3),
                    st.sampled_from([-4, -3, -2, -1, 1, 2, 3, 4]))
_POTENTIALS = st.builds(
    PotentialParams, V0=st.floats(0.0, 20.0), A=st.floats(0.0, 20.0),
    B=st.floats(0.0, 20.0), delta=st.floats(0.01, 0.25),
    H=st.floats(0.0, 6.0), M=st.floats(0.5, 8.0))


@settings(max_examples=40, derandomize=True, deadline=None)
@given(_STATES, st.sampled_from(["spin", "pseudospin"]), _POTENTIALS,
       _axis(st.one_of(st.just(0.0), st.floats(0.0, 20.0))),
       _axis(st.floats(-20.0, 20.0)))
def test_scan_equals_per_cell_solves(qn, kind, p, v0, c):
    grid = scan_v0_c(qn, kind, p, v0, c)
    assert grid.shape == (len(c), len(v0))
    assert repr(grid.tolist()) == repr(_cell_grid(qn, kind, p, v0, c))


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.lists(_STATES, max_size=3, unique_by=lambda qn: qn.label),
       st.sampled_from(["spin", "pseudospin"]), st.floats(-20.0, 20.0),
       _POTENTIALS,
       _axis(st.one_of(st.just(0.0), st.just(-0.05), st.floats(0.01, 0.25))))
def test_sweep_equals_per_cell_solves(states, kind, c, p, deltas):
    sym = SymmetryLimit(kind, c)
    energies = sweep_delta(states, sym, p, deltas)
    assert energies.shape == (len(deltas), len(states))
    assert repr(energies.tolist()) \
        == repr(_cell_sweep(states, sym, p, deltas))


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.lists(_problems(), min_size=1, max_size=12))
def test_table_energies_pick_what_select_table_root_picks(problems):
    eq = _stack([ReducedEquation.of(p, sym, qn) for p, sym, qn in problems])
    assert repr(_table_energies(eq).tolist()) \
        == repr([_table_energy(qn, sym, p) for p, sym, qn in problems])


@settings(max_examples=20, derandomize=True, deadline=None)
@given(st.lists(_problems(), max_size=12))
def test_table_energies_of_queries_pick_what_select_table_root_picks(
        problems):
    queries = [(qn, sym, p) for p, sym, qn in problems]
    assert repr(table_energies(queries).tolist()) \
        == repr([_table_energy(*query) for query in queries])


def test_scan_and_sweep_across_a_chunk_boundary(params_h5, pseudo_sym):
    # 13 x 40 = 520 scan cells and 130 x 4 = 520 sweep cells: both cross
    # the 512-row chunk, with bound and unbound cells on either side.  V0
    # falls, so the last cells of the scan, at C = -6, are the small V0
    # where some are bound.
    qn = QuantumNumbers(0, 2)
    v0 = [0.5 * (40 - i) for i in range(40)]
    c = [-18.0 + i for i in range(13)]
    grid = scan_v0_c(qn, "pseudospin", params_h5, v0, c)
    assert repr(grid.tolist()) \
        == repr(_cell_grid(qn, "pseudospin", params_h5, v0, c))
    for cells in (grid.flat[:512], grid.flat[512:]):
        assert np.isnan(cells).any() and not np.isnan(cells).all()
    states = [QuantumNumbers(1, -1), QuantumNumbers(0, 2),
              QuantumNumbers(2, -2), QuantumNumbers(1, 2)]
    deltas = [0.002 * (i + 1) for i in range(130)]
    energies = sweep_delta(states, pseudo_sym, params_h5, deltas)
    assert repr(energies.tolist()) \
        == repr(_cell_sweep(states, pseudo_sym, params_h5, deltas))
    for cells in (energies.flat[:512], energies.flat[512:]):
        assert np.isnan(cells).any() and not np.isnan(cells).all()


def test_scan_with_an_empty_axis(params_h5):
    qn = QuantumNumbers(0, -2)
    assert scan_v0_c(qn, "spin", params_h5, [1.0, 2.0], []).shape == (0, 2)
    assert scan_v0_c(qn, "spin", params_h5, [], [5.0, 6.0]).shape == (2, 0)
    assert scan_v0_c(qn, "spin", params_h5, [], []).shape == (0, 0)
    assert sweep_delta([qn], SymmetryLimit.spin(5.0), params_h5,
                       []).shape == (0, 1)


def test_dedupe_compares_with_the_last_kept_root():
    # In row 0 the second root lies within 10 _TOL = 1e-11 of the first and
    # is dropped; the third is within 1e-11 of the second but not of the
    # first, the last kept root, so it stays.  Row 1 starts afresh.
    E = 0.3
    row = np.array([0, 0, 0, 1])
    energies = np.array([E, E + 0.6e-11, E + 1.2e-11, E + 1.2e-11])
    assert _dedupe(row, energies).tolist() == [True, False, True, True]


def test_scan_and_sweep_validate_their_inputs(params_h5, spin_sym):
    qn = QuantumNumbers(0, -2)
    for bad in (np.nan, np.inf):
        with pytest.raises(DomainError):
            scan_v0_c(qn, "spin", params_h5, [2.0], [5.0, bad])
        with pytest.raises(DomainError):
            scan_v0_c(qn, "spin", params_h5, [2.0, bad], [5.0])
    energies = sweep_delta([qn], spin_sym, params_h5, [-0.05, 0.0, 0.05])
    assert np.isnan(energies[:, 0]).tolist() == [True, True, False]
    with pytest.raises(DomainError):
        sweep_delta([qn], spin_sym, params_h5, [0.05, np.nan])


def test_scan_and_sweep_validate_beside_an_empty_axis(params_h5, spin_sym):
    # An empty other axis must not skip the checks: a NaN delta with no
    # states, and an unknown kind with no C values, are still rejected.
    with pytest.raises(DomainError):
        sweep_delta([], spin_sym, params_h5, [np.nan])
    with pytest.raises(DomainError):
        sweep_delta([], spin_sym, params_h5, [0.05, np.inf])
    with pytest.raises(DomainError):
        scan_v0_c(QuantumNumbers(0, -2), "bogus", params_h5, [1.0], [])
    with pytest.raises(DomainError):
        scan_v0_c(QuantumNumbers(0, -2), "bogus", params_h5, [], [])
    assert sweep_delta([], spin_sym, params_h5, [-0.05, 0.05]).shape \
        == (2, 0)
