"""Vandermonde transfer, linked bases, branch selection, optimal bases."""

import itertools
import random
from fractions import Fraction

import pytest

from padicdisc import (
    FieldDescriptor,
    TruncatedSeries,
    branch_selection,
    fundamental_pairs,
    fundamental_solution_matrix,
    horizontal_check,
    linked_bases,
    local_solution_matrix,
    optimal_basis,
    optimality_check,
    transfer_coordinates,
    trivial_optimal_basis,
    vandermonde,
)
from padicdisc import cli, direct_image, element_radius, fiber, local_solution, \
    monic_relation, optimal, tree_over_point
from padicdisc.errors import FiberNotReduced
from padicdisc.morphism import Fiber
from padicdisc.optimal import BasisColumn, LinkedColumn, OptimalBasis
from padicdisc.series import compose, mult_inverse
from conftest import N, constant_rank, exp_rationals


def series(field, rats, var="s", center=0, order=N):
    return TruncatedSeries.from_rationals(field, var, center, rats, order=order)


def ones_column(field, d, order=N):
    return [TruncatedSeries.constant(field, "s", field.zero(), field.one(), order)
            for _ in range(d)]


# -- vandermonde -------------------------------------------------------------------------

def test_vandermonde_p2_closed_form(p2, inv2f2):
    v = p2.vd.matrix_v
    f2 = p2.fp
    expected = (
        ((f2 - 1) * inv2f2, (f2 + 1) * inv2f2),
        (inv2f2 * p2.field.from_rational(-1), inv2f2),
    )
    for i in range(2):
        for j in range(2):
            assert (v[i][j] - expected[i][j]).is_zero()


def test_vandermonde_p3_corner(p3):
    # entry (3,3) of the displayed inverse is 1/(3 f(s)^2)
    inv_f2 = mult_inverse(p3.fp * p3.fp)
    third = p3.field.from_rational(Fraction(1, 3))
    assert (p3.vd.matrix_v[2][2] - inv_f2 * third).is_zero()


def test_vandermonde_degree_one(q2):
    from padicdisc import DiscMorphism
    phi = DiscMorphism(f=series(q2, [0, 1], var="t"), degree=1)
    fib = fiber(phi, q2.from_rational(2), hints=[2])
    u = local_solution(phi, fib.points[0], fib.target)
    vd = vandermonde(fib, [u])
    assert (vd.matrix_u[0][0] - series(q2, [1], center=fib.target)).is_zero()
    assert (vd.matrix_v[0][0] - series(q2, [1], center=fib.target)).is_zero()


def test_vandermonde_degenerate(q2):
    fib = Fiber(target=q2.zero(), points=(q2.from_rational(2), q2.from_rational(4)))
    u1 = series(q2, [2, 1])
    u2 = series(q2, [2, 3])
    with pytest.raises(ValueError):
        vandermonde(fib, [u1, u2])      # constants do not match the fiber
    with pytest.raises(FiberNotReduced, match="fiber points 0 and 1 collide at precision"):
        Fiber(target=q2.zero(), points=(q2.from_rational(2), q2.from_rational(2)))


def test_v_times_ones_examples(p2, p3):
    from padicdisc.diffmod import mat_vec
    for setup in (p2, p3):
        d = len(setup.fib.points)
        e1 = mat_vec(setup.vd.matrix_v, ones_column(setup.field, d))
        assert (e1[0] - 1).is_zero()
        assert all(x.is_zero() for x in e1[1:])


def test_v_times_ones_synthetic(q2):
    from padicdisc.diffmod import mat_vec
    rng = random.Random(11)
    for _ in range(20):
        d = rng.randint(2, 4)
        consts = rng.sample([2, 4, 6, 8, 10, 12, 16, 20], d)
        us = []
        for c in consts:
            tail = [c] + [Fraction(rng.randint(-9, 9), rng.choice([1, 2, 4]))
                          for _ in range(11)]
            tail[1] = tail[1] if tail[1] != 0 else Fraction(1)
            us.append(series(q2, tail, order=12))
        fib = Fiber(target=q2.zero(), points=tuple(q2.from_rational(c) for c in consts))
        vd = vandermonde(fib, us)
        e1 = mat_vec(vd.matrix_v, ones_column(q2, d, order=12))
        assert (e1[0] - 1).is_zero()
        assert all(x.is_zero() for x in e1[1:])


def test_vandermonde_permutation_conjugation(p3):
    # permuting the fiber permutes the rows of U, so V picks up P^T on the right
    perm = [2, 0, 1]
    fib = Fiber(target=p3.fib.target,
                points=tuple(p3.fib.points[i] for i in perm))
    us = tuple(p3.solutions[i] for i in perm)
    vd2 = vandermonde(fib, us)
    for i in range(3):
        for j in range(3):
            assert (vd2.matrix_u[i][j] - p3.vd.matrix_u[perm[i]][j]).is_zero()
            assert (vd2.matrix_v[i][j] - p3.vd.matrix_v[i][perm[j]]).is_zero()


# -- transfer ------------------------------------------------------------------------------

def test_transfer_ones_is_e1(p2):
    blocks = [[series(p2.field, [1])], [series(p2.field, [1])]]
    out = transfer_coordinates(blocks, p2.vd)
    assert (out[0] - 1).is_zero()
    assert out[1].is_zero()


def test_transfer_single_block(p2, inv2f2):
    zero = series(p2.field, [0])
    blocks = [[zero], [series(p2.field, [1])]]
    out = transfer_coordinates(blocks, p2.vd)
    assert (out[0] - (p2.fp + 1) * inv2f2).is_zero()
    assert (out[1] - inv2f2).is_zero()


def test_transfer_rank_one_degree_one(q2):
    from padicdisc import DiscMorphism
    phi = DiscMorphism(f=series(q2, [0, 1], var="t"), degree=1)
    fib = fiber(phi, q2.zero(), hints=[0])
    u = local_solution(phi, fib.points[0], fib.target)
    vd = vandermonde(fib, [u])
    payload = series(q2, [3, 1, 4])
    out = transfer_coordinates([[payload]], vd)
    assert (out[0] - payload).is_zero()


# -- fundamental solution matrix --------------------------------------------------------------

def test_fundamental_trivial_is_v(p2):
    bases = [local_solution_matrix(p2.trivial, a) for a in p2.fib.points]
    cols = fundamental_solution_matrix(bases, p2.vd)
    assert len(cols) == 2
    for j, col in enumerate(cols):
        for i in range(2):
            assert (col[i] - p2.vd.matrix_v[i][j]).is_zero()


def test_fundamental_exp_matches_display(p2, p2_exp_module, inv2f2):
    q2 = p2.field
    bases = [local_solution_matrix(p2_exp_module, a) for a in p2.fib.points]
    cols = fundamental_solution_matrix(bases, p2.vd)
    expser = series(q2, exp_rationals(N))
    f2 = p2.fp
    h_minus = compose(expser, 1 - f2)
    h_plus = compose(expser, f2 - 1)
    expected = (
        ((f2 - 1) * inv2f2 * h_minus, inv2f2 * q2.from_rational(-1) * h_minus),
        ((f2 + 1) * inv2f2 * h_plus, inv2f2 * h_plus),
    )
    for col, want in zip(cols, expected):
        for got, exp in zip(col, want):
            assert (got - exp).is_zero()
    di = direct_image(p2_exp_module, p2.phi, p2.rel)
    for col in cols:
        ok, _ = horizontal_check(col, di)
        assert ok


def test_fundamental_columns_independent(p3):
    bases = [local_solution_matrix(p3.trivial, a) for a in p3.fib.points]
    cols = fundamental_solution_matrix(bases, p3.vd)
    wrapped = [BasisColumn(entries=c, predicted_exponent=Fraction(0),
                           estimate=element_radius(c),
                           provenance={}) for c in cols]
    assert constant_rank(wrapped) == 3


def test_constant_rank_skips_dependent_and_zero_columns(q2):
    def column(*consts):
        return BasisColumn(entries=tuple(TruncatedSeries.constant(q2, "s", q2.zero(), c, N)
                                         for c in consts),
                           predicted_exponent=Fraction(0), estimate=None, provenance={})

    # 8 known modulo 2^3 is zero at precision, but not an exact zero
    zero_at_prec = q2.from_rational(8).with_precision(3)
    assert zero_at_prec.is_zero() and not zero_at_prec.is_exact_zero()
    c0 = column(q2.from_rational(1), q2.from_rational(2), q2.zero())
    c1 = column(q2.zero(), q2.from_rational(1), q2.from_rational(3))
    vanishing = column(zero_at_prec, q2.zero(), zero_at_prec)
    e3 = column(q2.zero(), q2.zero(), q2.from_rational(1))
    assert constant_rank([vanishing]) == 0
    assert constant_rank([c0, c1, c0, vanishing]) == 2
    # a skipped column must not use up a pivot row
    assert constant_rank([vanishing, c0, c0, c1]) == 2
    assert constant_rank([vanishing, c0, c1, c0, e3]) == 3


# -- linked bases and pairs ----------------------------------------------------------------------

def _exp_linked_input(setup, module):
    cols = []
    for i, a in enumerate(setup.fib.points):
        hb = local_solution_matrix(module, a)
        cols.append([LinkedColumn(entries=hb.columns[0],
                                  exponent=hb.radii[0].exponent, origin=(i, 0))])
    return cols


def test_linked_exp_vacuous(p2, p2_exp_module):
    linked = linked_bases(_exp_linked_input(p2, p2_exp_module), p2.fib)
    # |a_1 - a_2| = |2| equals the radius: strict inclusion fails, nothing copied
    assert linked[0][0].origin == (0, 0)
    assert linked[1][0].origin == (1, 0)


def test_linked_trivial_shared(p2):
    linked = linked_bases(_exp_linked_input(p2, p2.trivial), p2.fib)
    origins = {linked[i][0].origin for i in range(2)}
    assert origins == {(0, 0)}       # the constant column is shared from the anchor


def test_linked_synthetic_copy(q2):
    # fiber {0, p}: a radius-exponent-1/2 column at 0 covers p and is copied
    fib = Fiber(target=q2.zero(), points=(q2.zero(), q2.from_rational(2)))
    col0 = (series(q2, [1, 1], var="t", center=0),)
    col1 = (series(q2, [5, 3], var="t", center=2),)
    bases = [
        [LinkedColumn(entries=col0, exponent=Fraction(1, 2), origin=(0, 0))],
        [LinkedColumn(entries=col1, exponent=Fraction(1, 2), origin=(1, 0))],
    ]
    linked = linked_bases(bases, fib)
    assert linked[1][0].origin == (0, 0)
    # the copy is the recentering of the original: value at center matches 1 + t
    assert (linked[1][0].entries[0].coeffs[0] - 3).is_zero()


def test_linked_inconsistent_radii(q2):
    # a claimed-wide column that is not actually shared: the predicate fails
    from padicdisc.errors import InconsistentRadii
    fib = Fiber(target=q2.zero(), points=(q2.zero(), q2.from_rational(2)))
    col0 = (series(q2, [1, 1], var="t", center=0),)
    col1 = (series(q2, [7, 5], var="t", center=2),)
    bases = [
        [LinkedColumn(entries=col0, exponent=Fraction(1, 2), origin=(0, 0))],
        [LinkedColumn(entries=col1, exponent=Fraction(1, 2), origin=(0, 0))],
    ]
    # both claim origin (0,0) so nothing is copied, yet the entries differ
    with pytest.raises(InconsistentRadii):
        linked_bases(bases, fib)


def test_fundamental_pairs_trivial(p2):
    linked = linked_bases(_exp_linked_input(p2, p2.trivial), p2.fib)
    pairs = fundamental_pairs(linked, p2.fib)
    assert len(pairs) == 1
    assert pairs[0].anchor == 0
    assert pairs[0].members == (0, 1)
    assert pairs[0].exponent == 0


def test_fundamental_pairs_exp(p2, p2_exp_module):
    linked = linked_bases(_exp_linked_input(p2, p2_exp_module), p2.fib)
    pairs = fundamental_pairs(linked, p2.fib)
    assert len(pairs) == 2
    assert [(p.anchor, p.exponent) for p in pairs] == [(0, 1), (1, 1)]
    assert all(p.members == (p.anchor,) for p in pairs)


def test_branch_selection_cases(p2, p3):
    linked = linked_bases(_exp_linked_input(p2, p2.trivial), p2.fib)
    pair = fundamental_pairs(linked, p2.fib)[0]
    sel = branch_selection(p2.tree, pair)
    assert sel == (("self", None), ("branch", (0, 1)))

    linked3 = linked_bases(_exp_linked_input(p3, p3.trivial), p3.fib)
    pair3 = fundamental_pairs(linked3, p3.fib)[0]
    sel3 = branch_selection(p3.tree, pair3)
    assert sel3 == (("self", None), ("branch", (0, 1)), ("branch", (0, 2)))
    assert len(sel3) == 3    # cardinality identity |U_P| = #(U n fiber)


def test_branch_selection_no_interior_point(p2, p2_exp_module):
    linked = linked_bases(_exp_linked_input(p2, p2_exp_module), p2.fib)
    for pair in fundamental_pairs(linked, p2.fib):
        sel = branch_selection(p2.tree, pair)
        assert sel == (("self", None),)


# -- optimal bases ---------------------------------------------------------------------------------

def test_trivial_optimal_basis_p2(p2, inv2f2):
    basis = trivial_optimal_basis(p2.tree, p2.vd, p2.phi)
    assert len(basis) == 2
    first, second = basis.columns
    assert (first.entries[0] - 1).is_zero() and first.entries[1].is_zero()
    assert (second.entries[0] - (p2.fp + 1) * inv2f2).is_zero()
    assert (second.entries[1] - inv2f2).is_zero()
    assert [c.predicted_exponent for c in basis.columns] == [0, 2]
    assert [c.estimate.exponent for c in basis.columns] == [0, 2]
    assert second.estimate.stable


def test_trivial_optimal_basis_p3(p3):
    basis = trivial_optimal_basis(p3.tree, p3.vd, p3.phi)
    assert len(basis) == 3
    assert [c.predicted_exponent for c in basis.columns] == \
        [0, Fraction(3, 2), Fraction(3, 2)]
    for j in (1, 2):
        for i in range(3):
            assert (basis.columns[j].entries[i] - p3.vd.matrix_v[i][j]).is_zero()
        assert basis.columns[j].estimate.exponent == Fraction(3, 2)
        assert basis.columns[j].estimate.stable


def test_optimal_basis_trivial_specialization(p2):
    general = optimal_basis(_exp_linked_input(p2, p2.trivial), p2.tree, p2.vd, p2.phi)
    special = trivial_optimal_basis(p2.tree, p2.vd, p2.phi)
    assert len(general) == len(special) == 2
    for g, s in zip(general.columns, special.columns):
        assert g.predicted_exponent == s.predicted_exponent
        for x, y in zip(g.entries, s.entries):
            assert (x - y).is_zero()


def test_optimal_basis_exp(p2, p2_exp_module):
    basis = optimal_basis(_exp_linked_input(p2, p2_exp_module), p2.tree, p2.vd, p2.phi)
    assert len(basis) == 2
    assert all(c.predicted_exponent == 2 for c in basis.columns)
    assert all(c.estimate.exponent == 2 and c.estimate.stable for c in basis.columns)
    di = direct_image(p2_exp_module, p2.phi, p2.rel)
    for col in basis.columns:
        ok, _ = horizontal_check(col.entries, di)
        assert ok
    assert constant_rank(basis.columns) == 2


def test_trivial_basis_degree_one(q2):
    from padicdisc import DiscMorphism
    phi = DiscMorphism(f=series(q2, [0, 1], var="t"), degree=1)
    fib = fiber(phi, q2.zero(), hints=[0])
    tree = tree_over_point(phi, fib)
    u = local_solution(phi, fib.points[0], fib.target)
    vd = vandermonde(fib, [u])
    basis = trivial_optimal_basis(tree, vd, phi)
    assert len(basis) == 1
    assert (basis.columns[0].entries[0] - 1).is_zero()
    assert basis.columns[0].predicted_exponent == 0


def test_optimal_basis_degree_one(q2):
    # d = 1: the basis is the upstairs basis recentered through u(s) = s
    from padicdisc import DiscMorphism
    phi = DiscMorphism(f=series(q2, [0, 1], var="t"), degree=1)
    fib = fiber(phi, q2.zero(), hints=[0])
    tree = tree_over_point(phi, fib)
    u = local_solution(phi, fib.points[0], fib.target)
    vd = vandermonde(fib, [u])
    mod = p2_exp = None
    minus_one = TruncatedSeries.constant(q2, "t", q2.zero(), q2.from_rational(-1), N)
    from padicdisc import DiffModule
    mod = DiffModule(rank=1, matrix=((minus_one,),), var="t", center=q2.zero())
    hb = local_solution_matrix(mod, fib.points[0])
    cols = [[LinkedColumn(entries=hb.columns[0], exponent=hb.radii[0].exponent,
                          origin=(0, 0))]]
    basis = optimal_basis(cols, tree, vd, phi)
    assert len(basis) == 1
    assert (basis.columns[0].entries[0] - series(q2, exp_rationals(N))).is_zero()


def test_rank2_optimal_basis_horizontal(q2):
    # trivial (+) exponential at rank 2: the 2d transferred columns stay
    # horizontal for the rank-4 pushforward system
    from padicdisc import DiffModule, DiscMorphism
    n = 16
    f = TruncatedSeries.from_rationals(q2, "t", 0, [0, 2, 1], order=n)
    phi = DiscMorphism(f=f, degree=2)
    fib = fiber(phi, q2.zero())
    tree = tree_over_point(phi, fib)
    us = tuple(local_solution(phi, a, fib.target) for a in fib.points)
    vd = vandermonde(fib, us)
    rel = monic_relation(phi, fib)
    zero = TruncatedSeries.constant(q2, "t", q2.zero(), q2.zero(), n)
    mone = TruncatedSeries.constant(q2, "t", q2.zero(), q2.from_rational(-1), n)
    mod = DiffModule(rank=2, matrix=((zero, zero), (zero, mone)), var="t",
                     center=q2.zero())
    cols = []
    for i, a in enumerate(fib.points):
        hb = local_solution_matrix(mod, a)
        cols.append([
            LinkedColumn(entries=hb.columns[1], exponent=Fraction(1), origin=(i, 0)),
            LinkedColumn(entries=hb.columns[0], exponent=Fraction(0), origin=(i, 1)),
        ])
    basis = optimal_basis(cols, tree, vd, phi)
    di = direct_image(mod, phi, rel)
    assert di.rank == 4 and len(basis) == 4
    for col in basis.columns:
        ok, worst = horizontal_check(col.entries, di)
        assert ok and worst == float("inf")
    bases = [local_solution_matrix(mod, a) for a in fib.points]
    for col in fundamental_solution_matrix(bases, vd):
        ok, _ = horizontal_check(col, di)
        assert ok
    assert constant_rank(basis.columns) == 4


def test_horizontality_of_trivial_bases(p2, p3):
    for setup in (p2, p3):
        di = direct_image(setup.trivial, setup.phi, setup.rel)
        basis = trivial_optimal_basis(setup.tree, setup.vd, setup.phi)
        for col in basis.columns:
            ok, worst = horizontal_check(col.entries, di)
            assert ok and worst == float("inf")


@pytest.mark.parametrize("example, transfers, entries", [("p2-trivial", 3, 4), ("p2-exp", 2, 2),
                                                          ("p3-trivial", 4, 6)])
def test_run_composes_once_per_entry(monkeypatch, example, transfers, entries):
    # the fundamental and optimal stages transport the same upstairs columns:
    # each distinct column is transferred by V(s) once, composing each entry
    # of its blocks along u_{a_i}; a second ask for it is served by the job's
    # Vandermonde data, and the checks verify each transported column once
    composed, transferred, checked = [], [], []

    def counted_compose(f, g):
        composed.append(f)
        return compose(f, g)

    def counted_transfer(blocks, vdata):
        transferred.append(blocks)
        return transfer_coordinates(blocks, vdata)

    def counted_check(column, module):
        checked.append(column)
        return horizontal_check(column, module)

    monkeypatch.setattr(optimal, "compose", counted_compose)
    monkeypatch.setattr(optimal, "transfer_coordinates", counted_transfer)
    monkeypatch.setattr(cli, "horizontal_check", counted_check)
    pipe = cli._load(cli.example_spec(example, order=16))
    report = cli._report(pipe)
    assert len(transferred) == transfers
    assert len(composed) == entries
    fundamental = pipe.get("fundamental")
    columns = {id(col): col for col in fundamental}
    columns.update((id(col.entries), col.entries) for col in pipe.get("optimal").columns)
    assert len(checked) == len(columns)
    assert all(check["passed"] for check in report["checks"])
    if example == "p2-exp":
        assert [col.entries for col in pipe.get("optimal").columns] == list(fundamental)
        assert all(col.entries is fundamental[i]
                   for i, col in enumerate(pipe.get("optimal").columns))


# -- optimality check -------------------------------------------------------------------------------

def test_optimality_check_honest(p2, p3):
    for setup in (p2, p3):
        basis = trivial_optimal_basis(setup.tree, setup.vd, setup.phi)
        report = optimality_check(basis)
        assert report["passed"]


def _corrupt(basis):
    # replace the widest-radius column by its sum with a narrower one
    cols = list(basis.columns)
    wide = min(range(len(cols)), key=lambda i: cols[i].predicted_exponent)
    narrow = max(range(len(cols)), key=lambda i: cols[i].predicted_exponent)
    summed = tuple(x + y for x, y in zip(cols[wide].entries, cols[narrow].entries))
    cols[wide] = BasisColumn(entries=summed,
                             predicted_exponent=cols[narrow].predicted_exponent,
                             estimate=cols[narrow].estimate,
                             provenance={"corrupted": True})
    return OptimalBasis(columns=tuple(cols))


def test_optimality_check_detects_corruption(p2, p3):
    for setup in (p2, p3):
        basis = _corrupt(trivial_optimal_basis(setup.tree, setup.vd, setup.phi))
        report = optimality_check(basis)
        assert not report["passed"]


def test_radius_multiset_invariant_under_fiber_permutation(p3):
    perm = [1, 2, 0]
    fib = Fiber(target=p3.fib.target,
                points=tuple(p3.fib.points[i] for i in perm))
    us = tuple(p3.solutions[i] for i in perm)
    vd = vandermonde(fib, us)
    tree = tree_over_point(p3.phi, fib)
    basis = trivial_optimal_basis(tree, vd, p3.phi)
    original = trivial_optimal_basis(p3.tree, p3.vd, p3.phi)
    assert sorted(c.estimate.exponent for c in basis.columns) == \
        sorted(c.estimate.exponent for c in original.columns)


# the exponential module pushed forward by (1+t)^3 - 1 over Q_3(sqrt-3): a
# class of several nonconstant columns, failing at N = 16 and passing at 24
EXP_CUBE_SPEC = {"field": {"p": 3, "ext": {"poly": ["3", "0", "1"], "e": 2, "f": 1},
                           "digits": 48},
                 "N": 16, "morphism": {"f": ["0", "3", "3", "1"], "d": 3},
                 "module": {"rank": 1, "A": [[["1"]]]}}


def _cancelling_basis(q2, n=16):
    """Three rank-2 columns A, B, A of exponent 1 whose entries share the
    window 2^-j, j >= N/2 (2^-j, j >= 7 in the order-14 second entries):
    A - B vanishes on every window, and A - A everywhere."""
    def entry(low, order):
        return TruncatedSeries.from_rationals(
            q2, "s", 0, low + [Fraction(1, 2 ** j) for j in range(len(low), order)],
            order=order)

    a = (entry([1] + [0] * 7, n), entry([0] * 7, n - 2))
    b = (entry([0, 1] + [0] * 6, n), entry([3] + [0] * 6, n - 2))
    return OptimalBasis(columns=tuple(
        BasisColumn(entries=e, predicted_exponent=Fraction(1),
                    estimate=element_radius(e), provenance={}) for e in (a, b, a)))


def _one_entry_basis(entries, exponents):
    return OptimalBasis(columns=tuple(
        BasisColumn(entries=(e,), predicted_exponent=Fraction(q), estimate=element_radius((e,)),
                    provenance={}) for e, q in zip(entries, exponents)))


def _lone_column_basis(q2, n=16):
    """Two one-column classes: exp, of exponent 1, predicted at 0, and 2^-j
    predicted at its exponent 1."""
    return _one_entry_basis((series(q2, exp_rationals(n), order=n),
                             series(q2, [Fraction(1, 2 ** j) for j in range(n)], order=n)),
                            (0, 1))


def _exp_class(field, multiples, n=32):
    """One class of y = exp(s), exponent 1/(p-1), and m y + k for each (m, k)
    in ``multiples``; with k != 0, m y + k - m y = k converges everywhere."""
    y = series(field, exp_rationals(n), order=n)
    entries = [y] + [y * m + k for m, k in multiples]
    return _one_entry_basis(entries, [Fraction(1, field.p - 1)] * len(entries))


@pytest.fixture(scope="module")
def verdict_cases(q2, q3pi, p2, p3):
    """Name -> (basis, whether the optimality check passes it)."""
    q3 = FieldDescriptor(3, digits=64)
    unit = q3pi.one() + q3pi.uniformizer()
    cases = {
        "cancelling": (_cancelling_basis(q2), False),
        "lone_column": (_lone_column_basis(q2), False),
        # {y, c y + 1}: out of reach of small integer combinations, or of
        # rational ones altogether for the unit 1 + sqrt(-3)
        "exp_c4": (_exp_class(q3, [(4, 1)]), False),
        "exp_c5": (_exp_class(q3, [(5, 1)]), False),
        "exp_c7": (_exp_class(q3, [(7, 1)]), False),
        "exp_unit": (_exp_class(q3pi, [(unit, 1)]), False),
        # dependent: 4y + 2 = 2 (3y + 1) - 2y
        "exp_dependent": (_exp_class(q3, [(3, 1), (4, 2)]), False),
    }
    for label, setup in (("p2", p2), ("p3", p3)):
        honest = trivial_optimal_basis(setup.tree, setup.vd, setup.phi)
        cases["honest_" + label] = (honest, True)
        cases["corrupt_" + label] = (_corrupt(honest), False)
    cases["p2_exp"] = (cli._load(cli.example_spec("p2-exp", order=24)).get("optimal"), True)
    for order, passes in ((16, False), (24, True)):
        spec = dict(EXP_CUBE_SPEC, N=order)
        cases["exp_cube_%d" % order] = (cli._load(spec).get("optimal"), passes)
    return cases


VERDICT_CASES = ("cancelling", "lone_column", "exp_c4", "exp_c5", "exp_c7", "exp_unit",
                 "exp_dependent", "honest_p2", "honest_p3", "corrupt_p2", "corrupt_p3",
                 "p2_exp", "exp_cube_16", "exp_cube_24")


@pytest.mark.parametrize("name", VERDICT_CASES)
def test_optimality_check_verdict(verdict_cases, name):
    basis, passes = verdict_cases[name]
    report = optimality_check(basis)
    assert report["passed"] is passes
    assert any(cls["failures"] for cls in report["classes"]) is not passes


def test_optimality_check_witnesses_replay(verdict_cases):
    """Each failure's coefficients, applied to the class's original columns
    by plain series arithmetic, give a column estimating as reported."""
    for name, (basis, passes) in verdict_cases.items():
        if passes:
            continue
        report = optimality_check(basis)
        assert any(cls["failures"] for cls in report["classes"]), name
        for cls in report["classes"]:
            for failure in cls["failures"]:
                assert len(failure["coeffs"]) == len(cls["members"])
                combo = None
                for c, idx in zip(failure["coeffs"], cls["members"]):
                    scaled = tuple(e * c for e in basis.columns[idx].entries)
                    combo = scaled if combo is None else tuple(
                        x + y for x, y in zip(combo, scaled))
                assert str(element_radius(combo).exponent) == failure["estimated"], name


def _class_verdicts(basis):
    return {cls["exponent"]: not cls["failures"]
            for cls in optimality_check(basis)["classes"]}


def test_optimality_check_ignores_column_order(verdict_cases):
    """Permuting the columns permutes each class; no class's verdict moves."""
    for name, (basis, passes) in verdict_cases.items():
        verdicts = _class_verdicts(basis)
        assert all(verdicts.values()) is passes, name
        for perm in itertools.permutations(basis.columns):
            assert _class_verdicts(OptimalBasis(columns=perm)) == verdicts, name
