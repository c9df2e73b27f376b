"""Differential modules: basis change, fundamental matrices, reduction, direct images."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from padicdisc import (
    DiffModule,
    DiscMorphism,
    FieldDescriptor,
    QuotientAlgebra,
    TruncatedSeries,
    change_basis,
    direct_image,
    element_radius,
    horizontal_check,
    local_solution_matrix,
    reduce_to_basis,
)
from padicdisc.errors import NonInvertibleTransition, NotEtale
from padicdisc.series import compose, mult_inverse
from padicdisc.diffmod import (
    inverse_derivative_coordinates,
    mat_identity,
    mat_inverse,
    mat_mul,
)
from padicdisc.morphism import fiber, monic_relation
from conftest import N, exp_rationals


def series(field, rats, var="t", center=0, order=N):
    return TruncatedSeries.from_rationals(field, var, center, rats, order=order)


def module_of(field, rows, order=N):
    mat = tuple(tuple(series(field, entry, order=order) for entry in row) for row in rows)
    return DiffModule(rank=len(rows), matrix=mat, var="t", center=field.zero())


# -- change of basis ---------------------------------------------------------------------

def test_change_basis_identity(q2, p2):
    mod = module_of(q2, [[[0, 1]], ])
    ident = mat_identity(q2, "t", q2.zero(), 1, N)
    out = change_basis(mod, ident)
    assert (out.matrix[0][0] - mod.matrix[0][0]).is_zero()


def test_change_basis_rank1_oracle(q2):
    # trivial module, B = (1+t): A' = d(B^{-1}) B = -(1+t)^{-1}
    mod = module_of(q2, [[[0]]])
    b = ((series(q2, [1, 1]),),)
    out = change_basis(mod, b)
    expect = mult_inverse(series(q2, [1, 1])) * q2.from_rational(-1)
    assert (out.matrix[0][0] - expect).is_zero()


def test_change_basis_constant_gauge_fixes_exp(q2, p2_exp_module):
    b = ((TruncatedSeries.constant(q2, "t", q2.zero(), q2.from_rational(5), N),),)
    out = change_basis(p2_exp_module, b)
    assert (out.matrix[0][0] - p2_exp_module.matrix[0][0]).is_zero()


def test_change_basis_roundtrip(q2):
    mod = module_of(q2, [[[0, 1], [1]], [[2], [0, 0, 3]]])
    b = (
        (series(q2, [1, 2]), series(q2, [0, 1])),
        (series(q2, [0, 0, 4]), series(q2, [1, 1, 1])),
    )
    binv = mat_inverse(b)
    once = change_basis(mod, b)
    back = change_basis(once, binv)
    for i in range(2):
        for j in range(2):
            delta = back.matrix[i][j] - mod.matrix[i][j]
            # derivative steps drop the last order; compare on the shared prefix
            assert delta.truncate(N - 2).is_zero()


def test_mat_inverse_swaps_in_least_valuation_pivot(q2):
    # column 0 has constant terms 2 on the diagonal and 1 below it: the unit
    # pivot below must be swapped in, or dividing by 2 + t halves the digits
    a = ((series(q2, [2, 1]), series(q2, [1])),
         (series(q2, [1]), series(q2, [0, 1])))
    inv = mat_inverse(a)
    iden = mat_identity(q2, "t", q2.zero(), 2, N)
    for prod in (mat_mul(a, inv), mat_mul(inv, a)):
        assert all((prod[i][j] - iden[i][j]).is_zero() for i in range(2) for j in range(2))
    assert all(c.min_precision() == q2.digits for row in inv for c in row)


def test_change_basis_not_invertible(q2):
    mod = module_of(q2, [[[0]]])
    b = ((series(q2, [0, 1]),),)
    with pytest.raises(NonInvertibleTransition):
        change_basis(mod, b)


@given(b00=st.integers(1, 5), b01=st.integers(-4, 4),
       b10=st.integers(-4, 4), b11=st.integers(1, 5), a=st.integers(-3, 3))
@settings(max_examples=15, deadline=None)
def test_gauge_covariance(b00, b01, b10, b11, a):
    # columns of B^T Y are horizontal for the gauged module
    if b00 * b11 - b01 * b10 == 0:
        return
    q3 = FieldDescriptor(3, digits=40)
    n = 12
    mod = DiffModule(rank=2, matrix=(
        (series(q3, [0, a], order=n), series(q3, [1], order=n)),
        (series(q3, [0, 0, 1], order=n), series(q3, [0], order=n))), var="t",
        center=q3.zero())
    b = (
        (series(q3, [b00, 1], order=n), series(q3, [b01], order=n)),
        (series(q3, [b10, 0, 1], order=n), series(q3, [b11], order=n)),
    )
    gauged = change_basis(mod, b)
    base = local_solution_matrix(mod, q3.zero())
    bt = tuple(tuple(b[j][i] for j in range(2)) for i in range(2))
    for col in base.columns:
        moved = tuple(
            bt[i][0] * col[0] + bt[i][1] * col[1] for i in range(2))
        ok, _ = horizontal_check(moved, gauged)
        assert ok
    # exact covariance: the gauged fundamental matrix is B^T Y (B^T(a))^{-1}
    gauged_fund = local_solution_matrix(gauged, q3.zero())
    bt0 = [[b[j][i].coeffs[0] for j in range(2)] for i in range(2)]
    det = bt0[0][0] * bt0[1][1] - bt0[0][1] * bt0[1][0]
    inv0 = [[bt0[1][1] / det, -bt0[0][1] / det],
            [-bt0[1][0] / det, bt0[0][0] / det]]
    for jcol in range(2):
        for irow in range(2):
            expect = None
            for k in range(2):
                moved_k = bt[irow][0] * base.columns[k][0] \
                    + bt[irow][1] * base.columns[k][1]
                term = moved_k * inv0[k][jcol]
                expect = term if expect is None else expect + term
            delta = gauged_fund.columns[jcol][irow] - expect
            assert delta.truncate(n - 1).is_zero()


# -- fundamental solution matrices -------------------------------------------------------------

def test_local_solution_matrix_trivial(q2, p2):
    out = local_solution_matrix(p2.trivial, q2.zero())
    col = out.columns[0]
    assert (col[0] - series(q2, [1])).is_zero()


def test_local_solution_matrix_exp(q2, p2_exp_module):
    out = local_solution_matrix(p2_exp_module, q2.zero())
    col = out.columns[0]
    assert (col[0] - series(q2, exp_rationals(N))).is_zero()
    assert out.radii[0].exponent == 1 and out.radii[0].stable


def test_local_solution_matrix_nilpotent(q3pi):
    # A = [[0,1],[0,0]]: D(e1) = e2, system S = -A^T, Y = I + tS = [[1,0],[-t,1]]
    mod = module_of(q3pi, [[[0], [1]], [[0], [0]]])
    out = local_solution_matrix(mod, q3pi.zero())
    y00, y10 = out.columns[0]
    y01, y11 = out.columns[1]
    assert (y00 - series(q3pi, [1])).is_zero()
    assert (y10 - series(q3pi, [0, -1])).is_zero()
    assert y01.is_zero()
    assert (y11 - series(q3pi, [1])).is_zero()
    for est in out.radii:
        assert est.exponent == 0


def test_horizontal_check_passes_on_solutions(q2, p2_exp_module):
    out = local_solution_matrix(p2_exp_module, q2.from_rational(-2))
    for col in out.columns:
        ok, worst = horizontal_check(col, p2_exp_module)
        assert ok and worst == float("inf")


def test_horizontal_check_detects_violation(q2, p2_exp_module):
    one = (series(q2, [1]),)
    ok, worst = horizontal_check(one, p2_exp_module)
    assert not ok
    assert worst == 0        # d(1) + 1 = 1 fails already at order 0


# -- element radius --------------------------------------------------------------------------

def test_element_radius_cases(q2, p2, inv2f2):
    const_col = (series(q2, [1]), series(q2, [1]))
    assert element_radius(const_col).exponent == 0
    mixed = (series(q2, exp_rationals(N)), series(q2, [1]))
    assert element_radius(mixed).exponent == 1
    # V(s) [0,1]^T for p=2 has exponent 2
    vcol = tuple(p2.vd.matrix_v[i][1] for i in range(2))
    est = element_radius(vcol)
    assert est.exponent == 2 and est.stable


# -- reduction to the quotient basis ------------------------------------------------------------

def test_reduce_examples(q2, p2):
    quot = QuotientAlgebra(p2.rel)
    sq = reduce_to_basis(series(q2, [0, 0, 1]), quot)
    assert (sq[0] - series(q2, [0, 1], var="s")).is_zero()
    assert (sq[1] - series(q2, [-2], var="s")).is_zero()

    one = reduce_to_basis(series(q2, [1]), quot)
    assert (one[0] - series(q2, [1], var="s")).is_zero()
    assert one[1].is_zero()

    cube = reduce_to_basis(series(q2, [0, 0, 0, 1]), quot)
    assert (cube[0] - series(q2, [0, -2], var="s")).is_zero()
    assert (cube[1] - series(q2, [4, 1], var="s")).is_zero()


@given(coeffs=st.lists(st.integers(-9, 9), min_size=1, max_size=7),
       rough_at=st.one_of(st.none(), st.integers(8, 15)))
@example(coeffs=[3, 0, 1], rough_at=13)
@settings(max_examples=20, deadline=None)
def test_reduce_left_inverse(coeffs, rough_at):
    # reconstruct g = sum g_m(f(t)) t^m for random polynomial g
    q2 = FieldDescriptor(2, digits=48)
    n = 16
    f = TruncatedSeries.from_rationals(q2, "t", 0, [0, 2, 1], order=n)
    phi = DiscMorphism(f=f, degree=2)
    fib = fiber(phi, q2.zero())
    rel = monic_relation(phi, fib)
    g = TruncatedSeries.from_rationals(q2, "t", 0, coeffs, order=n)
    if rough_at is not None:
        # a coefficient that is zero only at precision 5, above g's degree:
        # t^rough_at has a unit coordinate, so its precision must reach the parts
        rough = list(g.coeffs)
        rough[rough_at] = q2.zero().with_precision(5)
        g = TruncatedSeries(q2, "t", q2.zero(), rough)
    parts = reduce_to_basis(g, QuotientAlgebra(rel))
    if rough_at is not None:
        assert min(part.min_precision() for part in parts) == 5
    t_series = TruncatedSeries.identity(q2, "t", q2.zero(), n)
    acc = TruncatedSeries.constant(q2, "t", q2.zero(), q2.zero(), n)
    power = TruncatedSeries.constant(q2, "t", q2.zero(), q2.one(), n)
    for part in parts:
        acc = acc + compose(part, f) * power
        power = power * t_series
    assert (acc - g).is_zero()


# -- direct images ------------------------------------------------------------------------------

def test_direct_image_trivial_p2(q2, p2):
    di = direct_image(p2.trivial, p2.phi, p2.rel)
    assert di.rank == 2
    sysm = di.system_matrix()
    inv_s1 = mult_inverse(series(q2, [1, 1], var="s"))
    mh = q2.from_rational(Fraction(-1, 2))
    zero = TruncatedSeries.constant(q2, "s", q2.zero(), q2.zero(), N)
    expected = ((zero, inv_s1 * mh), (zero, inv_s1 * mh))
    for i in range(2):
        for j in range(2):
            assert (sysm[i][j] - expected[i][j]).is_zero()


def test_inverse_derivative_decomposition(q2, p2):
    coords = inverse_derivative_coordinates(p2.phi, p2.rel)
    half_inv = mult_inverse(series(q2, [1, 1], var="s")) * q2.from_rational(Fraction(1, 2))
    assert (coords[0] - half_inv).is_zero()
    assert (coords[1] - half_inv).is_zero()


def test_direct_image_exp_derived(q2, p2, p2_exp_module):
    # derived system: [[1/(2(s+1)), (s-1)/(2(s+1))], [1/(2(s+1)), -1/(s+1)]];
    # the reference display's (2,2) entry -(1/2)/(s+1) disagrees with its own
    # derivation steps, which force -1/(s+1)
    di = direct_image(p2_exp_module, p2.phi, p2.rel)
    sysm = di.system_matrix()
    inv_s1 = mult_inverse(series(q2, [1, 1], var="s"))
    half = q2.from_rational(Fraction(1, 2))
    s_ser = TruncatedSeries.identity(q2, "s", q2.zero(), N)
    expected = (
        (inv_s1 * half, (s_ser - 1) * inv_s1 * half),
        (inv_s1 * half, inv_s1 * q2.from_rational(-1)),
    )
    for i in range(2):
        for j in range(2):
            assert (sysm[i][j] - expected[i][j]).is_zero()
    assert not (sysm[1][1] - inv_s1 * q2.from_rational(Fraction(-1, 2))).is_zero()


def test_direct_image_rank_p3(p3):
    di = direct_image(p3.trivial, p3.phi, p3.rel)
    assert di.rank == 3
    assert len(di.matrix) == 3 and all(len(row) == 3 for row in di.matrix)


def test_direct_image_rank2_block_structure(q2, p2):
    # rank-2 diagonal module: rank doubles and blocks stay decoupled
    mod = module_of(q2, [[[0], [0]], [[0], [-1]]])
    di = direct_image(mod, p2.phi, p2.rel)
    assert di.rank == 4
    for i in range(2):
        for j in range(2, 4):
            assert di.matrix[i][j].is_zero()


def test_direct_image_requires_etale(q2, p2):
    bad = DiscMorphism(f=series(q2, [0, 0, 1]), degree=2)
    with pytest.raises(NotEtale):
        direct_image(p2.trivial, bad, p2.rel)


def test_uv_product_identity(p2, p3):
    for setup in (p2, p3):
        d = len(setup.fib.points)
        prod = mat_mul(setup.vd.matrix_u, setup.vd.matrix_v)
        iden = mat_identity(setup.field, "s", setup.field.zero(), d, N)
        for i in range(d):
            for j in range(d):
                assert (prod[i][j] - iden[i][j]).is_zero()
