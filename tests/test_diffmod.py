"""Differential modules: series matrices, fundamental matrices, reduction, direct images."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from padicdisc import (
    DiffModule,
    DiscMorphism,
    FieldDescriptor,
    QuotientAlgebra,
    TruncatedSeries,
    direct_image,
    element_radius,
    horizontal_check,
    local_solution_matrix,
    reduce_to_basis,
)
from padicdisc import series as series_module
from padicdisc.errors import DegenerateFiber, NotEtale
from padicdisc.series import compose, mult_inverse, recenter
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


# -- matrices of series -----------------------------------------------------------------

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


def test_mat_inverse_without_invertible_pivot(q2):
    a = ((series(q2, [0, 1]), series(q2, [1])),
         (series(q2, [0, 3]), series(q2, [2])))
    with pytest.raises(DegenerateFiber, match="column 0"):
        mat_inverse(a)


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


@pytest.mark.parametrize("setup", ["p2", "p3"])
def test_trivial_column_is_exact_zero_past_its_constant(setup, request, monkeypatch):
    # A = [[0]]: S = 0, so every Y_k with k >= 1 is 0 / k, the exact zero,
    # also where k is divisible by p and 1/k has negative valuation
    job = request.getfixturevalue(setup)
    products = []
    real = series_module._bconv
    monkeypatch.setattr(series_module, "_bconv",
                        lambda *args: products.append(1) or real(*args))
    for a, u in zip(job.fib.points, job.solutions):
        col = local_solution_matrix(job.trivial, a).columns[0][0]
        assert (col.coeffs[0] - 1).is_zero()
        assert all(c.is_exact_zero() for c in col.coeffs[1:])
        del products[:]
        composed = compose(col, u)
        assert len(products) <= 1
        assert (composed - 1).is_zero()


def reference_local_solution_matrix(module, a):
    """The recursion Y_{k+1} = (sum S_i Y_{k-i}) / (k+1) over every index i,
    exact-zero S_i included: the matrices Y_0 .. Y_{N-1}."""
    n, r, fld = module.order(), module.rank, module.field
    s_shift = [[recenter(c, a) for c in row] for row in module.system_matrix()]
    s_coeff = [[[s_shift[i][j].coeffs[k] for j in range(r)] for i in range(r)]
               for k in range(n)]
    y = [[[fld.one() if i == j else fld.zero() for j in range(r)] for i in range(r)]]
    for k in range(n - 1):
        acc = [[fld.zero() for _ in range(r)] for _ in range(r)]
        for i_ in range(k + 1):
            for i in range(r):
                for j in range(r):
                    t = fld.zero()
                    for m in range(r):
                        t = t + s_coeff[i_][i][m] * y[k - i_][m][j]
                    acc[i][j] = acc[i][j] + t
        y.append([[acc[i][j] / (k + 1) for j in range(r)] for i in range(r)])
    return y


RECURSION_FIELDS = {"q2": FieldDescriptor(2, digits=16),
                    "q3pi": FieldDescriptor(3, digits=12, poly=[3, 0, 1], e=2, f=1)}
# an entry of A: a polynomial in t whose coefficients are often 0, so that S
# has exact-zero coefficients inside its support; the halves and thirds have
# negative valuation over Q_2 and Q_3(sqrt-3)
_entry = st.lists(st.one_of(st.just(0), st.just(0), st.integers(-9, 9),
                            st.integers(-9, 9).map(lambda m: Fraction(m, 2)),
                            st.integers(-9, 9).map(lambda m: Fraction(m, 3))),
                  min_size=1, max_size=6)


@given(field=st.sampled_from(["q2", "q3pi"]), rank=st.sampled_from([1, 2]),
       entries=st.lists(_entry, min_size=4, max_size=4), at_center=st.booleans())
@example(field="q2", rank=1, entries=[[-1], [0], [0], [0]], at_center=True)
@example(field="q3pi", rank=2, entries=[[1, 0, 0, 2], [0], [0, 0, Fraction(1, 3)],
                                        [Fraction(1, 2), 0, 0, 0, 3]], at_center=False)
@settings(max_examples=25, deadline=None)
def test_local_solution_matrix_matches_full_recursion(field, rank, entries, at_center):
    """Skipping the exact-zero S_i keeps every digit of the full recursion,
    at the center 0 (interior exact zeros) and off it (exact-zero tails)."""
    fld = RECURSION_FIELDS[field]
    rows = [[entries[rank * i + j] for j in range(rank)] for i in range(rank)]
    mod = module_of(fld, rows, order=12)
    a = fld.zero() if at_center else fld.uniformizer() * 3
    out = local_solution_matrix(mod, a)
    ref = reference_local_solution_matrix(mod, a)
    for j, col in enumerate(out.columns):
        for i, entry in enumerate(col):
            assert [c.coords for c in entry.coeffs] == [y[i][j].coords for y in ref]


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
