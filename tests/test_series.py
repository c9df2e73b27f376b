"""Truncated series: ring ops, composition, reversion, shifts, polygons, radii."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from padicdisc import FieldDescriptor, PadicScalar, TruncatedSeries, newton_solve
from padicdisc.errors import (
    CenterMismatch,
    NonUnitConstantTerm,
    NotInvertibleAtOrderOne,
    ShiftOutsideDisc,
    SingularFiberPoint,
    SubstitutionOutsideDisc,
    VariableMismatch,
    ZeroSeries,
)
from padicdisc.padic import _EXACT, poly_eval
from padicdisc.series import (
    compose,
    derivative,
    evaluate,
    horner,
    mult_inverse,
    radius_estimate,
    recenter,
    reversion,
    taylor_shift,
    valuation_polygon,
)
from conftest import N, binom_rationals, exp_rationals


def rational_series(field, var, rats, order=N):
    return TruncatedSeries.from_rationals(field, var, 0, rats, order=order)


# -- ring operations ---------------------------------------------------------------

def test_mul_basic(q2):
    f = rational_series(q2, "t", [1, 1])
    g = rational_series(q2, "t", [1, -1])
    h = f * g
    assert (h.coeffs[0] - 1).is_zero()
    assert h.coeffs[1].is_zero()
    assert (h.coeffs[2] + 1).is_zero()
    assert all(c.is_zero() for c in h.coeffs[3:])


def test_fp_square_identity(p2):
    prod = p2.fp * p2.fp
    expect = rational_series(p2.field, "s", [1, 1])
    assert (prod - expect).is_zero()


def test_exp_product_convolution_oracle(q2):
    # oracle: direct convolution of factorials in exact rationals
    n = 8
    plus = exp_rationals(n)
    minus = [c if j % 2 == 0 else -c for j, c in enumerate(plus)]
    conv = [sum(plus[i] * minus[k - i] for i in range(k + 1)) for k in range(n)]
    assert conv[0] == 1 and all(c == 0 for c in conv[1:])
    f = rational_series(q2, "t", plus, order=n)
    g = rational_series(q2, "t", minus, order=n)
    prod = f * g
    assert (prod - rational_series(q2, "t", conv, order=n)).is_zero()


def schoolbook_mul(f, g):
    """Reference product: the O(N^2) loop of scalar digit products over
    ``field._mul`` / ``field._add`` that skips exact-zero coefficients."""
    n = min(f.order, g.order)
    fld = f.field
    out = [fld.zero().coords] * n
    for i, x in enumerate(f.coeffs[:n]):
        if x.is_exact_zero():
            continue
        for j, y in enumerate(g.coeffs[:n - i]):
            if not y.is_exact_zero():
                out[i + j] = fld._add(out[i + j], fld._mul(x.coords, y.coords))
    return out


MUL_FIELDS = {
    "Q2": FieldDescriptor(2, digits=24),
    "Q5": FieldDescriptor(5, digits=12),
    "Q3(sqrt-3)": FieldDescriptor(3, digits=16, poly=[3, 0, 1], e=2, f=1),
    "Q2[w]/(w^2+w+1)": FieldDescriptor(2, digits=16, poly=[1, 1, 1], e=1, f=2),
    "Q2[x]/(x^3+2x+2)": FieldDescriptor(2, digits=16, poly=[2, 2, 0, 1], e=3, f=1),
    "Q2 1024 digits": FieldDescriptor(2, digits=1024),
}
# a coefficient: kind (0 exact zero, 1 value, 2 value capped at a finite
# precision, which for a value of higher valuation is a zero at that
# precision), coordinates num / den times p^shift (a zero numerator, drawn
# often, gives an exact-zero coordinate of a live scalar), the cap
_mul_coefficient = st.tuples(
    st.sampled_from([0, 1, 1, 2]),
    st.lists(st.tuples(st.one_of(st.just(0), st.integers(-20, 20)),
                       st.sampled_from([1, 2, 3, 4, 5, 9, 25])),
             min_size=3, max_size=3),
    st.integers(-2, 4), st.integers(-3, 10))


def coefficient_scalar(fld, kind, coords, shift, cap):
    """The scalar of fld that one _mul_coefficient draw describes."""
    if kind == 0:
        return fld.zero()
    c = fld.from_coords([Fraction(num, den) * fld.p ** shift
                         for num, den in coords[:fld.n]])
    return c.with_precision(cap) if kind == 2 else c


@given(name=st.sampled_from(sorted(MUL_FIELDS)),
       xs=st.lists(_mul_coefficient, min_size=1, max_size=9),
       ys=st.lists(_mul_coefficient, min_size=1, max_size=9))
@settings(max_examples=200, deadline=None)
def test_mul_matches_schoolbook(name, xs, ys):
    fld = MUL_FIELDS[name]
    f = TruncatedSeries(fld, "t", fld.zero(), [coefficient_scalar(fld, *c) for c in xs])
    g = TruncatedSeries(fld, "t", fld.zero(), [coefficient_scalar(fld, *c) for c in ys])
    assert [c.coords for c in (f * g).coeffs] == schoolbook_mul(f, g)
    assert [c.coords for c in (g * f).coeffs] == schoolbook_mul(g, f)


def test_mul_keeps_finite_precision_zero_in_gap(q2):
    zero = q2.zero()
    lone = zero.with_precision(5)
    f = TruncatedSeries(q2, "t", zero, [q2.one(), zero, lone, zero])
    g = TruncatedSeries(q2, "t", zero, [q2.one(), zero, zero, zero])
    prod = f * g
    # z * 1 is known to min(v(z) + k(1), k(z) + v(1)) = 5
    assert prod.coeffs[2].coords == ((0, 5, 5),)
    assert prod.coeffs[1].is_exact_zero() and prod.coeffs[3].is_exact_zero()
    assert [c.coords for c in prod.coeffs] == schoolbook_mul(f, g)


def test_mul_exact_zero_coordinate_meets_negative_valuation(q3pi):
    # 1/3 has coordinates (3^-1 unit, exact 0); the pi-coordinate of its
    # square sums products 3^-1 * 0 each known to _EXACT - 1 only
    third = TruncatedSeries(q3pi, "t", q3pi.zero(), [q3pi.from_rational(Fraction(1, 3))])
    prod = third * third
    assert prod.coeffs[0].coords[1] == (0, _EXACT - 1, _EXACT - 1)
    assert [c.coords for c in prod.coeffs] == schoolbook_mul(third, third)


def test_mul_exact_cancellation_is_exact_zero(q2):
    one = PadicScalar(q2, ((1, 0, _EXACT),))
    f = TruncatedSeries(q2, "t", q2.zero(), [one, one, q2.zero()])
    g = TruncatedSeries(q2, "t", q2.zero(), [one, -one, q2.zero()])
    prod = f * g
    assert prod.coeffs[1].coords == ((0, _EXACT, _EXACT),)
    assert prod.coeffs[2].coords == (-one).coords
    assert [c.coords for c in prod.coeffs] == schoolbook_mul(f, g)


def test_mismatch_errors(q2):
    f = rational_series(q2, "t", [1, 1])
    g = rational_series(q2, "s", [1, 1])
    with pytest.raises(VariableMismatch):
        f + g
    h = TruncatedSeries.from_rationals(q2, "t", 1, [1, 1], order=N)
    with pytest.raises(CenterMismatch):
        f + h


def test_min_order_rule(q2):
    f = rational_series(q2, "t", [1, 1], order=8)
    g = rational_series(q2, "t", [1, 2, 3], order=20)
    assert (f * g).order == 8
    assert (f + g).order == 8


# -- inverses ------------------------------------------------------------------------

def test_mult_inverse_geometric(q2):
    f = rational_series(q2, "t", [1, 1])
    inv = mult_inverse(f)
    for j in range(6):
        assert (inv.coeffs[j] - (-1) ** j).is_zero()
    assert ((f * inv) - rational_series(q2, "t", [1])).is_zero()


def test_mult_inverse_two_f2(p2, inv2f2):
    assert inv2f2.coeffs[0].valuation() == -1
    assert (inv2f2.coeffs[0] - Fraction(1, 2)).is_zero()
    assert ((p2.fp * 2) * inv2f2 - rational_series(p2.field, "s", [1])).is_zero()


def test_mult_inverse_error(q2):
    with pytest.raises(NonUnitConstantTerm):
        mult_inverse(rational_series(q2, "t", [0, 1, 1]))


# -- derivative ------------------------------------------------------------------------

def test_derivative_morphism(q2):
    f = rational_series(q2, "t", [0, 2, 1])
    df = derivative(f)
    assert (df - rational_series(q2, "t", [2, 2], order=N - 1)).is_zero()


def test_derivative_constant(q2):
    assert derivative(rational_series(q2, "t", [5])).is_zero()


def test_derivative_f2_algebraic_oracle(p2):
    # from f2^2 = 1+s: 2 f2 f2' = 1
    lhs = p2.fp.truncate(N - 1) * derivative(p2.fp) * 2
    assert (lhs - rational_series(p2.field, "s", [1], order=N - 1)).is_zero()


# -- composition and reversion ------------------------------------------------------------

def test_compose_identity(q2):
    t = TruncatedSeries.identity(q2, "t", q2.zero(), N)
    g = rational_series(q2, "s", [0, 3, 1, 4])
    assert (compose(t, g) - g).is_zero()


def test_compose_outside_disc(q2):
    f = rational_series(q2, "t", [0, 0, 1])
    g = rational_series(q2, "s", [1, 1])        # constant 1 is a unit: outside
    with pytest.raises(SubstitutionOutsideDisc):
        compose(f, g)


def test_horner_mixes_scalar_and_series_coefficients(q2):
    x = rational_series(q2, "s", [2, 1, 5])
    c1 = rational_series(q2, "s", [1, 0, 3])
    c0, c2 = q2.from_rational(7), q2.from_rational(-3)
    want = c1 * x + x * x * c2 + c0
    assert (horner([c0, c1, c2], x) - want).is_zero()
    assert horner([c0, c1], x.truncate(5)).order == 5


def test_compose_exp_term_oracle(q2):
    # exp(u) with u = -s/2 + s^2/8 - ...: expected terms computed by hand to s^6
    n = 7
    u_rats = [Fraction(0)] + [-c for c in binom_rationals(Fraction(1, 2), n)[1:]]
    expser = rational_series(q2, "t", exp_rationals(n), order=n)
    u = rational_series(q2, "s", u_rats, order=n)
    got = compose(expser, u)
    acc = [Fraction(1)] + [Fraction(0)] * (n - 1)
    total = [Fraction(1)] + [Fraction(0)] * (n - 1)
    fact = 1
    for k in range(1, n):
        nxt = [Fraction(0)] * n
        for i, x in enumerate(acc):
            for j, y in enumerate(u_rats):
                if i + j < n:
                    nxt[i + j] += x * y
        acc = nxt
        fact *= k
        for i in range(n):
            total[i] += acc[i] / fact
    want = rational_series(q2, "s", total, order=n)
    assert (got - want).is_zero()


def test_reversion_identity(q2):
    t = TruncatedSeries.identity(q2, "t", q2.zero(), N)
    ident = t._wrap([q2.zero(), q2.one()] + [q2.zero()] * (N - 2))
    assert (reversion(ident) - ident).is_zero()


def test_reversion_binomial_oracle(q2):
    # u0 = -1 + sum binom(1/2, j) s^j for f = 2t + t^2
    f = rational_series(q2, "t", [0, 2, 1])
    rev = reversion(f)
    expect = binom_rationals(Fraction(1, 2), N)
    expect[0] = Fraction(0)
    assert (rev - rational_series(q2, "t", expect)).is_zero()


def test_reversion_error(q2):
    with pytest.raises(NotInvertibleAtOrderOne):
        reversion(rational_series(q2, "t", [0, 0, 1, 1]))


@given(coeffs=st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=8),
                       min_size=1, max_size=6))
@settings(max_examples=30, deadline=None)
def test_mult_inverse_fraction_oracle(coeffs):
    # independent oracle: the inverse coefficient recursion over exact rationals
    if coeffs[0] == 0:
        coeffs[0] = Fraction(1)
    q3 = FieldDescriptor(3, digits=40)
    n = 10
    f = TruncatedSeries.from_rationals(q3, "t", 0, coeffs, order=n)
    inv = mult_inverse(f)
    rats = list(coeffs) + [Fraction(0)] * (n - len(coeffs))
    exact = [1 / rats[0]]
    for k in range(1, n):
        exact.append(-sum(rats[i] * exact[k - i] for i in range(1, k + 1)) / rats[0])
    assert (inv - TruncatedSeries.from_rationals(q3, "t", 0, exact)).is_zero()


@given(c1=st.sampled_from([1, 3, -1, 5, 2]), c2=st.integers(-6, 6),
       c3=st.integers(-6, 6))
@settings(max_examples=20, deadline=None)
def test_reversion_roundtrip(c1, c2, c3):
    q5 = FieldDescriptor(5, digits=40)
    n = 12
    f = TruncatedSeries.from_rationals(q5, "t", 0, [0, c1, c2, c3], order=n)
    g = reversion(f)
    ident = TruncatedSeries.identity(q5, "t", q5.zero(), n)
    assert (compose(f, g) - ident).is_zero()
    assert (compose(g, f) - ident).is_zero()


# -- taylor shift ----------------------------------------------------------------------

def test_taylor_shift_polynomial_oracle(q2):
    f = rational_series(q2, "t", [0, 2, 1])
    sh = taylor_shift(f, q2.from_rational(-2))
    # f(-2+x) - f(-2) = x^2 - 2x
    assert sh.coeffs[0].is_zero()
    assert (sh.coeffs[1] + 2).is_zero()
    assert (sh.coeffs[2] - 1).is_zero()


def test_taylor_shift_at_zero(q2):
    f = rational_series(q2, "t", [7, 2, 1])
    sh = taylor_shift(f, q2.zero())
    assert (sh - rational_series(q2, "t", [0, 2, 1])).is_zero()


def test_taylor_shift_binomial(q2):
    f = rational_series(q2, "t", [0, 0, 0, 1])
    sh = taylor_shift(f, q2.one())
    assert (sh - TruncatedSeries.from_rationals(q2, "t", 1, [0, 3, 3, 1], order=N)).is_zero()


def test_taylor_shift_roundtrip(q2):
    f = rational_series(q2, "t", [5, 2, 1, 7])
    a = q2.from_rational(6)
    sh = taylor_shift(f, a)
    back = taylor_shift(sh, q2.zero())
    # recovers f minus its constant term
    assert (back - rational_series(q2, "t", [0, 2, 1, 7])).is_zero()


def test_taylor_shift_outside(q2, q3pi):
    f = rational_series(q2, "t", [0, 1])
    with pytest.raises(ShiftOutsideDisc):
        taylor_shift(f, q2.from_rational(Fraction(1, 2)))
    # a shift known only modulo p^-2 is not known to lie in the disc
    with pytest.raises(ShiftOutsideDisc):
        recenter(f, q2.zero().with_precision(-2))
    # valuation 0, but the pi-coordinate is known only modulo 3^-1
    g = rational_series(q3pi, "t", [0, 1])
    with pytest.raises(ShiftOutsideDisc):
        recenter(g, PadicScalar(q3pi, ((1, 0, 64), (0, -1, -1))))


RECENTER_FIELDS = {
    "Q2": FieldDescriptor(2, digits=24),
    "Q3(sqrt-3)": FieldDescriptor(3, digits=24, poly=[3, 0, 1], e=2, f=1),
    "Q4": FieldDescriptor(2, digits=24, poly=[1, 1, 1], e=1, f=2),
}
_coord = st.fractions(min_value=-9, max_value=9, max_denominator=4)
# a coefficient: rational coordinates, optionally capped at a finite precision;
# (0, ..., 0) capped this way is zero only at finite precision
_coefficient = st.tuples(st.lists(_coord, min_size=2, max_size=2),
                         st.one_of(st.none(), st.integers(0, 8)),
                         st.booleans())


@given(name=st.sampled_from(sorted(RECENTER_FIELDS)),
       coeffs=st.lists(_coefficient, min_size=1, max_size=8),
       shift=st.lists(st.integers(-9, 9), min_size=2, max_size=2))
@settings(max_examples=60, deadline=None)
def test_recenter_is_taylor_shift_plus_value(name, coeffs, shift):
    fld = RECENTER_FIELDS[name]

    def scalar(coords, cap, zero):
        c = fld.zero() if zero else fld.from_coords(coords[:fld.n])
        return c if cap is None else c.with_precision(cap)

    f = TruncatedSeries(fld, "t", fld.zero(), [scalar(*c) for c in coeffs])
    a = fld.from_coords(shift[:fld.n])
    got = recenter(f, a)
    want = taylor_shift(f, a) + evaluate(f, a)
    assert (got.var, got.center.coords) == (want.var, want.center.coords)
    assert [c.coords for c in got.coeffs] == [c.coords for c in want.coeffs]


def full_width_recenter(f, a):
    """Reference recentering: the Horner shift in (delta + x) over all N
    coefficients, the exact-zero tail included."""
    delta = a - f.center
    n = f.order
    acc = [f.field.zero()] * n
    for c in reversed(f.coeffs):
        nxt = [acc[i] * delta for i in range(n)]
        for i in range(n - 1, 0, -1):
            nxt[i] = nxt[i] + acc[i - 1]
        nxt[0] = nxt[0] + c
        acc = nxt
    return [c.coords for c in acc]


def full_poly_eval(coeffs, x):
    """Reference evaluation: Horner over every coefficient."""
    acc = x.field.zero()
    for c in reversed(list(coeffs)):
        acc = acc * x + c
    return acc.coords


SHIFT_FIELDS = {
    "Q2": FieldDescriptor(2, digits=16),
    "Q5": FieldDescriptor(5, digits=12),
    "Q3(sqrt-3)": FieldDescriptor(3, digits=16, poly=[3, 0, 1], e=2, f=1),
    "Q4": FieldDescriptor(2, digits=16, poly=[1, 1, 1], e=1, f=2),
    "Q2[x]/(x^3+2x+2)": FieldDescriptor(2, digits=16, poly=[2, 2, 0, 1], e=3, f=1),
}
# a tail entry: None for the exact zero, else a zero at that finite precision
_tail_entry = st.one_of(st.none(), st.none(), st.integers(-2, 10))
# a shift: integer coordinates times p^shift (valuation 0 or more), optionally
# capped at a precision >= 0, which for all-zero coordinates is a zero at
# finite precision
_shift = st.tuples(st.lists(st.integers(-20, 20), min_size=3, max_size=3),
                   st.integers(0, 2), st.one_of(st.none(), st.integers(0, 10)))


@given(name=st.sampled_from(sorted(SHIFT_FIELDS)),
       body=st.lists(_mul_coefficient, min_size=0, max_size=6),
       tail=st.lists(_tail_entry, min_size=0, max_size=6),
       shift=_shift)
@settings(max_examples=200, deadline=None)
def test_horner_loops_skip_exact_zero_tail(name, body, tail, shift):
    fld = SHIFT_FIELDS[name]
    coeffs = [coefficient_scalar(fld, *c) for c in body]
    coeffs += [fld.zero() if cap is None else fld.zero().with_precision(cap) for cap in tail]
    if not coeffs:
        coeffs = [fld.zero()]
    f = TruncatedSeries(fld, "t", fld.zero(), coeffs)
    coords, power, cap = shift
    a = fld.from_coords([c * fld.p ** power for c in coords[:fld.n]])
    if cap is not None:
        a = a.with_precision(cap)
    assert [c.coords for c in recenter(f, a).coeffs] == full_width_recenter(f, a)
    assert poly_eval(f.coeffs, a).coords == full_poly_eval(f.coeffs, a)


# -- polygons ---------------------------------------------------------------------------

def test_polygon_morphism(q2):
    poly = valuation_polygon(rational_series(q2, "t", [0, 2, 1]))
    assert poly.vertices == ((1, Fraction(1)), (2, Fraction(0)))
    assert poly.value_at(1) == 2
    assert poly.max_slope() == 2


def test_polygon_p3(q3pi):
    poly = valuation_polygon(TruncatedSeries.from_rationals(q3pi, "t", 0, [0, 3, 3, 1], order=N))
    assert poly.value_at(Fraction(1, 2)) == Fraction(3, 2)


def test_polygon_flat(q2):
    poly = valuation_polygon(rational_series(q2, "t", [1] * N))
    for ell in (Fraction(1, 3), Fraction(1), Fraction(5, 2)):
        assert poly.value_at(ell) == 0
    assert poly.max_slope() == 0
    # two vertices at the minimal valuation: the slope at 0+ is the lesser index
    poly = valuation_polygon(rational_series(q2, "t", [4, 2, 1, 2, 1, 2]))
    assert poly.vertices == ((0, 2), (2, 0), (4, 0), (5, 1))
    assert poly.max_slope() == 2


def test_polygon_zero_series(q2):
    with pytest.raises(ZeroSeries):
        valuation_polygon(TruncatedSeries.constant(q2, "t", q2.zero(), q2.zero(), N))


@given(coeffs=st.lists(st.integers(-40, 40), min_size=2, max_size=10),
       l1=st.fractions(min_value=Fraction(1, 4), max_value=2, max_denominator=8),
       l2=st.fractions(min_value=Fraction(1, 4), max_value=2, max_denominator=8))
@settings(max_examples=60, deadline=None)
def test_polygon_concavity(coeffs, l1, l2):
    q2 = FieldDescriptor(2, digits=40)
    f = TruncatedSeries.from_rationals(q2, "t", 0, coeffs)
    if f.is_zero():
        return
    poly = valuation_polygon(f)
    mid = (l1 + l2) / 2
    assert poly.value_at(mid) >= (poly.value_at(l1) + poly.value_at(l2)) / 2


@given(fc=st.lists(st.integers(-9, 9), min_size=1, max_size=6),
       gc=st.lists(st.integers(-9, 9), min_size=1, max_size=6),
       ell=st.fractions(min_value=Fraction(1, 3), max_value=3, max_denominator=6))
@settings(max_examples=60, deadline=None)
def test_polygon_multiplicativity(fc, gc, ell):
    q3 = FieldDescriptor(3, digits=40)
    n = len(fc) + len(gc) + 1
    f = TruncatedSeries.from_rationals(q3, "t", 0, fc, order=n)
    g = TruncatedSeries.from_rationals(q3, "t", 0, gc, order=n)
    if f.is_zero() or g.is_zero():
        return
    assert valuation_polygon(f * g).value_at(ell) == \
        valuation_polygon(f).value_at(ell) + valuation_polygon(g).value_at(ell)


# -- radius estimation ---------------------------------------------------------------------

def test_radius_f2(p2):
    est = radius_estimate(p2.fp)
    assert est.exponent == 2 and est.stable


def test_radius_exp_legendre_oracle(q2):
    # valuation(1/j!) = -(j - s_2(j)) by Legendre's formula; asymptotic slope 1
    f = rational_series(q2, "t", exp_rationals(N))
    for j in (17, 24, 31):
        s2 = bin(j).count("1")
        assert f.coeffs[j].valuation() == -(j - s2)
    est = radius_estimate(f)
    assert est.exponent == 1 and est.stable


def test_radius_geometric(q2):
    est = radius_estimate(rational_series(q2, "t", [1] * N))
    assert est.exponent == 0 and est.stable


def test_radius_degenerate_polynomial(q2):
    est = radius_estimate(rational_series(q2, "t", [0, 2, 1]))
    assert est.exponent == 0 and not est.stable


@given(q=st.integers(0, 3), period=st.integers(2, 5), bump=st.integers(0, 3))
@settings(max_examples=30, deadline=None)
def test_radius_exact_on_periodic_linear(q, period, bump):
    # valuations -q*j plus a periodic bump: the supporting line is recovered exactly
    q2 = FieldDescriptor(2, digits=96)
    n = 32
    rats = []
    for j in range(n):
        v = -q * j + (bump if j % period == 0 else 0)
        rats.append(Fraction(2) ** v)
    f = TruncatedSeries.from_rationals(q2, "t", 0, rats, order=n)
    est = radius_estimate(f)
    assert est.exponent == q
    assert est.stable


@given(qnum=st.integers(1, 5), bump=st.integers(0, 2))
@settings(max_examples=20, deadline=None)
def test_radius_exact_half_integer_slopes(q3pi, qnum, bump):
    # ramified valuations in (1/2)Z follow the same supporting-line recovery
    n = 32
    pi = q3pi.uniformizer()
    coeffs = []
    for j in range(n):
        twice_v = -qnum * j + (2 * bump if j % 3 == 0 else 0)
        coeffs.append(pi ** twice_v)
    f = TruncatedSeries(q3pi, "t", q3pi.zero(), coeffs)
    est = radius_estimate(f)
    assert est.exponent == Fraction(qnum, 2)
    assert est.stable


def test_radius_beyond_unit_disc_is_clamped(q2):
    # converges beyond the unit disc: the exponent is clamped to 0
    f = rational_series(q2, "t", [Fraction(1) * 4 ** j for j in range(N)])
    est = radius_estimate(f)
    assert est.exponent == 0 and est.stable


# -- newton_solve ------------------------------------------------------------------------------

def _p2_poly(q2):
    s = TruncatedSeries.identity(q2, "s", q2.zero(), N)
    two = TruncatedSeries.constant(q2, "s", q2.zero(), q2.from_rational(2), N)
    one = TruncatedSeries.constant(q2, "s", q2.zero(), q2.one(), N)
    return [-s, two, one]          # X^2 + 2X - s


def test_newton_solve_branches(q2):
    poly = _p2_poly(q2)
    u0 = newton_solve(poly, q2.zero())
    expect = binom_rationals(Fraction(1, 2), N)
    expect[0] = Fraction(0)
    assert (u0 - TruncatedSeries.from_rationals(q2, "s", 0, expect)).is_zero()
    um2 = newton_solve(poly, q2.from_rational(-2))
    mirror = [-c for c in expect]
    mirror[0] = Fraction(-2)
    assert (um2 - TruncatedSeries.from_rationals(q2, "s", 0, mirror)).is_zero()


def test_newton_solve_residual_invariant(q2):
    poly = _p2_poly(q2)
    u = newton_solve(poly, q2.zero())
    acc = TruncatedSeries.constant(q2, "s", q2.zero(), q2.zero(), N)
    for c in reversed(poly):
        acc = acc * u + c
    assert acc.is_zero()


def test_newton_solve_singular(q2):
    s = TruncatedSeries.identity(q2, "s", q2.zero(), N)
    zero = TruncatedSeries.constant(q2, "s", q2.zero(), q2.zero(), N)
    one = TruncatedSeries.constant(q2, "s", q2.zero(), q2.one(), N)
    with pytest.raises(SingularFiberPoint):
        newton_solve([-s, zero, one], q2.zero())     # X^2 - s at 0
