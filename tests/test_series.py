"""Truncated series: ring ops, composition, reversion, shifts, polygons, radii."""

import math
import operator
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from padicdisc import FieldDescriptor, PadicScalar, TruncatedSeries, jsonio, newton_solve
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
from padicdisc.padic import (INF, _EXACT, _badd, _bconv, _bmul, _bnorm, _bzero, _int_valuation,
                             _ppow, _vp_int, poly_eval)
from padicdisc.series import (
    compose,
    derivative,
    evaluate,
    horner,
    lower_hull,
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


# exact-zero runs around a body: the live pairs then fill a sub-rectangle of
# the pair square, or none of it when the first live indices sum to N or more
_zero_run = st.integers(0, 6)
_UNIT = (1, [(1, 1)] * 3, 0, 0)


@given(name=st.sampled_from(sorted(MUL_FIELDS)),
       xs=st.lists(_mul_coefficient, min_size=1, max_size=9),
       ys=st.lists(_mul_coefficient, min_size=1, max_size=9),
       runs=st.tuples(_zero_run, _zero_run, _zero_run, _zero_run))
@example(name="Q2", xs=[_UNIT] * 2, ys=[_UNIT] * 3, runs=(1, 3, 2, 1))
@example(name="Q3(sqrt-3)", xs=[_UNIT] * 2, ys=[_UNIT] * 3, runs=(5, 0, 4, 0))
@settings(max_examples=200, deadline=None)
def test_mul_matches_schoolbook(name, xs, ys, runs):
    fld = MUL_FIELDS[name]
    x_lead, x_trail, y_lead, y_trail = runs

    def padded(draws, lead, trail):
        return TruncatedSeries(fld, "t", fld.zero(), [fld.zero()] * lead
                               + [coefficient_scalar(fld, *c) for c in draws]
                               + [fld.zero()] * trail)

    f, g = padded(xs, x_lead, x_trail), padded(ys, y_lead, y_trail)
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
    # square sums products 3^-1 * 0, each the exact zero: the exact zero
    # absorbs, though 3^-1 has valuation -1
    third = TruncatedSeries(q3pi, "t", q3pi.zero(), [q3pi.from_rational(Fraction(1, 3))])
    prod = third * third
    assert prod.coeffs[0].coords[1] == (0, _EXACT, _EXACT)
    assert [c.coords for c in prod.coeffs] == schoolbook_mul(third, third)


def test_mul_exact_cancellation_is_exact_zero(q2):
    one = PadicScalar(q2, ((1, 0, _EXACT),))
    f = TruncatedSeries(q2, "t", q2.zero(), [one, one, q2.zero()])
    g = TruncatedSeries(q2, "t", q2.zero(), [one, -one, q2.zero()])
    prod = f * g
    assert prod.coeffs[1].coords == ((0, _EXACT, _EXACT),)
    assert prod.coeffs[2].coords == (-one).coords
    assert [c.coords for c in prod.coeffs] == schoolbook_mul(f, g)


def reference_pair_conv(p, xs, ys, x_live, y_live):
    """The series product's former per-coordinate-pair kernel: first len(xs)
    digits of the product of two digit series, by one Kronecker product.  An
    exact-zero digit contributes (inf, inf) to the precision profile: its
    products are exact zeros."""
    n = len(xs)
    x_lo = x_live.index(True) if True in x_live else n
    y_lo = y_live.index(True) if True in y_live else n
    if x_lo + y_lo >= n:
        return [(0, _EXACT, _EXACT)] * n
    x_hi = min(n - 1 - x_live[::-1].index(True), n - 1 - y_lo)
    y_hi = min(n - 1 - y_live[::-1].index(True), n - 1 - x_lo)
    xvk, ykv = [], []
    for i in range(x_lo, x_hi + 1):
        u, v, k = xs[i]
        xvk += (v, k) if x_live[i] and (u or k < _EXACT) else (math.inf, math.inf)
    for j in range(y_hi, y_lo - 1, -1):
        u, v, k = ys[j]
        ykv += (k, v) if y_live[j] and (u or k < _EXACT) else (math.inf, math.inf)
    top = min(n - 1, x_hi + y_hi)
    prec = [math.inf] * (x_lo + y_lo)
    prec += [min(map(operator.add, xvk[s:], ykv)) if s > 0
             else min(map(operator.add, xvk, ykv[-s:]))
             for s in range(2 * (y_lo - y_hi), 2 * (top - x_lo - y_hi) + 1, 2)]
    prec += [math.inf] * (n - 1 - top)
    ex = min((v for u, v, _ in xs if u), default=None)
    ey = min((v for u, v, _ in ys if u), default=None)
    if ex is None or ey is None:
        return [_bzero(k) for k in prec]
    mx = [u * p ** (v - ex) if u else 0 for u, v, _ in xs]
    my = [u * p ** (v - ey) if u else 0 for u, v, _ in ys]
    width = (max(mx).bit_length() + max(my).bit_length() + n.bit_length() + 7) // 8
    packed_x = int.from_bytes(b"".join(m.to_bytes(width, "little") for m in mx), "little")
    packed_y = int.from_bytes(b"".join(m.to_bytes(width, "little") for m in my), "little")
    raw = ((packed_x * packed_y) & ((1 << (8 * width * n)) - 1)).to_bytes(width * n, "little")
    return [_bnorm(p, int.from_bytes(raw[s:s + width], "little"), ex + ey, k)
            for s, k in zip(range(0, width * n, width), prec)]


def reference_pow_table(fld):
    """X^k modulo the defining polynomial as exact rational coordinate
    vectors, n <= k <= 2n - 2."""
    n = fld.n
    table = {}
    cur = [-c for c in fld.poly[:-1]]  # X^n
    table[n] = list(cur)
    for k in range(n + 1, 2 * n - 1):
        nxt = [Fraction(0)] + cur[:-1]
        top = cur[-1]
        if top:
            for i in range(n):
                nxt[i] += top * table[n][i]
        table[k] = list(nxt)
        cur = nxt
    return table


def reference_scale(p, x, q):
    """Exact multiplication of a digit by a nonzero rational: no precision loss."""
    u, v, k = x
    num, den = q.numerator, q.denominator
    vn = _vp_int(num, p)
    vd = _vp_int(den, p) if den % p == 0 else 0
    w = vn - vd
    if not u:
        return _bzero(k + w)
    rel = k - v
    mod = _ppow(p, rel)
    u2 = u * ((num // _ppow(p, vn)) % mod)
    den_unit = (den // _ppow(p, vd)) % mod
    if den_unit != 1:
        u2 *= pow(den_unit, -1, mod)
    return _bnorm(p, u2 % mod, v + w, k + w)


def reference_fold(fld, conv):
    """Coordinates of sum conv[k] X^k (k < 2n - 1) modulo the defining
    polynomial, each conv[k] scaled digit by digit by the entries of X^k.
    The entries are p-integral, so an exact conv[k] folds to exact terms; an
    exact zero is skipped, a zero at finite precision still caps the
    precision of what it folds into."""
    p, n = fld.p, fld.n
    out = list(conv[:n])
    if n == 1:
        return tuple(out)
    table = reference_pow_table(fld)
    for k in range(2 * n - 2, n - 1, -1):
        t = conv[k]
        if not t[0] and t[2] >= _EXACT:
            continue
        for i, q in enumerate(table[k]):
            if q:
                out[i] = _badd(p, out[i], reference_scale(p, t, q))
    return tuple(out)


def reference_pair_mul(f, g):
    """The series product's former path on the first min(f.order, g.order)
    coefficients: reference_kernel of their coordinate tuples."""
    n = min(f.order, g.order)
    return reference_kernel(f.field, [c.coords for c in f.coeffs[:n]],
                            [c.coords for c in g.coeffs[:n]])


def reference_kernel(fld, xs, ys):
    """The former path on coordinate tuples: one pair kernel per coordinate
    pair (a, b), the pairs of a + b = c merged by _badd, each coefficient
    folded by reference_fold.  A coefficient is live unless every digit is
    an exact zero, the former per-digit test of _bconv."""
    x_live = [not all(not u and k >= _EXACT for u, _, k in c) for c in xs]
    y_live = [not all(not u and k >= _EXACT for u, _, k in c) for c in ys]
    x_coords = list(zip(*xs))
    y_coords = list(zip(*ys))
    conv = [None] * (2 * fld.n - 1)
    for a in range(fld.n):
        for b in range(fld.n):
            prod = reference_pair_conv(fld.p, x_coords[a], y_coords[b], x_live, y_live)
            acc = conv[a + b]
            conv[a + b] = prod if acc is None else [_badd(fld.p, s, t)
                                                    for s, t in zip(acc, prod)]
    return [reference_fold(fld, digits) for digits in zip(*conv)]


KERNEL_FIELDS = {
    "Q2": FieldDescriptor(2, digits=20),
    "Q3": FieldDescriptor(3, digits=12),
    "Q5": FieldDescriptor(5, digits=10),
    "Q7": FieldDescriptor(7, digits=8),
    "Q2(sqrt-2)": FieldDescriptor(2, digits=16, poly=[2, 0, 1], e=2, f=1),
    "Q3(sqrt-3)": FieldDescriptor(3, digits=12, poly=[3, 0, 1], e=2, f=1),
    "Q4": FieldDescriptor(2, digits=16, poly=[1, 1, 1], e=1, f=2),
    "Q25": FieldDescriptor(5, digits=10, poly=[-2, 0, 1], e=1, f=2),
    "Q2[x]/(x^3+2x+2)": FieldDescriptor(2, digits=16, poly=[2, 2, 0, 1], e=3, f=1),
    # x^2 + x/2 + 2 reduces to x^2 + 2x + 2, irreducible over F_3; X^2 folds
    # by the entry -1/2, a 3-adic unit with a denominator
    "Q9 by x^2+x/2+2": FieldDescriptor(3, digits=12, poly=[2, Fraction(1, 2), 1], e=1, f=2),
    "Q3(sqrt-3) 1024 digits": FieldDescriptor(3, digits=1024, poly=[3, 0, 1], e=2, f=1),
}
# a coefficient: kind (0 exact zero, 1 value, 2 value capped at a finite
# precision, which for a value of higher valuation is a zero at that
# precision), then per coordinate num / den times p^shift, the shifts wide
# apart so that the coordinates' valuations differ widely, and the cap
_kernel_coords = st.lists(st.tuples(st.one_of(st.just(0), st.integers(-40, 40)),
                                   st.sampled_from([1, 2, 3, 4, 5, 7, 9, 25]),
                                   st.sampled_from([-3, -1, 0, 0, 1, 4, 30])),
                         min_size=3, max_size=3)
_kernel_cap = st.integers(-3, 12)
_kernel_coefficient = st.tuples(st.sampled_from([0, 1, 1, 2]), _kernel_coords, _kernel_cap)


def kernel_scalar(fld, draw, dead=()):
    """The scalar of one draw; coordinates in ``dead`` are zero.  Kind 3 is
    kind 1 with every digit made exact: u * p^v known modulo p^_EXACT."""
    kind, coords, cap = draw
    if kind == 0:
        return fld.zero()
    c = fld.from_coords([0 if a in dead else Fraction(num, den) * Fraction(fld.p) ** shift
                         for a, (num, den, shift) in enumerate(coords[:fld.n])])
    if kind == 3:
        return PadicScalar(fld, tuple((u, v, _EXACT) if u else (u, v, k) for u, v, k in c.coords))
    return c.with_precision(cap) if kind == 2 else c


def kernel_series(fld, draws, lead, trail, dead):
    """Series of the draws between exact-zero runs; coordinates in ``dead``
    are zero in every coefficient."""
    coeffs = [fld.zero()] * lead + [kernel_scalar(fld, draw, dead) for draw in draws]
    return TruncatedSeries(fld, "t", fld.zero(), coeffs + [fld.zero()] * trail)


_WIDE = (1, [(1, 1, 0), (7, 1, 30), (-1, 9, -3)], 0)
# every coordinate 2^19 - 1, a 12-digit 3-adic unit just below 2^19: with x's
# first coordinate zero, coordinate 0 of the product at Q3(sqrt-3) is
# -3 conv_2, 200 pairs of such units at its top slot, close to the slot's
# bound with its sign bit
_TOP = (1, [(2 ** 19 - 1, 1, 0)] * 3, 0)


@given(name=st.sampled_from(sorted(KERNEL_FIELDS)),
       xs=st.lists(_kernel_coefficient, min_size=1, max_size=8),
       ys=st.lists(_kernel_coefficient, min_size=1, max_size=8),
       runs=st.tuples(_zero_run, _zero_run, _zero_run, _zero_run),
       dead=st.tuples(st.sets(st.integers(0, 2), max_size=2), st.sets(st.integers(0, 2))))
@example(name="Q3(sqrt-3)", xs=[_WIDE] * 3, ys=[_WIDE] * 4, runs=(0, 2, 1, 0),
         dead=(set(), set()))
@example(name="Q2[x]/(x^3+2x+2)", xs=[_WIDE] * 3, ys=[_WIDE] * 2, runs=(4, 0, 3, 0),
         dead=({1}, set()))
@example(name="Q9 by x^2+x/2+2", xs=[_WIDE] * 3, ys=[_WIDE] * 3, runs=(0, 0, 0, 0),
         dead=({0}, set()))
@example(name="Q4", xs=[_WIDE] * 2, ys=[_WIDE] * 3, runs=(5, 0, 4, 0),
         dead=(set(), set()))
@example(name="Q3(sqrt-3)", xs=[_TOP] * 200, ys=[_TOP] * 200, runs=(0, 0, 0, 0),
         dead=({0}, set()))
@settings(max_examples=300, deadline=None)
def test_mul_kernel_matches_pair_path(name, xs, ys, runs, dead):
    """The one-kernel series product against the per-pair path it replaced,
    digit triple by digit triple."""
    fld = KERNEL_FIELDS[name]
    x_lead, x_trail, y_lead, y_trail = runs
    f = kernel_series(fld, xs, x_lead, x_trail, dead[0])
    g = kernel_series(fld, ys, y_lead, y_trail, dead[1])
    assert [c.coords for c in (f * g).coeffs] == reference_pair_mul(f, g)
    assert [c.coords for c in (g * f).coeffs] == reference_pair_mul(g, f)


# an exact zero in another form than fld.zero().coords: zero digits known
# modulo p^_EXACT whose valuation bound lies below _EXACT.  No constructor
# builds it, but _bconv's one-compare live test must stay byte-safe on it
def odd_exact_zero(fld, v):
    return ((0, v, _EXACT),) * fld.n


# kinds as for _kernel_coefficient, plus 3 (exact digits) and 4 (an exact
# zero in the odd form, its valuation bound the cap)
_bconv_coefficient = st.tuples(st.sampled_from([0, 0, 1, 2, 3, 4]), _kernel_coords, _kernel_cap)


def bconv_coords(fld, draws, lead, trail):
    """Coordinate tuples of the draws between runs of exact zeros; the draws
    themselves may be exact zeros, so the runs can also be interior."""
    body = [odd_exact_zero(fld, draw[2]) if draw[0] == 4 else kernel_scalar(fld, draw).coords
            for draw in draws]
    return [fld.zero().coords] * lead + body + [fld.zero().coords] * trail


_ZERO = (0, _WIDE[1], 0)
_ODD = (4, _WIDE[1], 2)


@given(name=st.sampled_from(sorted(KERNEL_FIELDS)),
       xs=st.lists(_bconv_coefficient, max_size=8), ys=st.lists(_bconv_coefficient, max_size=8),
       runs=st.tuples(_zero_run, _zero_run, _zero_run, _zero_run))
@example(name="Q3(sqrt-3)", xs=[_ZERO] * 4, ys=[_WIDE] * 4, runs=(0, 0, 0, 0))
@example(name="Q2", xs=[_ODD] * 3, ys=[_WIDE] * 3, runs=(0, 0, 0, 0))
@example(name="Q4", xs=[_ODD, _WIDE, _ZERO, _ODD, _WIDE], ys=[_ODD, _ODD, _WIDE],
         runs=(1, 0, 2, 3))
@example(name="Q2[x]/(x^3+2x+2)", xs=[_WIDE, _ZERO, _ZERO, _WIDE], ys=[_ODD] * 2 + [_WIDE],
         runs=(3, 2, 0, 4))
@settings(max_examples=300, deadline=None)
def test_bconv_live_test_matches_pair_path(name, xs, ys, runs):
    """_bconv, whose live flags are one comparison with fld.zero().coords,
    against the pair path with the former per-digit flags, digit triple by
    digit triple: on leading, trailing and interior runs of exact zeros, on
    all-exact-zero operands and on exact zeros in the odd form, which the
    comparison flags live and the per-digit test does not."""
    fld = KERNEL_FIELDS[name]
    x_lead, x_trail, y_lead, y_trail = runs
    x = bconv_coords(fld, xs, x_lead, x_trail)
    y = bconv_coords(fld, ys, y_lead, y_trail)
    n = max(1, min(len(x), len(y)))
    x = (x + [fld.zero().coords] * n)[:n]
    y = (y + [fld.zero().coords] * n)[:n]
    assert _bconv(fld, x, y) == reference_kernel(fld, x, y)
    assert _bconv(fld, y, x) == reference_kernel(fld, y, x)


def reference_scalar_mul(fld, a, b):
    """The schoolbook coordinate convolution by _bmul and _badd, then
    reference_fold."""
    conv = [None] * (2 * fld.n - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            t = _bmul(fld.p, x, y)
            conv[i + j] = t if conv[i + j] is None else _badd(fld.p, conv[i + j], t)
    return reference_fold(fld, conv)


# kinds as for _kernel_coefficient, plus 3: exact digits, which the shifts
# -3 and -1 and the denominators 9 and 25 give negative valuations
_scalar_draw = st.tuples(st.sampled_from([0, 1, 2, 3]), _kernel_coords, _kernel_cap)
# the exact pi/3 times the exact pi: conv_2 = (1, -1, _EXACT - 1) folds by
# X^2 = -3 (w = 1) to the exact -1, which _bmul by the entry as an exact
# digit would leave known modulo p^(_EXACT - 1) only
_EXACT_THIRD = (3, [(0, 1, 0), (1, 3, 0), (0, 1, 0)], 0)
_EXACT_ONE = (3, [(0, 1, 0), (1, 1, 0), (0, 1, 0)], 0)


@given(name=st.sampled_from(sorted(KERNEL_FIELDS)), a=_scalar_draw, b=_scalar_draw)
@example(name="Q3(sqrt-3)", a=_EXACT_THIRD, b=_EXACT_ONE)
@settings(max_examples=300, deadline=None)
def test_scalar_mul_matches_schoolbook_fold(name, a, b):
    """FieldDescriptor._mul against the schoolbook convolution and the
    former digit-by-digit fold, digit triple by digit triple."""
    fld = KERNEL_FIELDS[name]
    x, y = kernel_scalar(fld, a).coords, kernel_scalar(fld, b).coords
    assert fld._mul(x, y) == reference_scalar_mul(fld, x, y)
    assert fld._mul(y, x) == reference_scalar_mul(fld, y, x)


def reference_muladd(fld, a, b, c):
    """reference_scalar_mul(a, b), then _badd of c coordinate by coordinate."""
    return tuple(_badd(fld.p, s, t) for s, t in zip(reference_scalar_mul(fld, a, b), c))


# an exact addend with a coordinate of valuation -3: with the exact units
# of _EXACT_THIRD and _EXACT_ONE it lies below the product's valuation
_EXACT_LOW = (3, [(1, 1, -3), (2, 1, -3), (1, 9, -1)], 0)


@given(name=st.sampled_from(sorted(KERNEL_FIELDS)), a=_scalar_draw, b=_scalar_draw,
       c=_scalar_draw)
@example(name="Q3(sqrt-3)", a=_EXACT_THIRD, b=_EXACT_ONE, c=_EXACT_LOW)
@example(name="Q9 by x^2+x/2+2", a=_WIDE, b=_WIDE, c=_EXACT_LOW)
@example(name="Q2[x]/(x^3+2x+2)", a=_WIDE, b=(2, [(1, 1, 0)] * 3, 2), c=(2, _WIDE[1], -1))
@settings(max_examples=300, deadline=None)
def test_muladd_matches_product_then_add(name, a, b, c):
    """FieldDescriptor._muladd(a, b, c) against the schoolbook product and
    fold followed by _badd of c, digit triple by digit triple; c may be the
    exact zero, a zero at finite precision or an exact digit of negative
    valuation."""
    fld = KERNEL_FIELDS[name]
    x, y, z = (kernel_scalar(fld, draw).coords for draw in (a, b, c))
    assert fld._muladd(x, y, z) == reference_muladd(fld, x, y, z)
    assert fld._muladd(y, x, z) == reference_muladd(fld, y, x, z)
    assert fld._muladd(x, y) == reference_scalar_mul(fld, x, y)


def reference_poly_eval(fld, coeffs, x):
    """sum c_k x^k by Horner on reference_muladd from the exact zero, every
    coefficient included."""
    acc = fld.zero().coords
    for c in reversed(coeffs):
        acc = reference_muladd(fld, acc, x, c)
    return acc


def reference_recenter(fld, coeffs, d):
    """Coefficients of sum c_k (d + x)^k by the Horner shift on
    reference_scalar_mul and _badd, every coefficient included."""
    acc = []
    for c in reversed(coeffs):
        nxt = [reference_scalar_mul(fld, x, d) for x in acc] + [fld.zero().coords]
        for i in range(len(acc), 0, -1):
            nxt[i] = tuple(_badd(fld.p, s, t) for s, t in zip(nxt[i], acc[i - 1]))
        nxt[0] = tuple(_badd(fld.p, s, t) for s, t in zip(nxt[0], c))
        acc = nxt
    return acc


@given(name=st.sampled_from(sorted(KERNEL_FIELDS)),
       draws=st.lists(_scalar_draw, min_size=0, max_size=8), point=_scalar_draw)
@example(name="Q9 by x^2+x/2+2", draws=[_WIDE, _EXACT_LOW, (0, _WIDE[1], 0), _WIDE],
         point=(2, _WIDE[1], 4))
@settings(max_examples=200, deadline=None)
def test_poly_eval_and_recenter_match_reference_horner(name, draws, point):
    """poly_eval and recenter, one _muladd per Horner step, against the
    Horner loops on the schoolbook product and _badd."""
    fld = KERNEL_FIELDS[name]
    coeffs = [kernel_scalar(fld, draw) for draw in draws]
    x = kernel_scalar(fld, point)
    assert poly_eval(coeffs, x).coords == \
        reference_poly_eval(fld, [c.coords for c in coeffs], x.coords)
    # recenter shifts inside the disc, to a point known to precision >= 0
    while (not x.is_zero() and x.valuation() < 0) or x.precision() < 0:
        x = x * fld.p
    f = TruncatedSeries(fld, "t", fld.zero(), coeffs or [fld.zero()])
    assert [c.coords for c in recenter(f, x).coeffs] == \
        reference_recenter(fld, [c.coords for c in f.coeffs], x.coords)


@given(name=st.sampled_from(sorted(KERNEL_FIELDS)),
       xs=st.lists(_scalar_draw, min_size=1, max_size=6),
       ys=st.lists(_scalar_draw, min_size=1, max_size=6))
@example(name="Q3(sqrt-3)", xs=[(3, [(1, 1, -1)] * 3, 0)], ys=[(3, [(1, 1, -1)] * 3, 0)])
@settings(max_examples=200, deadline=None)
def test_exact_zero_absorbs(name, xs, ys):
    """0 * x is the exact zero whatever the valuation of x, through
    PadicScalar.__mul__ and through the series product.  So Q_p stays closed:
    scalars whose coordinates past the first are exact zeros multiply to
    such scalars, also when the first coordinates have negative valuation."""
    fld = KERNEL_FIELDS[name]
    zero = fld.zero()
    for draw in xs + ys:
        x = kernel_scalar(fld, draw)
        assert (zero * x).is_exact_zero() and (x * zero).is_exact_zero()
    # a cap (kind 2) would make the zero coordinates zeros at finite
    # precision, so kind 2 draws go uncapped here
    upper = set(range(1, fld.n))
    xs, ys = ([(1 if kind == 2 else kind, c, cap) for kind, c, cap in draws] for draws in (xs, ys))
    f, g = kernel_series(fld, xs, 0, 0, upper), kernel_series(fld, ys, 0, 0, upper)
    zeros = kernel_series(fld, [], f.order, 0, ())
    assert all(c.is_exact_zero() for c in (zeros * f).coeffs + (f * zeros).coeffs)
    for prod in (f * g, g * f):
        for c in prod.coeffs:
            assert all(not u and k >= _EXACT for u, _, k in c.coords[1:])
    for x, y in zip(f.coeffs, g.coeffs):
        assert all(not u and k >= _EXACT for u, _, k in (x * y).coords[1:])


def reference_scalar_to_json(x):
    """jsonio.scalar_to_json as it was: val and prec through the Fractions of
    valuation(), precision() and frac_str."""
    prec = x.precision()
    return {"val": jsonio.frac_str(x.valuation()),
            "coords": [[str(u), str(v if u else 0)] for u, v, _ in x.coords],
            "prec": jsonio.frac_str(prec if prec != INF else None)}


# shift 30 capped at 2: a zero at finite precision in every coordinate
_ZERO_AT_PREC = (2, [(1, 1, 30)] * 3, 2)


@given(name=st.sampled_from(sorted(KERNEL_FIELDS)), draw=_scalar_draw,
       dead=st.sets(st.integers(0, 2), max_size=2))
@example(name="Q3(sqrt-3)", draw=_EXACT_LOW, dead=set())
@example(name="Q2[x]/(x^3+2x+2)", draw=_ZERO_AT_PREC, dead=set())
@example(name="Q2[x]/(x^3+2x+2)", draw=(2, _WIDE[1], -3), dead={0})
@example(name="Q5", draw=(0, _WIDE[1], 0), dead=set())
@settings(max_examples=300, deadline=None)
def test_scalar_to_json_matches_fraction_reference(name, draw, dead):
    """scalar_to_json on the integer gauge against the Fraction reference,
    over exact zeros, zeros at finite precision, negative valuations and
    Eisenstein coordinates."""
    fld = KERNEL_FIELDS[name]
    x = kernel_scalar(fld, draw, dead)
    assert jsonio.scalar_to_json(x) == reference_scalar_to_json(x)


def test_gauge_str_writes_m_over_e_as_frac_str():
    # e = 4 and 6 reach the gcd that prime e never needs
    for e in range(1, 7):
        for m in range(-30, 31):
            assert jsonio._gauge_str(m, e) == jsonio.frac_str(Fraction(m, e))
    assert jsonio._gauge_str(INF, 4) == jsonio.frac_str(None) == "inf"


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


@given(name=st.sampled_from(sorted(SHIFT_FIELDS)), draw=_mul_coefficient)
@settings(max_examples=200, deadline=None)
def test_int_valuation_is_e_times_valuation(name, draw):
    fld = SHIFT_FIELDS[name]
    c = coefficient_scalar(fld, *draw)
    assume(not c.is_zero())
    assert _int_valuation(c) == fld.e * c.valuation()


def fraction_polygon_vertices(f):
    """Reference polygon: the lower hull of the Fraction valuations."""
    return tuple(lower_hull([(i, c.valuation()) for i, c in enumerate(f.coeffs)
                             if not c.is_zero()]))


@given(name=st.sampled_from(sorted(SHIFT_FIELDS)),
       draws=st.lists(_mul_coefficient, min_size=1, max_size=12))
# a zero at finite precision between values of negative valuation
@example(name="Q3(sqrt-3)", draws=[(1, [(1, 1)] * 3, -2, 0), (2, [(1, 1)] * 3, 4, 1),
                                   (1, [(0, 1), (5, 1), (0, 1)], -1, 0)])
@settings(max_examples=200, deadline=None)
def test_valuation_polygon_matches_fraction_hull(name, draws):
    fld = SHIFT_FIELDS[name]
    f = TruncatedSeries(fld, "t", fld.zero(), [coefficient_scalar(fld, *c) for c in draws])
    if f.is_zero():
        with pytest.raises(ZeroSeries):
            valuation_polygon(f)
        return
    vertices = valuation_polygon(f).vertices
    assert vertices == fraction_polygon_vertices(f)
    assert all(type(v) is Fraction for _, v in vertices)


def test_horner_loops_reject_a_coefficient_of_another_field():
    q2, q3 = SHIFT_FIELDS["Q2"], SHIFT_FIELDS["Q3(sqrt-3)"]
    x = q2.from_rational(2)
    for stranger in (q3.one(), q3.zero()):
        with pytest.raises(ValueError):
            poly_eval([q2.one(), stranger], x)
        with pytest.raises(ValueError):
            recenter(TruncatedSeries(q2, "t", q2.zero(), [q2.one(), stranger]), x)
    with pytest.raises(ValueError):
        poly_eval([q2.one()], q3.one())
    # an equal field built separately is the same field
    twin = FieldDescriptor(2, digits=16)
    coeffs = [q2.one(), twin.from_rational(3)]
    assert poly_eval(coeffs, x).coords == full_poly_eval(coeffs, x)
    f = TruncatedSeries(q2, "t", q2.zero(), coeffs)
    assert [c.coords for c in recenter(f, x).coeffs] == full_width_recenter(f, x)


def full_width_horner(coeffs, x):
    """Reference Horner: every coefficient, the exact-zero tail included."""
    acc = TruncatedSeries.constant(x.field, x.var, x.center, x.field.zero(), x.order)
    for c in reversed(list(coeffs)):
        acc = acc * x + c
    return acc


def full_width_compose(f, g):
    """Reference composition: full-width Horner in g - center_f."""
    n = min(f.order, g.order)
    h = TruncatedSeries(g.field, g.var, g.center,
                        [g.coeffs[0] - f.center] + list(g.coeffs[1:n]))
    return full_width_horner(f.coeffs[:n], h)


def order_and_coords(f):
    return f.order, [c.coords for c in f.coeffs]


@given(name=st.sampled_from(sorted(SHIFT_FIELDS)),
       body=st.lists(_mul_coefficient, min_size=0, max_size=6),
       tail=st.lists(_tail_entry, min_size=0, max_size=6),
       xs=st.lists(_mul_coefficient, min_size=1, max_size=8),
       top=st.one_of(st.none(), st.lists(_mul_coefficient, min_size=1, max_size=8)))
# x has a coefficient of valuation -4
@example(name="Q2", body=[_UNIT], tail=[None, 3, None],
         xs=[_UNIT, (1, [(1, 4)] * 3, -2, 0), _UNIT], top=None)
# the top coefficient is the exact-zero series of order 3 < N = 5
@example(name="Q5", body=[_UNIT], tail=[None, None], xs=[_UNIT] * 5,
         top=[(0, [(1, 1)] * 3, 0, 0)] * 3)
@settings(max_examples=150, deadline=None)
def test_horner_and_compose_skip_exact_zero_scalar_tail(name, body, tail, xs, top):
    fld = SHIFT_FIELDS[name]
    coeffs = [coefficient_scalar(fld, *c) for c in body]
    coeffs += [fld.zero() if cap is None else fld.zero().with_precision(cap) for cap in tail]
    x = TruncatedSeries(fld, "t", fld.zero(), [coefficient_scalar(fld, *c) for c in xs])
    if top is not None:
        coeffs.append(TruncatedSeries(fld, "t", fld.zero(),
                                      [coefficient_scalar(fld, *c) for c in top]))
    assert order_and_coords(horner(coeffs, x)) == \
        order_and_coords(full_width_horner(coeffs, x))
    if top is None:
        f = TruncatedSeries(fld, "t", fld.zero(), coeffs or [fld.zero()])
        x0 = x.coeffs[0]
        g = x if x0.is_zero() or x0.valuation() > 0 else \
            x._wrap([fld.zero()] + list(x.coeffs[1:]))
        assert order_and_coords(compose(f, g)) == order_and_coords(full_width_compose(f, g))


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


def _reference_digit_sum(j, p):
    s = 0
    while j:
        s += j % p
        j //= p
    return s


def fraction_radius_estimate(f):
    """Reference estimator: both hulls over Fraction valuations, each widest
    edge's slope a Fraction; returns (exponent, stable)."""
    n = f.order
    lo = n // 2
    pts = [(j, Fraction(f.coeffs[j].valuation()))
           for j in range(lo, n) if not f.coeffs[j].is_zero()]
    if len(pts) < 2:
        return Fraction(0), False
    p = f.field.p
    width = Fraction(n - 1 - lo)
    raw = lower_hull(pts)
    for shift in (Fraction(0), Fraction(1, p - 1)):
        hull = raw if not shift else lower_hull(
            [(j, v + Fraction(j - _reference_digit_sum(j, p), p - 1)) for j, v in pts])
        best = None
        for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
            if best is None or x2 - x1 >= best[2] - best[1]:
                best = (Fraction(y2 - y1, x2 - x1), x1, x2)
        slope, x1, x2 = best
        if 2 * (x2 - x1) >= width and x2 >= n - 3:
            return max(Fraction(0), shift - slope), True
    (x1, y1), (x2, y2) = raw[-2], raw[-1]
    return max(Fraction(0), -Fraction(y2 - y1, x2 - x1)), False


# a ramp: coefficient j times pi^floor(j a / b), and divided by j! when set
_ramp = st.one_of(st.none(), st.tuples(st.integers(-3, 3), st.integers(1, 4), st.booleans()))


# unit runs under a factorial ramp are the tails that need the Legendre gauge
@given(name=st.sampled_from(sorted(SHIFT_FIELDS)),
       draws=st.one_of(st.lists(_mul_coefficient, min_size=1, max_size=24),
                       st.integers(2, 24).map(lambda k: [_UNIT] * k)),
       ramp=_ramp)
@example(name="Q2", draws=[_UNIT] * 20, ramp=(0, 1, True))
@example(name="Q3(sqrt-3)", draws=[_UNIT] * 24, ramp=(-1, 3, True))
@example(name="Q2[x]/(x^3+2x+2)", draws=[_UNIT] * 20, ramp=(1, 2, True))
@settings(max_examples=200, deadline=None)
def test_radius_estimate_matches_fraction_hulls(name, draws, ramp):
    fld = SHIFT_FIELDS[name]
    coeffs = [coefficient_scalar(fld, *c) for c in draws]
    if ramp is not None:
        a, b, factorial = ramp
        pi = fld.uniformizer()
        coeffs = [c * pi ** (j * a // b)
                  * fld.from_rational(Fraction(1, math.factorial(j)) if factorial else 1)
                  for j, c in enumerate(coeffs)]
    f = TruncatedSeries(fld, "t", fld.zero(), coeffs)
    est = radius_estimate(f)
    assert (est.exponent, est.stable) == fraction_radius_estimate(f)


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
