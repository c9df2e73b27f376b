"""Scalar arithmetic and Hensel lifting."""

import math
import sys
import time
from fractions import Fraction
from itertools import product as iter_product
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from padicdisc import (
    FieldDescriptor,
    INF,
    hensel_lift,
    jsonio,
)
from padicdisc.errors import (
    DivisionByZeroAtPrecision,
    HenselHypothesisFailed,
    NoConvergence,
    PadicDiscError,
    PrecisionPastExact,
)
from padicdisc import padic
from padicdisc.padic import (_EXACT, PadicScalar, _badd, _bfrom_fraction, _bfrom_power, _bmul,
                             _bnorm, _conv_plan, _fp_irreducible, _is_prime, _newton_mod, _ppow,
                             _ring_kernel, _vp_gcd, _vp_int, poly_derivative, poly_eval)
from conftest import zeta3


def vp_fraction(q, p):
    """Factorization oracle for rational valuations."""
    q = Fraction(q)
    if q == 0:
        return INF
    v = 0
    n = q.numerator
    while n % p == 0:
        n //= p
        v += 1
    d = q.denominator
    while d % p == 0:
        d //= p
        v -= 1
    return v


def test_from_rational_valuations(q2):
    assert q2.from_rational(1).valuation() == 0
    assert q2.from_rational(Fraction(1, 2)).valuation() == -1
    assert q2.from_rational(Fraction(-1, 8)).valuation() == \
        vp_fraction(Fraction(-1, 8), 2) == -3


def test_constructors_reject_precision_past_exact():
    # 1024 digits beyond valuation 3100 would end at 4124, past _EXACT: the
    # value would read as exact
    q2 = FieldDescriptor(2, digits=1024)
    big = Fraction(2 ** 3100, 3)
    with pytest.raises(PrecisionPastExact, match="reaches past precision"):
        q2.from_rational(big)
    with pytest.raises(PrecisionPastExact):
        q2.from_coords([big])
    q2pi = FieldDescriptor(2, digits=1024, poly=[2, 0, 1], e=2, f=1)
    with pytest.raises(PadicDiscError):
        q2pi.from_coords([1, big])
    # 1024 digits beyond valuation 3000 end at 4024, below _EXACT
    x = q2.from_rational(Fraction(2 ** 3000, 3))
    assert x.coords[0][1:] == (3000, 4024) and x.precision() == 4024
    assert q2pi.from_coords([1, 2 ** 3000]).coords[1] == (1, 3000, 4024)


def test_add_and_valuation(q2):
    two = q2.from_rational(2)
    four = two + two
    assert (four - 4).is_zero()
    assert four.valuation() == 2


def test_division_geometric_oracle(q2):
    one = q2.one()
    three = q2.from_rational(3)
    res = one / three
    # oracle: (1+2) * result == 1 mod 2^R
    assert (res * three - 1).is_zero()
    assert res.valuation() == 0


def test_roots_of_unity_multiply(q3pi):
    z = zeta3(q3pi)
    z2 = z * z
    assert (z * z2 - 1).is_zero()


def test_division_by_zero_at_precision(q2):
    with pytest.raises(DivisionByZeroAtPrecision):
        q2.one() / q2.zero()


def test_extension_inverse(q3pi):
    pi = q3pi.uniformizer()
    x = (pi + 2) * (pi - 5)
    assert (x / x - 1).is_zero()
    assert ((q3pi.one() / pi) * pi - 1).is_zero()


def test_eisenstein_valuations(q3pi):
    pi = q3pi.uniformizer()
    assert pi.valuation() == Fraction(1, 2)
    assert (pi * pi).valuation() == 1
    assert (pi * pi + 3).is_zero()
    assert (pi + 3).valuation() == Fraction(1, 2)


def test_with_precision_truncates(q3pi):
    z = zeta3(q3pi)
    rough = z.with_precision(1)
    assert rough.precision() <= Fraction(3, 2)
    assert (rough - z).valuation() >= 1 or (rough - z).is_zero()


# -- one valuation gauge: the Fraction forms it replaced, as references -----------

_GAUGE_FIELDS = {
    "Q3": FieldDescriptor(3, digits=12),
    "Q2(sqrt-2)": FieldDescriptor(2, digits=12, poly=[2, 0, 1], e=2, f=1),
    "Q3(sqrt-3)": FieldDescriptor(3, digits=12, poly=[3, 0, 1], e=2, f=1),
    "Q3(cbrt-3)": FieldDescriptor(3, digits=12, poly=[3, 0, 0, 1], e=3, f=1),
    "Q4": FieldDescriptor(2, digits=12, poly=[1, 1, 1], e=1, f=2),
}


def reference_shifts(fld):
    """The valuation i / e that coordinate i adds in an Eisenstein field, 0 otherwise."""
    if fld.kind == "eisenstein":
        return tuple(Fraction(i, fld.e) for i in range(fld.n))
    return (Fraction(0),) * fld.n


def reference_valuation(x):
    if len(x.coords) == 1:
        u, v, _ = x.coords[0]
        return Fraction(v) if u else INF
    best = INF
    for (u, v, k), s in zip(x.coords, reference_shifts(x.field)):
        if u:
            best = min(best, Fraction(v) + s)
    return best


def reference_precision(x):
    best = INF
    for (u, v, k), s in zip(x.coords, reference_shifts(x.field)):
        if k < _EXACT:
            best = min(best, Fraction(k) + s)
    return best


@given(name=st.sampled_from(sorted(_GAUGE_FIELDS)), data=st.data())
@settings(max_examples=300, deadline=None)
def test_valuation_and_precision_match_the_fraction_forms(name, data):
    fld = _GAUGE_FIELDS[name]
    x = PadicScalar(fld, tuple(data.draw(digits(fld.p)) for _ in range(fld.n)))
    assert x.valuation() == reference_valuation(x)
    assert x.precision() == reference_precision(x)
    assert type(x.valuation()) is type(reference_valuation(x))


_CAPS = [Fraction(c) for c in ("-5/2", "-2", "-3/2", "-1", "-1/2", "0", "1/2", "7/3")]


@pytest.mark.parametrize("cap", _CAPS, ids=str)
@pytest.mark.parametrize("name", sorted(_GAUGE_FIELDS))
def test_with_precision_cuts_at_a_ceiling(name, cap):
    """Coordinate i keeps the least k with k + i/e >= cap in an Eisenstein
    field (k >= cap otherwise), also where cap - i/e is negative and not an
    integer; a coordinate known to fewer digits keeps them."""
    fld = _GAUGE_FIELDS[name]
    p, n = fld.p, fld.n
    scalars = [[Fraction(1, 27)] * n,
               [Fraction(5 + i, 7) * Fraction(p) ** (i - 4) for i in range(n)],
               [Fraction(1 + p, p ** 2)] + [0] * (n - 1),
               [Fraction(p ** 3)] * n]
    for coords in scalars:
        x = fld.from_coords(coords)
        rough = [c if c[2] >= _EXACT else _bnorm(p, c[0], c[1], c[1] + 1) for c in x.coords]
        for y in (x, PadicScalar(fld, tuple(rough))):
            want = []
            for (u, v, k), s in zip(y.coords, reference_shifts(fld)):
                ceiling = math.ceil(cap - s)
                want.append((u, v, k) if k <= ceiling else reference_bnorm(p, u, v, ceiling))
            capped = y.with_precision(cap)
            assert capped.coords == tuple(want)
            assert capped.precision() >= min(cap, y.precision())


def test_with_precision_rounds_a_negative_cap_up(q3pi):
    q3 = FieldDescriptor(3, digits=12)
    assert q3.from_rational(Fraction(1, 27)).with_precision(Fraction(-3, 2)).coords == \
        ((1, -3, -1),)
    # coordinate 1 counts k + 1/2: at "prec" -1 it keeps k = -1, the least
    # k with k + 1/2 >= -1
    x = jsonio.scalar_from_json({"coords": [["1", "-3"], ["1", "-3"]], "prec": "-1"}, q3pi)
    assert x.coords == ((1, -3, -1), (1, -3, -1))


def reference_uniformizer_power(fld, k):
    """pi^k in an Eisenstein field, p^k otherwise, as fiber search built it."""
    if fld.kind == "eisenstein":
        return fld.uniformizer() ** k
    return fld.from_rational(Fraction(fld.p) ** k)


@pytest.mark.parametrize("fld", [
    FieldDescriptor(2, digits=8), FieldDescriptor(3, digits=8), FieldDescriptor(5, digits=8),
    FieldDescriptor(2, digits=64, poly=[1, 1, 1], e=1, f=2),
    FieldDescriptor(5, digits=64, poly=[-2, 0, 1], e=1, f=2),
    FieldDescriptor(2, digits=1024, poly=[1, 1, 1], e=1, f=2),
    FieldDescriptor(3, digits=64, poly=[3, 0, 1], e=2, f=1),
], ids=repr)
def test_uniformizer_powers_match_rational_powers(fld):
    for k in range(-6, 61):
        assert (fld.uniformizer() ** k).coords == reference_uniformizer_power(fld, k).coords


def test_pow_squares_no_further_than_its_last_bit(q3pi, monkeypatch):
    """x ** k squares once per bit below the top one and multiplies once per
    set bit past the lowest: x ** 1 is no product, x ** 8 three."""
    x = q3pi.from_rational(Fraction(5, 7))
    expected = {1: x.coords, 8: (x * x * x * x * x * x * x * x).coords}
    calls = []
    mul = FieldDescriptor._mul

    def counted(self, a, b):
        calls.append(None)
        return mul(self, a, b)

    monkeypatch.setattr(FieldDescriptor, "_mul", counted)
    for k, count in ((1, 0), (8, 3)):
        calls.clear()
        assert (x ** k).coords == expected[k]
        assert len(calls) == count


def test_muladd_kernel_is_compiled_once_per_plan():
    """Building the fields of the fibers workload compiles nothing; the
    first product over a field compiles the kernel of its p and product
    plan, which a field with the same polynomial and another digit cap
    shares, while another polynomial gets its own."""
    perfbench = str(Path(__file__).resolve().parent.parent / "perfbench")
    if perfbench not in sys.path:
        sys.path.append(perfbench)
    from fields import FIELDS
    compiled = padic._muladd_kernel.cache_info
    padic._muladd_kernel.cache_clear()
    assert len([jsonio.field_from_json(field.spec(64)) for field in FIELDS.values()]) == 8
    low, high = (FieldDescriptor(5, digits=digits, poly=[5, 0, 0, 1], e=3, f=1)
                 for digits in (8, 40))
    assert compiled().misses == 0
    for fld in (low, high):
        pi = fld.uniformizer()
        assert (pi * pi * pi + 5).is_zero()
    assert compiled().misses == 1 and high._kernel is low._kernel
    other = FieldDescriptor(5, digits=8, poly=[10, 0, 0, 1], e=3, f=1)
    pi = other.uniformizer()
    assert (pi * pi * pi + 10).is_zero()
    assert compiled().misses == 2 and other._kernel is not low._kernel


def reference_bfrom_fraction(p, q, rel):
    """q known to rel digits beyond its valuation, unit of the numerator
    times the inverse of the unit of the denominator."""
    if q == 0:
        return (0, _EXACT, _EXACT)
    num, den = q.numerator, q.denominator
    vn, vd = _vp_int(num, p), _vp_int(den, p)
    v = vn - vd
    if v + rel >= _EXACT:
        raise PrecisionPastExact("past exact")
    mod = p ** rel
    return ((num // p ** vn) % mod * pow((den // p ** vd) % mod, -1, mod) % mod, v, v + rel)


def reference_power_digit(p, m, e, rel):
    """m * p^e as the spec reader built it before _bfrom_power: one _bnorm,
    which clamps the precision at _EXACT, then PrecisionPastExact for a
    nonzero digit known modulo p^_EXACT."""
    if m == 0:
        return (0, _EXACT, _EXACT)
    x = _bnorm(p, m, e, e + _vp_int(m, p) + rel)
    if x[0] and x[2] >= _EXACT:
        raise PrecisionPastExact("past exact")
    return x


def _digit_or_error(make, *args):
    try:
        return make(*args)
    except PrecisionPastExact:
        return PrecisionPastExact


@given(p=st.sampled_from([2, 3, 5, 7]), rel=st.sampled_from([1, 8, 64, 1024]),
       m=st.integers(-10 ** 30, 10 ** 30), w=st.integers(0, 12),
       e=st.one_of(st.integers(-40, 40), st.integers(_EXACT - 1100, _EXACT + 40),
                   st.sampled_from([-10 ** 5, 10 ** 5])),
       den=st.integers(1, 10 ** 6), vd=st.integers(0, 12))
@settings(max_examples=400, deadline=None)
def test_bfrom_power_matches_the_rational_routes(p, rel, m, w, e, den, vd):
    """_bfrom_power and _bfrom_fraction against the routes they replaced:
    the spec reader's _bnorm route on (m, e), and the unit-by-unit rational
    route, also on rationals whose denominators p divides."""
    m *= _ppow(p, w)
    got = _digit_or_error(_bfrom_power, p, m, e, rel)
    want = _digit_or_error(reference_power_digit, p, m, e, rel)
    if m and e + _vp_int(m, p) >= _EXACT:
        # the _bnorm route clamped these to the exact zero
        assert got is PrecisionPastExact and want == (0, _EXACT, _EXACT)
    else:
        assert got == want
    if abs(e) < 2 * _EXACT:
        assert got == _digit_or_error(reference_bfrom_fraction, p,
                                      Fraction(m) * Fraction(p) ** e, rel)
    q = Fraction(m, den * p ** vd)
    assert _digit_or_error(_bfrom_fraction, p, q, rel) == \
        _digit_or_error(reference_bfrom_fraction, p, q, rel)


# -- hensel ---------------------------------------------------------------------

def test_hensel_cube_root_teichmueller():
    q7 = FieldDescriptor(7, digits=32)
    poly = [q7.from_rational(-1), q7.zero(), q7.zero(), q7.one()]
    z = hensel_lift(poly, q7.from_rational(2))
    # oracle: cube it at full precision, and it lifts the residue 2
    assert (z ** 3 - 1).is_zero()
    assert (z - 2).valuation() >= 1


def test_hensel_refines_rough_zeta3(q3pi):
    z = zeta3(q3pi)
    rough = z.with_precision(2)
    poly = [q3pi.one(), q3pi.one(), q3pi.one()]      # X^2 + X + 1
    lifted = hensel_lift(poly, rough)
    assert (lifted ** 3 - 1).is_zero()
    assert not (lifted - 1).is_zero()
    assert (lifted - z).is_zero()


def test_hensel_residual_vanishes_at_cap(q2):
    poly = [q2.from_rational(-17), q2.zero(), q2.one()]  # X^2 - 17 has 2-adic roots
    root = hensel_lift(poly, q2.from_rational(1))
    value = root * root - 17
    assert value.is_zero()
    # certified vanishing sits a few digits under the cap (divisions by g')
    assert value.precision() >= q2.digits - 8


@pytest.mark.parametrize("p, poly, e", [(7, None, 1), (3, [3, 0, 1], 2)])
def test_hensel_seed_root_claims_only_what_g_supports(p, poly, e):
    # X^3 - 1 over Q_7 (g' a unit) and over Q_3(sqrt-3) (v(g') = 1), its
    # coefficients known to precision 60 and the seed a 64-digit cube root of
    # unity: g(x0) vanishes at precision 60, and the lift may not claim more
    fld = FieldDescriptor(p, digits=64, poly=poly, e=e, f=1)
    g = [fld.from_rational(-1).with_precision(60), fld.zero(), fld.zero(),
         fld.one().with_precision(60)]
    x0 = zeta3(fld) if e == 2 else hensel_lift(
        [fld.from_rational(-1), fld.zero(), fld.zero(), fld.one()], fld.from_rational(2))
    r, d = poly_eval(g, x0), poly_eval(poly_derivative(g), x0)
    assert r.is_zero() and x0.precision() > r.precision() - d.valuation()
    root = hensel_lift(g, x0)
    assert root.precision() <= r.precision() - d.valuation()
    assert (root - x0).is_zero() and poly_eval(g, root).is_zero()


def test_hensel_hypothesis_failure_collapsed_roots(q2):
    # X^2 - 1: both roots collide mod 2, and an even seed certifies nothing
    poly = [q2.from_rational(-1), q2.zero(), q2.one()]
    with pytest.raises(HenselHypothesisFailed):
        hensel_lift(poly, q2.zero())
    with pytest.raises(HenselHypothesisFailed):
        hensel_lift(poly, q2.from_rational(2))


# The fields of the benchmark's fibers workload, as (p, poly, e, f).
LIFT_FIELDS = {
    "Q2": (2, None, 1, 1), "Q3": (3, None, 1, 1), "Q5": (5, None, 1, 1), "Q7": (7, None, 1, 1),
    "Q2(sqrt-2)": (2, [2, 0, 1], 2, 1), "Q3(sqrt-3)": (3, [3, 0, 1], 2, 1),
    "Q4": (2, [1, 1, 1], 1, 2), "Q25": (5, [-2, 0, 1], 1, 2),
}


def tracked_lift(g, x0):
    """The lift as a tracked Newton loop alone: the reference for hensel_lift.
    Once g(x) vanishes at precision it returns the step x - g(x)/g'(x)."""
    dg = poly_derivative(g)
    r, d = poly_eval(g, x0), poly_eval(dg, x0)
    x = x0
    for _ in range(x0.field.digits + 5):
        if r.is_zero():
            return x - r / d
        x = x - r / d
        r, d = poly_eval(g, x), poly_eval(dg, x)
    raise NoConvergence("residual did not vanish at the precision cap")


def lift_outcome(lift, g, x0):
    try:
        return lift(g, x0).coords
    except PadicDiscError as exc:
        return type(exc).__name__


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_hensel_lift_matches_tracked_loop(data):
    # A planted simple root in the residue class of the seed, the other roots
    # anywhere in the unit disc or, for a non-unit g'(x0), one of them in that
    # residue class; a seed at distance |pi|^m from the root (m = 0: the
    # residue representative), exact or rough; coefficient coordinates capped
    # at random precisions above m, so that g(x0) stays nonzero at precision,
    # often just above m, so that one tracked step can already end the loop.
    p, poly, e, f = LIFT_FIELDS[data.draw(st.sampled_from(sorted(LIFT_FIELDS)))]
    fld = FieldDescriptor(p, digits=data.draw(st.sampled_from([8, 64])), poly=poly, e=e, f=f)
    pi = fld.uniformizer()

    def element():
        return fld.from_coords(data.draw(st.lists(st.integers(0, p ** 6),
                                                  min_size=fld.n, max_size=fld.n)))

    residue = data.draw(st.integers(1, p ** f - 1))
    seed = fld.from_coords([residue // p ** i % p for i in range(f)] + [0] * (fld.n - f))
    root = seed + pi * element()
    roots = [root] + [element() for _ in range(data.draw(st.integers(1, 7)))]
    unit_derivative = data.draw(st.booleans())
    if not unit_derivative:
        roots[1] = root + pi * (1 + pi * element())
    m = data.draw(st.integers(0 if unit_derivative else 3, 6))
    x0 = seed if m == 0 else root + pi ** m * element()
    if data.draw(st.booleans()):
        x0 = x0.with_precision(Fraction(data.draw(st.integers(m + 1, e * fld.digits)), e))
    g = [fld.one()]
    for a in roots:
        g = [hi - a * lo for hi, lo in zip([fld.zero()] + g, g + [fld.zero()])]
    for i, c in enumerate(g):
        if data.draw(st.booleans()):
            cap = st.one_of(st.integers(m + 1, m + 4), st.integers(m + 1, fld.digits + 2))
            caps = data.draw(st.lists(cap, min_size=fld.n, max_size=fld.n))
            g[i] = PadicScalar(fld, tuple(_bnorm(p, u * p ** v if u else 0, 0, min(k, cap))
                                          for (u, v, k), cap in zip(c.coords, caps)))
    r, d = poly_eval(g, x0), poly_eval(poly_derivative(g), x0)
    assume(not r.is_zero() and not d.is_zero() and r.valuation() > 2 * d.valuation())
    assert lift_outcome(hensel_lift, g, x0) == lift_outcome(tracked_lift, g, x0)


def reference_polymulmod(a, b, g, m):
    """The exact integer product, long division by the monic g over Z, then
    each remainder coefficient modulo m."""
    out = [sum(x * b[k - i] for i, x in enumerate(a) if 0 <= k - i < len(b))
           for k in range(len(a) + len(b) - 1)]
    dg = len(g) - 1
    for k in range(len(out) - 1, dg - 1, -1):
        c = out[k]
        for i, q in enumerate(g):
            out[k - dg + i] -= c * q
    return [c % m for c in out[:dg]]


def reduced_poly(poly, m):
    """The monic defining polynomial modulo m, X for Q_p."""
    if poly is None:
        return (0, 1)
    return tuple(Fraction(c).numerator * pow(Fraction(c).denominator, -1, m) % m for c in poly)


def list_newton_mod(g, dg, x, y):
    """Reference for _newton_mod: the Newton iteration on coordinate lists in
    (Z/p^K)[X]/(poly), by Horner on reference_polymulmod."""
    fld = x.field
    p, K = fld.p, fld.digits + 2
    mod = p ** K
    ring = reduced_poly(fld.poly, mod)

    def ints(s):
        return [u * p ** v % mod if u else 0 for u, v, _ in s.coords]

    def mul(a, b):
        return reference_polymulmod(a, b, ring, mod)

    def horner(coeffs, x):
        acc = [0] * fld.n
        for c in reversed(coeffs):
            acc = [(a + b) % mod for a, b in zip(mul(acc, x), c)]
        return acc

    g, dg, x, y = [ints(c) for c in g], [ints(c) for c in dg], ints(x), ints(y)
    for _ in range((K - 1).bit_length() + 2):
        gx = horner(g, x)
        if not any(gx):
            return tuple(x)
        x = [(a - b) % mod for a, b in zip(x, mul(gx, y))]
        dy = mul(horner(dg, x), y)
        y = mul(y, [(2 - dy[0]) % mod] + [-c % mod for c in dy[1:]])
    return None


# the fields of the benchmark's fibers workload and one whose product plan
# has common denominator 3, which no workload field has
NEWTON_FIELDS = dict(LIFT_FIELDS, **{"Q2(pi^2+2pi/3+2)": (2, [2, Fraction(2, 3), 1], 2, 1)})


@given(name=st.sampled_from(sorted(NEWTON_FIELDS)), digits=st.sampled_from([1, 4, 8, 64]),
       seed=st.lists(st.integers(0, 7 ** 6), min_size=2, max_size=2),
       others=st.lists(st.lists(st.integers(0, 7 ** 6), min_size=2, max_size=2), max_size=7),
       planted=st.booleans(), inverse_digits=st.integers(0, 3))
@example(name="Q2", digits=8, seed=[3, 0], others=[[2, 0], [4, 0]], planted=True,
         inverse_digits=1)
@example(name="Q5", digits=8, seed=[3, 0], others=[[2, 0], [4, 0]], planted=False,
         inverse_digits=0)
@settings(max_examples=300, deadline=None)
def test_newton_mod_int_path_matches_list_path(name, digits, seed, others, planted,
                                               inverse_digits):
    # g has the roots seed and others; a planted seed is a simple root modulo
    # pi, the others lying in other residue classes.  y is 1/g'(x) modulo
    # p^inverse_digits, or 1 for inverse_digits = 0: a seed that is no root
    # or a poor y make the iteration miss its step bound and give None.
    p, poly, e, f = NEWTON_FIELDS[name]
    fld = FieldDescriptor(p, digits=digits, poly=poly, e=e, f=f)
    seed, others = seed[:fld.n], [a[:fld.n] for a in others]
    if planted:
        others = [a for a in others if any((x - s) % p for x, s in zip(a[:f], seed))]
    g = [fld.one()]
    for a in [seed] + others:
        g = [hi - fld.from_coords(a) * lo for hi, lo in zip([fld.zero()] + g, g + [fld.zero()])]
    dg = poly_derivative(g)
    x = fld.from_coords(seed if planted else [seed[0] + 1] + seed[1:])
    d = poly_eval(dg, x)
    y = fld.one() if inverse_digits == 0 or d.is_zero() or d.valuation() else \
        (1 / d).with_precision(inverse_digits)
    assert _newton_mod(g, dg, x, y) == list_newton_mod(g, dg, x, y)


# p and the defining polynomial of each field of the benchmark's fibers
# workload (Q_p itself reduces modulo X), as _newton_mod and the residue
# tests read them, and X^2 + X/3 + 1 over p = 2, whose plan has common
# denominator 3
_BENCH_RINGS = ((2, (0, 1)), (3, (0, 1)), (5, (0, 1)), (7, (0, 1)),
                (2, (2, 0, 1)), (3, (3, 0, 1)), (2, (1, 1, 1)), (5, (-2, 0, 1)),
                (2, (1, Fraction(1, 3), 1)))


_pair = st.lists(st.integers(-2 ** 300, 2 ** 300), min_size=2, max_size=2)


@given(ring=st.sampled_from(_BENCH_RINGS), big=st.booleans(), a=_pair, b=_pair, c=_pair)
@example(ring=(2, (1, Fraction(1, 3), 1)), big=True, a=[-1, 3], b=[2 ** 300 + 1, -7], c=[5, 0])
@settings(max_examples=300, deadline=None)
def test_ring_kernel_matches_exact_division(ring, big, a, b, c):
    """The compiled a b + c of a product plan against the exact product
    reduced by long division, plus c, modulo p (the residue tests) and p^66
    (the Newton iteration of hensel_lift); D = den^-1 modulo M."""
    p, poly = ring
    m = p ** 66 if big else p
    g = reduced_poly(poly, m)
    a, b, c = (x[:len(g) - 1] for x in (a, b, c))
    den, _, plans = _conv_plan(p, poly)
    kernel = _ring_kernel(den, tuple(fold for fold, _, _ in plans))
    assert kernel(a, b, c, m, pow(den, -1, m)) == \
        tuple((x + y) % m for x, y in zip(reference_polymulmod(a, b, g, m), c))


_DERIVATIVE_FIELDS = {
    "Q2": FieldDescriptor(2, digits=20),
    "Q3(sqrt-3)": FieldDescriptor(3, digits=12, poly=[3, 0, 1], e=2, f=1),
    "Q4": FieldDescriptor(2, digits=16, poly=[1, 1, 1], e=1, f=2),
}
# a coefficient: exact or not, then per coordinate num / den times p^shift
_derivative_coefficient = st.tuples(
    st.booleans(), st.lists(st.tuples(st.integers(-40, 40), st.sampled_from([1, 2, 3, 9]),
                                      st.integers(-2, 3)), min_size=2, max_size=2))


@given(name=st.sampled_from(sorted(_DERIVATIVE_FIELDS)),
       draws=st.lists(_derivative_coefficient, max_size=10))
@example(name="Q3(sqrt-3)", draws=[(True, [(1, 1, 0)] * 2)] * 5)
@settings(max_examples=200, deadline=None)
def test_poly_derivative_matches_rational_multiplier(name, draws):
    """poly_derivative takes j from the field's integer table: the digits of
    c * fld.from_rational(j), exact coefficients included.  The product of
    an exact nonzero c with j is known to the field's digits only."""
    fld = _DERIVATIVE_FIELDS[name]
    coeffs = []
    for exact, coords in draws:
        c = fld.from_coords([Fraction(num, den) * Fraction(fld.p) ** shift
                             for num, den, shift in coords[:fld.n]])
        if exact:
            c = PadicScalar(fld, tuple((u, v, _EXACT) if u else (u, v, k) for u, v, k in c.coords))
        coeffs.append(c)
    got = poly_derivative(coeffs)
    assert [c.coords for c in got] == \
        [(c * fld.from_rational(j)).coords for j, c in enumerate(coeffs[1:], 1)]
    for c, d in zip(coeffs[1:], got):
        assert d.precision() < INF or c.is_exact_zero()


def test_integer_table_grows_to_the_largest_degree():
    fld = FieldDescriptor(3, digits=12, poly=[3, 0, 1], e=2, f=1)
    assert fld.one().coords == fld.from_rational(1).coords
    poly_derivative([fld.from_rational(k) for k in range(6)])
    assert len(fld._integers) == 6
    # the table holds coordinate tuples, which point at no field
    assert fld._integers == [fld.from_rational(j).coords for j in range(6)]


@pytest.mark.parametrize("name", sorted(_GAUGE_FIELDS))
def test_division_by_int_multiplies_by_the_inverse_table(name):
    """x / j for an int j >= 1 multiplies by the field's table entry for
    1/j, the tuple _inv computes from from_rational(j), so the quotient has
    the digits of that product, exact x included."""
    fld = _GAUGE_FIELDS[name]
    coords = [Fraction(5, 7), Fraction(-18, 11), Fraction(4, 3)][:fld.n]
    dense = fld.from_coords(coords)
    exact = PadicScalar(fld, tuple((u, v, _EXACT) for u, v, _ in dense.coords))
    for j in range(1, 65):
        inverse = PadicScalar(fld, fld._inv(fld.from_rational(j).coords))
        for x in (dense, exact, fld.zero(), fld.one()):
            assert (x / j).coords == (x * inverse).coords
    table = fld._int_inverses
    assert all(table[j] == fld._inv(fld.from_rational(j).coords) for j in range(1, 65))
    # a large divisor adds its own entry, not a table up to it
    size = len(table)
    assert (fld.one() / 10 ** 9).coords == fld._inv(fld.from_rational(10 ** 9).coords)
    assert len(table) == size + 1


def test_hensel_root_claims_only_what_g_supports_after_a_step():
    # A lift of the fibers workload at digits 8 (seed 5, one of its first 120
    # jobs) over Q_2(sqrt-2): one step from the seed 1 gives x1, where g(x1)
    # vanishes at precision 3 only, while coordinate 1 of x1 claims p^4
    fld = FieldDescriptor(2, digits=8, poly=[2, 0, 1], e=2, f=1)
    g = [PadicScalar(fld, c) for c in (
        ((0, 3, 3), (13, 0, 4)), ((45, 0, 6), (15, 0, 4)), ((15, 0, 6), (13, 0, 7)),
        ((1, 8, 9), (113, 0, 7)), ((65, 2, 9), (105, 2, 10)), ((169, 4, 12), (19, 2, 10)),
        ((5, 7, 13), (253, 6, 14)), ((0, 4091, 4091), (1, 6, 14)))]
    x1 = PadicScalar(fld, ((1, 0, 3), (1, 1, 4)))
    r = poly_eval(g, x1)
    assert r.is_zero() and r.coords == ((0, 3, 3), (0, 3, 3))
    root = hensel_lift(g, PadicScalar(fld, ((1, 0, 8), (0, _EXACT, _EXACT))))
    assert root.coords == ((1, 0, 3), (1, 1, 3))
    assert root.coords == tracked_lift(g, x1).coords


def test_unramified_quadratic_arithmetic():
    # Q_2(w) with w^2 + w + 1 = 0: residue field F_4, valuation = min of coords
    q4 = FieldDescriptor(2, digits=32, poly=[1, 1, 1], e=1, f=2)
    w = q4.from_coords([0, 1])
    assert w.valuation() == 0
    assert ((1 + w) * w + 1).is_zero()          # w^2 + w = -1
    assert (w ** 3 - 1).is_zero()               # norm-1 unit of order 3
    assert ((q4.one() / w) * w - 1).is_zero()
    mixed = q4.from_coords([2, 4])
    assert mixed.valuation() == 1


def test_unramified_rejects_reducible():
    with pytest.raises(ValueError):
        FieldDescriptor(2, digits=32, poly=[1, 0, 1], e=1, f=2)   # X^2+1 = (X+1)^2 mod 2


def test_eisenstein_rejects_non_eisenstein():
    with pytest.raises(ValueError):
        FieldDescriptor(3, digits=32, poly=[9, 0, 1], e=2, f=1)   # v(9) = 2, slope 1 not 1/2


def test_large_prime_field_is_decided_quickly():
    start = time.perf_counter()
    assert FieldDescriptor(2 ** 61 - 1).p == 2 ** 61 - 1
    assert time.perf_counter() - start < 1.0
    with pytest.raises(ValueError):
        FieldDescriptor(2 ** 61 + 1)                               # divisible by 3
    with pytest.raises(ValueError):
        FieldDescriptor(2 ** 127 - 1)                              # beyond the decided range


def test_is_prime_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))

    assert [n for n in range(3000) if _is_prime(n)] == [n for n in range(3000) if trial(n)]
    # strong pseudoprimes to the first 4, 9 and 12 prime bases
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not _is_prime(n)


def test_fp_irreducible_matches_trial_division():
    # every monic g of degree <= 6 over F_2, <= 5 over F_3, <= 4 over F_5 and
    # <= 3 over F_7 and F_11: reducible iff a monic h of degree <= n/2 divides it
    def monic(p, n):
        return [list(low) + [1] for low in iter_product(range(p), repeat=n)]

    def divides(h, g, p):
        r = list(g)
        for k in range(len(g) - len(h), -1, -1):
            c = r[k + len(h) - 1]
            for i, x in enumerate(h):
                r[k + i] = (r[k + i] - c * x) % p
        return not any(r)

    count = 0
    for p, top in ((2, 6), (3, 5), (5, 4), (7, 3), (11, 3)):
        for n in range(1, top + 1):
            factors = [h for k in range(1, n // 2 + 1) for h in monic(p, k)]
            for g in monic(p, n):
                count += 1
                assert _fp_irreducible(g, p) == (not any(divides(h, g, p) for h in factors)), g
    assert count == 3131


# -- algebraic properties ---------------------------------------------------------

rationals = st.fractions(min_value=-200, max_value=200, max_denominator=64)


@given(a=rationals, b=rationals)
@settings(max_examples=60, deadline=None)
def test_ultrametric_inequality(a, b):
    q2 = FieldDescriptor(2, digits=48)
    x, y = q2.from_rational(a), q2.from_rational(b)
    s = x + y
    vx, vy, vs = x.valuation(), y.valuation(), s.valuation()
    assert vs >= min(vx, vy)
    if vx != vy:
        assert vs == min(vx, vy)


@given(a=rationals, b=rationals)
@settings(max_examples=60, deadline=None)
def test_multiplicative_valuation(a, b):
    q3 = FieldDescriptor(3, digits=48)
    x, y = q3.from_rational(a), q3.from_rational(b)
    if x.is_zero() or y.is_zero():
        assert (x * y).is_zero()
    else:
        assert (x * y).valuation() == x.valuation() + y.valuation()


@given(a=rationals, b=rationals, c=rationals)
@settings(max_examples=40, deadline=None)
def test_field_axioms_at_precision(a, b, c):
    q5 = FieldDescriptor(5, digits=40)
    x, y, z = (q5.from_rational(v) for v in (a, b, c))
    assert ((x * y) * z - x * (y * z)).is_zero()
    assert (x * (y + z) - (x * y + x * z)).is_zero()
    if not x.is_zero():
        assert (x * x.inverse() - 1).is_zero()


@given(vals=st.lists(rationals, min_size=3, max_size=6),
       ops=st.lists(st.sampled_from("+-*/"), min_size=2, max_size=5))
@settings(max_examples=60, deadline=None)
def test_soundness_against_exact_rationals(vals, ops):
    # fold a random expression both ways: the tracked result must agree with
    # exact rational arithmetic at its claimed precision
    q2 = FieldDescriptor(2, digits=40)
    exact = Fraction(vals[0])
    tracked = q2.from_rational(vals[0])
    for op, v in zip(ops, vals[1:]):
        v = Fraction(v)
        if op == "/" and v == 0:
            continue
        if op == "+":
            exact, tracked = exact + v, tracked + q2.from_rational(v)
        elif op == "-":
            exact, tracked = exact - v, tracked - q2.from_rational(v)
        elif op == "*":
            exact, tracked = exact * v, tracked * q2.from_rational(v)
        else:
            exact, tracked = exact / v, tracked / q2.from_rational(v)
    assert (tracked - q2.from_rational(exact)).is_zero()
    if exact != 0 and not tracked.is_zero():
        assert tracked.valuation() == vp_fraction(exact, 2)


@given(a0=st.integers(-20, 20), a1=st.integers(-20, 20),
       b0=st.integers(-20, 20), b1=st.integers(-20, 20))
@settings(max_examples=40, deadline=None)
def test_extension_ultrametric(q3pi, a0, a1, b0, b1):
    x = q3pi.from_coords([a0, a1])
    y = q3pi.from_coords([b0, b1])
    s = x + y
    if not s.is_zero():
        assert s.valuation() >= min(x.valuation(), y.valuation())
    if not x.is_zero() and not y.is_zero():
        assert (x * y).valuation() == x.valuation() + y.valuation()


# -- digit helpers against the normalize-every-result reference --------------------

def reference_bnorm(p, m, e, k):
    """(u, v, k) for m * p^e known modulo p^k, normalized step by step."""
    k = min(k, _EXACT)
    if m == 0 or e >= k:
        return (0, k, k)
    m %= p ** (k - e)
    if m == 0:
        return (0, k, k)
    w = 0
    while m % p ** (w + 1) == 0:
        w += 1
    v = e + w
    return ((m // p ** w) % p ** (k - v), v, k)


def reference_badd(p, x, y):
    (ux, vx, kx), (uy, vy, ky) = x, y
    k = min(kx, ky)
    if not ux and not uy:
        return (0, k, k)
    e = min(vx, vy)
    return reference_bnorm(p, ux * p ** (vx - e) + uy * p ** (vy - e), e, k)


def reference_bmul(p, x, y):
    (ux, vx, kx), (uy, vy, ky) = x, y
    if (not ux and kx >= _EXACT) or (not uy and ky >= _EXACT):
        # 0 * y = 0: the exact zero absorbs, whatever the valuation of y
        return (0, _EXACT, _EXACT)
    k = min(vx + ky, vy + kx)
    if not ux or not uy:
        return (0, min(k, _EXACT), min(k, _EXACT))
    return reference_bnorm(p, ux * uy, vx + vy, k)


def is_normal_digit(p, x):
    u, v, k = x
    if not u:
        return v == k <= _EXACT
    return u % p != 0 and 0 < u < p ** (k - v) and k <= _EXACT


@st.composite
def digits(draw, p):
    """A normalized digit: zero at a precision, or u * p^v known modulo p^k,
    exact (k = _EXACT) or not, some of valuation near _EXACT."""
    v = draw(st.one_of(st.integers(-8, 40), st.integers(_EXACT - 40, _EXACT - 1)))
    k = _EXACT if v > 40 or draw(st.booleans()) else v + draw(st.integers(1, 70))
    if draw(st.integers(0, 5)) == 0:
        return (0, k, k)
    u = draw(st.integers(1, p ** (k - v) - 1))
    return (u + 1 if u % p == 0 else u, v, k)


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_digit_helpers_match_reference(data):
    p = data.draw(st.sampled_from([2, 3, 5, 7]))
    x, y = data.draw(digits(p)), data.draw(digits(p))
    assert is_normal_digit(p, x) and is_normal_digit(p, y)
    m = data.draw(st.integers(-10 ** 9, 10 ** 9)) * p ** data.draw(st.integers(0, 12))
    e = data.draw(st.integers(-8, 40))
    k = data.draw(st.one_of(st.integers(-8, 90), st.sampled_from([_EXACT, _EXACT + 9])))
    for got, want in ((_bmul(p, x, y), reference_bmul(p, x, y)),
                      (_badd(p, x, y), reference_badd(p, x, y)),
                      (_bnorm(p, m, e, k), reference_bnorm(p, m, e, k))):
        assert got == want
        assert is_normal_digit(p, got)


# m = sign * unit * p^w with w up to 300 and e < 0, at precisions below, at
# and past _EXACT, so that p^(k - e) also lies past the cached powers of p
@given(p=st.sampled_from([2, 3, 5, 7]), w=st.integers(0, 300),
       unit=st.integers(1, 10 ** 40), sign=st.sampled_from([1, -1]), e=st.integers(-6000, -1),
       k=st.one_of(st.sampled_from([_EXACT, _EXACT + 1, 2 * _EXACT]),
                   st.integers(1, _EXACT - 1)))
@example(p=3, w=300, unit=2, sign=-1, e=-5000, k=_EXACT)
@example(p=7, w=299, unit=7 ** 40 + 1, sign=1, e=-1, k=300)
# a strip past the cached powers of p
@example(p=3, w=5000, unit=2, sign=1, e=-6000, k=_EXACT)
@settings(max_examples=300, deadline=None)
def test_bnorm_strips_long_valuations(p, w, unit, sign, e, k):
    """_bnorm against reference_bnorm on digits with many factors of p to
    strip, the unit itself possibly divisible by p."""
    m = sign * unit * p ** w
    got = _bnorm(p, m, e, k)
    assert got == reference_bnorm(p, m, e, k)
    assert is_normal_digit(p, got)


def reference_vp_int(n, p):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


@given(p=st.sampled_from([2, 3, 5, 7, 1000003]), w=st.integers(0, 300),
       unit=st.one_of(st.integers(1, 10 ** 6), st.integers(1, 10 ** 400)),
       sign=st.sampled_from([1, -1]))
@example(p=3, w=0, unit=3 ** 1000 * 2, sign=1)
@example(p=2, w=5000, unit=1, sign=-1)
@settings(max_examples=300, deadline=None)
def test_vp_int_matches_division_loop(p, w, unit, sign):
    n = sign * unit * p ** w
    assert _vp_int(n, p) == reference_vp_int(n, p)


@pytest.mark.parametrize("skew", [0.97, 1.03])
def test_vp_gcd_walks_an_estimate_off_to_the_exact_power(monkeypatch, skew):
    """w is checked against the powers of p, so an estimate of w that a
    skewed log2 puts several steps off still ends at w."""
    log2 = math.log2
    monkeypatch.setattr(padic.math, "log2", lambda x: log2(x) * skew)
    for p in (3, 5, 7):
        for w in (0, 1, 2, 50, 300):
            assert _vp_gcd(p, -2 * p ** w, p ** (w + 5)) == (p ** w, w)


@pytest.mark.parametrize("p", [2, 3, 5, 1000003])
def test_vp_int_of_zero_raises(p):
    with pytest.raises(ValueError):
        _vp_int(0, p)
