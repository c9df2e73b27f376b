"""Scalar arithmetic, Hensel lifting, and roots of unity."""

import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from padicdisc import (
    FieldDescriptor,
    INF,
    hensel_lift,
    root_of_unity,
)
from padicdisc.errors import (
    DivisionByZeroAtPrecision,
    HenselHypothesisFailed,
    UnsupportedRoot,
)
from padicdisc.padic import _is_prime


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
    z = root_of_unity(3, q3pi)
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
    z = root_of_unity(3, q3pi)
    rough = z.with_precision(1)
    assert rough.precision() <= Fraction(3, 2)
    assert (rough - z).valuation() >= 1 or (rough - z).is_zero()


# -- hensel ---------------------------------------------------------------------

def test_hensel_cube_root_teichmueller():
    q7 = FieldDescriptor(7, digits=32)
    poly = [q7.from_rational(-1), q7.zero(), q7.zero(), q7.one()]
    z = hensel_lift(poly, q7.from_rational(2))
    # oracle: cube it at full precision, and it lifts the residue 2
    assert (z ** 3 - 1).is_zero()
    assert (z - 2).valuation() >= 1


def test_hensel_refines_rough_zeta3(q3pi):
    z = root_of_unity(3, q3pi)
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


def test_hensel_hypothesis_failure_collapsed_roots(q2):
    # X^2 - 1: both roots collide mod 2, and an even seed certifies nothing
    poly = [q2.from_rational(-1), q2.zero(), q2.one()]
    with pytest.raises(HenselHypothesisFailed):
        hensel_lift(poly, q2.zero())
    with pytest.raises(HenselHypothesisFailed):
        hensel_lift(poly, q2.from_rational(2))


def test_root_of_unity_cases(q2, q3pi):
    assert (root_of_unity(2, q2) + 1).is_zero()
    z = root_of_unity(3, q3pi)
    # oracle: ((-1+pi)/2)^3 = 1 using pi^2 = -3
    pi = q3pi.uniformizer()
    explicit = (pi - 1) / 2
    assert (z - explicit).is_zero()
    assert (explicit ** 3 - 1).is_zero()
    with pytest.raises(UnsupportedRoot):
        root_of_unity(3, q2)


def test_root_of_unity_primitive():
    q13 = FieldDescriptor(13, digits=20)
    z = root_of_unity(4, q13)
    assert (z ** 4 - 1).is_zero()
    for m in range(1, 4):
        assert not (z ** m - 1).is_zero()


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
