"""Shared fixtures: the two worked setups (p=2 and p=3 off-centered Frobenius)
plus closed-form series builders used as independent oracles."""

import math
from dataclasses import dataclass
from fractions import Fraction

import pytest

from padicdisc import (
    DiffModule,
    DiscMorphism,
    FieldDescriptor,
    PadicScalar,
    TruncatedSeries,
    fiber,
    local_solution,
    monic_relation,
    tree_over_point,
    vandermonde,
)
from padicdisc.diffmod import row_reduce
from padicdisc.series import mult_inverse

N = 32


def binom_rationals(alpha, n):
    out = [Fraction(1)]
    for j in range(1, n):
        out.append(out[-1] * (Fraction(alpha) - (j - 1)) / j)
    return out


def exp_rationals(n):
    return [Fraction(1, math.factorial(j)) for j in range(n)]


def zeta3(field):
    """The primitive cube root of unity (-1 + pi)/2 of Q_3(pi), pi^2 = -3."""
    return field.from_coords([Fraction(-1, 2), Fraction(1, 2)])


def constant_rank(columns) -> int:
    """Rank of the constant-term matrix over the field (independence check)."""
    if not columns:
        return 0
    rows = [[col.entries[i].coeffs[0] for col in columns]
            for i in range(len(columns[0].entries))]
    return len(row_reduce(rows, len(columns), lambda c: c, PadicScalar.inverse))


@dataclass
class Setup:
    field: FieldDescriptor
    phi: DiscMorphism
    fib: object
    tree: object
    solutions: tuple
    vd: object
    rel: object
    fp: TruncatedSeries          # f_p(s) = (1+s)^{1/p} truncation
    trivial: DiffModule


def _trivial_module(field, n):
    zero = TruncatedSeries.constant(field, "t", field.zero(), field.zero(), n)
    return DiffModule(rank=1, matrix=((zero,),), var="t", center=field.zero())


@pytest.fixture(scope="session")
def q2():
    return FieldDescriptor(2, digits=64)


@pytest.fixture(scope="session")
def q3pi():
    return FieldDescriptor(3, digits=64, poly=[3, 0, 1], e=2, f=1)


@pytest.fixture(scope="session")
def p2(q2):
    f = TruncatedSeries.from_rationals(q2, "t", 0, [0, 2, 1], order=N)
    phi = DiscMorphism(f=f, degree=2)
    fib = fiber(phi, q2.zero())
    tree = tree_over_point(phi, fib)
    us = tuple(local_solution(phi, a, q2.zero()) for a in fib.points)
    vd = vandermonde(fib, us)
    rel = monic_relation(phi, fib)
    f2 = TruncatedSeries.from_rationals(q2, "s", 0, binom_rationals(Fraction(1, 2), N))
    return Setup(field=q2, phi=phi, fib=fib, tree=tree, solutions=us, vd=vd,
                 rel=rel, fp=f2, trivial=_trivial_module(q2, N))


@pytest.fixture(scope="session")
def p3(q3pi):
    f = TruncatedSeries.from_rationals(q3pi, "t", 0, [0, 3, 3, 1], order=N)
    phi = DiscMorphism(f=f, degree=3)
    z3 = zeta3(q3pi)
    hints = [z3 - 1, z3 * z3 - 1, q3pi.zero()]
    fib = fiber(phi, q3pi.zero(), hints=hints)
    tree = tree_over_point(phi, fib)
    us = tuple(local_solution(phi, a, q3pi.zero()) for a in fib.points)
    vd = vandermonde(fib, us)
    rel = monic_relation(phi, fib)
    f3 = TruncatedSeries.from_rationals(q3pi, "s", 0, binom_rationals(Fraction(1, 3), N))
    return Setup(field=q3pi, phi=phi, fib=fib, tree=tree, solutions=us, vd=vd,
                 rel=rel, fp=f3, trivial=_trivial_module(q3pi, N))


@pytest.fixture(scope="session")
def p2_exp_module(q2):
    minus_one = TruncatedSeries.constant(q2, "t", q2.zero(), q2.from_rational(-1), N)
    return DiffModule(rank=1, matrix=((minus_one,),), var="t", center=q2.zero())


@pytest.fixture(scope="session")
def inv2f2(p2):
    return mult_inverse(p2.fp * 2)
