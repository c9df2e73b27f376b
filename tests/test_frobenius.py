"""A closed-form oracle for the whole pipeline: Frobenius pushforwards of
(1+t)^alpha.

Both paper examples push a module forward along phi(t) = (1+t)^p - 1: over
Q_2 for p2-trivial and over Q_3(sqrt(-3)) for p3-trivial.  With the module
A = alpha/(1+t), given as the bare list alpha(-1)^k, k < N, the solution is
(1+t)^alpha, and phi_*(M_alpha) is the direct sum of the M_{(alpha+i)/p},
i < p.  Dwork's radius exponent of (1+s)^beta is -v_p(beta) + 1/(p-1) when
v_p(beta) < 0, so for v_p(alpha) < 0 the optimal basis has a known multiset
of radii.  It is computed here in Fraction arithmetic, not by the library.
"""

from fractions import Fraction

import pytest

from padicdisc.cli import example_spec, run

FAMILIES = {"p2-trivial": (2, ["1/2", "1/4", "3/2"]),
            "p3-trivial": (3, ["1/3", "1/9", "4/3"])}


def _vp(q: Fraction, p: int) -> int:
    v, num, den = 0, q.numerator, q.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def pushforward_radii(alpha: Fraction, p: int) -> list:
    """Sorted radius exponents of the M_{(alpha+i)/p}, i < p, each
    -v_p(beta) + 1/(p-1); every beta has v_p(beta) < 0 when v_p(alpha) < 0."""
    betas = [(alpha + i) / p for i in range(p)]
    assert all(_vp(beta, p) < 0 for beta in betas)
    return sorted(-_vp(beta, p) + Fraction(1, p - 1) for beta in betas)


def test_closed_form_by_hand():
    assert pushforward_radii(Fraction(1, 2), 2) == [3, 3]
    assert pushforward_radii(Fraction(1, 4), 2) == [4, 4]
    assert pushforward_radii(Fraction(1, 9), 3) == [Fraction(7, 2)] * 3


@pytest.mark.parametrize("order", [24, 32])
@pytest.mark.parametrize("name, alpha", [(name, alpha) for name, (_, alphas) in
                                         sorted(FAMILIES.items()) for alpha in alphas])
def test_pushforward_of_a_power_of_one_plus_t(name, alpha, order):
    p = FAMILIES[name][0]
    alpha = Fraction(alpha)
    spec = example_spec(name, order=order)
    spec["module"] = {"rank": 1, "A": [[[str(alpha * (-1) ** k) for k in range(order)]]]}
    report = run(spec)
    assert report["errors"] == []
    assert len(report["checks"]) == 10 and all(c["passed"] for c in report["checks"])
    columns = report["outputs"]["optimal"]["columns"]
    predicted = [Fraction(c["predicted_q"]) for c in columns]
    assert sorted(predicted) == pushforward_radii(alpha, p)
    assert [Fraction(c["estimated_q"]) for c in columns] == predicted
