"""Differential precision oracle: every tracked digit is a true digit.

Each paper example runs twice at series order 24, with 32 and with 160
digits.  Every scalar in the 32-digit report outputs claims an absolute
precision ``prec``; the 160-digit run computes the same quantity with far
more digits, so the two must agree to at least that claim.  Coordinate i of
a scalar is m * p^v and carries the basis shift i/e, so it must agree to
valuation >= prec - i/e.  A ``prec`` of ``"inf"`` claims exact equality.
"""

from fractions import Fraction

import pytest

from padicdisc.cli import example_spec, run

ORDER = 24
LOW, HIGH = 32, 160


def _vp(x: Fraction, p: int):
    """p-adic valuation of a rational, None for zero."""
    if x == 0:
        return None
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def _is_scalar(x) -> bool:
    return isinstance(x, dict) and set(x) == {"val", "coords", "prec"}


def _scalar_pairs(low, high, path="outputs"):
    """(path, low scalar, high scalar) for every scalar, walking both reports
    in parallel; their shapes must match."""
    if _is_scalar(low):
        assert _is_scalar(high), path
        yield path, low, high
    elif isinstance(low, dict):
        assert isinstance(high, dict) and set(low) == set(high), path
        for key in low:
            yield from _scalar_pairs(low[key], high[key], "%s.%s" % (path, key))
    elif isinstance(low, list):
        assert isinstance(high, list) and len(low) == len(high), path
        for i, (x, y) in enumerate(zip(low, high)):
            yield from _scalar_pairs(x, y, "%s[%d]" % (path, i))


def _coordinate(pair, p: int) -> Fraction:
    m, v = pair
    return int(m) * Fraction(p) ** int(v)


@pytest.mark.parametrize("name", ["p2-trivial", "p2-exp", "p3-trivial"])
def test_tracked_precision_holds_against_more_digits(name):
    spec = example_spec(name, order=ORDER, digits=LOW)
    p = spec["field"]["p"]
    ext = spec["field"]["ext"]
    e = 1 if ext == "base" else ext["e"]        # Q_p or a totally ramified field
    low = run(spec)
    high = run(example_spec(name, order=ORDER, digits=HIGH))
    coordinates = 0
    violations = []
    for path, a, b in _scalar_pairs(low["outputs"], high["outputs"]):
        assert len(a["coords"]) == len(b["coords"]), path
        for i, (ca, cb) in enumerate(zip(a["coords"], b["coords"])):
            coordinates += 1
            diff = _coordinate(ca, p) - _coordinate(cb, p)
            if a["prec"] == "inf":
                if diff != 0:
                    violations.append((path, i, "claimed exact"))
                continue
            v = _vp(diff, p)
            if v is not None and v + Fraction(i, e) < Fraction(a["prec"]):
                violations.append((path, i, "agree to %s, claimed %s"
                                   % (v + Fraction(i, e), a["prec"])))
    assert coordinates > 0
    assert not violations, violations[:5]
