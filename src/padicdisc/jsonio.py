"""JSON encodings for scalars, fields, series, polygons, trees, and modules,
and the writer of their text."""

from __future__ import annotations

import math
import re
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from .errors import PrecisionPastExact, SchemaError
from .padic import (INF, FieldDescriptor, PadicScalar, _bfrom_power, _int_precision,
                    _int_valuation)
from .series import TruncatedSeries, ValuationPolygon


def frac_str(x) -> str:
    if x == INF or x is None:
        return "inf"
    x = Fraction(x)
    return "%d/%d" % (x.numerator, x.denominator) if x.denominator != 1 else str(x.numerator)


# Largest rational literal a spec may carry: its length in characters, the
# size of its decimal exponent, and 4 bits a digit for a JSON integer.
# Fraction builds "1e2000000" in full, which alone takes a second.
MAX_LITERAL_DIGITS = 4096
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")
_DECIMAL_INT = re.compile(r"[-+]?[0-9]+")


def parse_frac(s) -> Fraction:
    """A rational from a string, an int or a float; SchemaError for anything
    else, a bool included, and for a literal past MAX_LITERAL_DIGITS before
    it is built."""
    if isinstance(s, bool):
        raise SchemaError("not a rational: %r" % (s,))
    if isinstance(s, str):
        exponent = _EXPONENT.search(s)
        too_big = len(s) > MAX_LITERAL_DIGITS or (
            exponent is not None and abs(int(exponent.group(1))) > MAX_LITERAL_DIGITS)
    else:
        too_big = isinstance(s, int) and s.bit_length() > 4 * MAX_LITERAL_DIGITS
    if too_big:
        raise SchemaError("rational literal beyond %d digits" % MAX_LITERAL_DIGITS)
    try:
        return Fraction(s)
    except (TypeError, ValueError, ArithmeticError):
        raise SchemaError("not a rational: %r" % (s,))


# Digits of precision when a field spec gives none.
DEFAULT_DIGITS = 64


def field_from_json(d: dict) -> FieldDescriptor:
    """Raises SchemaError on a poly entry that is not a rational, and
    InvalidField on arguments that describe no supported field."""
    ext = d.get("ext", "base")
    digits = int(d.get("digits", DEFAULT_DIGITS))
    if ext == "base":
        return FieldDescriptor(int(d["p"]), digits=digits)
    return FieldDescriptor(int(d["p"]), digits=digits,
                           poly=[parse_frac(c) for c in ext["poly"]],
                           e=int(ext["e"]), f=int(ext["f"]))


def _gauge_str(m, e: int) -> str:
    """frac_str(m / e) for an int m, or INF."""
    if m == INF:
        return "inf"
    g = math.gcd(m, e)
    return str(m // g) if g == e else "%d/%d" % (m // g, e // g)


def scalar_to_json(x: PadicScalar) -> dict:
    # val and prec on the integer gauge e * v + i (i the coordinate index in
    # an Eisenstein field, 0 otherwise), divided by e only when written: the
    # strings of valuation() and precision(), without their Fractions
    e = x.field.e
    return {"val": _gauge_str(_int_valuation(x), e),
            "coords": [[str(u), str(v if u else 0)] for u, v, _ in x.coords],
            "prec": _gauge_str(_int_precision(x), e)}


def scalar_from_json(d, fld: FieldDescriptor) -> PadicScalar:
    """A rational string, a list of fld.n rational coordinates, or the full
    encoding {"coords": fld.n [m, e] pairs, "prec": ...}, each m and e a
    JSON integer or a decimal-integer string; anything else
    raises SchemaError, as does a nonzero coordinate whose fld.digits digits
    beyond its valuation would reach p^_EXACT."""
    try:
        if isinstance(d, str):
            return fld.from_rational(parse_frac(d))
        if isinstance(d, list) and len(d) == fld.n:
            return fld.from_coords([parse_frac(c) for c in d])
        pairs = d.get("coords") if isinstance(d, dict) else None
        if not (isinstance(pairs, list) and len(pairs) == fld.n
                and all(isinstance(me, list) and len(me) == 2 for me in pairs)):
            raise SchemaError("not a scalar with %d coordinates: %r" % (fld.n, d))
        coords = []
        for m, e in pairs:
            try:
                if not all(type(x) is int or isinstance(x, str) and _DECIMAL_INT.fullmatch(x)
                           for x in (m, e)):
                    raise ValueError
                m, e = int(m), int(e)
            except ValueError:
                raise SchemaError("coordinate [m, e] needs integers: %r" % ([m, e],))
            # m * p^e as from_rational stores it
            coords.append(_bfrom_power(fld.p, m, e, fld.digits))
    except PrecisionPastExact as err:
        raise SchemaError(str(err)) from None
    x = PadicScalar(fld, tuple(coords))
    prec = d.get("prec", "inf")
    return x if prec == "inf" else x.with_precision(parse_frac(prec))


def series_to_json(f: TruncatedSeries) -> dict:
    return {"center": scalar_to_json(f.center), "var": f.var, "N": f.order,
            "coeffs": [scalar_to_json(c) for c in f.coeffs]}


def series_from_json(d, fld: FieldDescriptor, order=None) -> TruncatedSeries:
    """A series object {"center", "coeffs", "N" (default: the number of
    coefficients), "var" (default "t")}, or a bare coefficient list: a
    polynomial in t at center 0, exact to any order.  With ``order`` the
    series is cut to that order, and an object known only to a lower N
    raises SchemaError, as does any malformed value."""
    if isinstance(d, list):
        center, coeffs, n, var = fld.zero(), d, order or len(d), "t"
    elif isinstance(d, dict) and "center" in d and isinstance(d.get("coeffs"), list):
        center, coeffs = scalar_from_json(d["center"], fld), d["coeffs"]
        n, var = d.get("N", len(coeffs)), d.get("var", "t")
    else:
        raise SchemaError("not a series object or coefficient list: %r" % (d,))
    if not (type(n) is int and n >= 1 and isinstance(var, str)):
        raise SchemaError("a series needs an order N that is an integer >= 1 and a variable name")
    if order is not None and n < order:
        raise SchemaError("series known to order %d, below the order %d asked for" % (n, order))
    n = order or n
    coeffs = [scalar_from_json(c, fld) for c in coeffs]
    coeffs += [fld.zero()] * (n - len(coeffs))
    return TruncatedSeries(fld, var, center, coeffs[:n])


def polygon_to_json(poly: ValuationPolygon) -> dict:
    return {"vertices": [[str(i), frac_str(v)] for i, v in poly.vertices]}


def tree_to_json(tree) -> dict:
    return {"branch_points": [
        {"t_radius": frac_str(bp.t_exponent),
         "branch_radius": frac_str(bp.branch_exponent),
         "delta": bp.delta,
         "branches": [list(part) for part in bp.parts]}
        for bp in tree.branch_points]}


def module_to_json(module) -> dict:
    return {"rank": module.rank, "var": module.var,
            "A": [[series_to_json(c) for c in row] for row in module.matrix],
            "system": "-A^T"}


def matrix_to_json(mat) -> list:
    return [[series_to_json(c) for c in row] for row in mat]


def basis_to_json(basis) -> dict:
    return {"columns": [
        {"provenance": {k: (list(v) if isinstance(v, tuple) else v)
                        for k, v in col.provenance.items()},
         "predicted_q": frac_str(col.predicted_exponent),
         "estimated_q": frac_str(col.estimate.exponent),
         "stable": col.estimate.stable,
         "entries": [series_to_json(e) for e in col.entries]}
        for col in basis.columns]}


def _scalar_text(o):
    """The stdlib's JSON text of None, a bool, an int or a float (NaN and the
    infinities included); None for any other value."""
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if o != o:
            return "NaN"
        if o == math.inf:
            return "Infinity"
        if o == -math.inf:
            return "-Infinity"
        return float.__repr__(o)
    return None


def dumps(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2) + "\\n"``, byte for byte.

    A value that call rejects raises the same exception class: TypeError
    for a type or a dict key JSON has no text for, ValueError for a
    container that contains itself.  With ``indent`` set the stdlib leaves
    its C encoder for a pure-Python generator chain that yields every
    token; this walk appends one string per output line instead."""
    lines = []
    _write(obj, "", "\n", lines.append, set())
    lines.append("\n")
    return "".join(lines)


def _write(o, head: str, indent: str, put, open_ids: set) -> None:
    """Pass the lines of ``o`` to ``put``, the first starting with ``head``
    (the separator, indent and key before it); ``indent`` is the newline and
    indent of o's nesting level.  Types are tested with isinstance, as the
    stdlib does, so subclasses keep their text.  str, containers and the
    other scalars are disjoint types, so testing containers second changes
    no output; a container's loop writes its str items itself.  Keys are
    converted by the same scalar rule and sorted as the stdlib sorts them.
    ``open_ids`` holds the containers being written, to detect a cycle."""
    if isinstance(o, str):
        put(head + _quote(o))
    elif isinstance(o, (list, tuple, dict)):
        is_dict = isinstance(o, dict)
        if not o:
            put(head + ("{}" if is_dict else "[]"))
            return
        marker = id(o)
        if marker in open_ids:
            raise ValueError("Circular reference detected")
        open_ids.add(marker)
        put(head + ("{" if is_dict else "["))
        inner = indent + "  "
        sep, comma = inner, "," + inner
        if is_dict:
            for k, v in sorted(o.items()):
                key = k if isinstance(k, str) else _scalar_text(k)
                if key is None:
                    raise TypeError("keys must be str, int, float, bool or None, not %s"
                                    % k.__class__.__name__)
                h = sep + _quote(key) + ": "
                if isinstance(v, str):
                    put(h + _quote(v))
                else:
                    _write(v, h, inner, put, open_ids)
                sep = comma
        else:
            for v in o:
                if isinstance(v, str):
                    put(sep + _quote(v))
                else:
                    _write(v, sep, inner, put, open_ids)
                sep = comma
        put(indent + ("}" if is_dict else "]"))
        open_ids.remove(marker)
    else:
        text = _scalar_text(o)
        if text is None:
            raise TypeError("Object of type %s is not JSON serializable" % o.__class__.__name__)
        put(head + text)
