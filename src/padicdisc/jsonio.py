"""JSON encodings for scalars, fields, series, polygons, trees, and modules."""

from __future__ import annotations

from fractions import Fraction

from .padic import INF, FieldDescriptor, PadicScalar, _EXACT, _bnorm, _vp_int
from .series import TruncatedSeries, ValuationPolygon


def frac_str(x) -> str:
    if x == INF or x is None:
        return "inf"
    x = Fraction(x)
    return "%d/%d" % (x.numerator, x.denominator) if x.denominator != 1 else str(x.numerator)


def parse_frac(s):
    if s == "inf":
        return INF
    return Fraction(s)


def field_to_json(fld: FieldDescriptor) -> dict:
    if fld.kind == "base":
        ext = "base"
    else:
        ext = {"poly": [frac_str(c) for c in fld.poly], "e": fld.e, "f": fld.f}
    return {"p": fld.p, "ext": ext, "digits": fld.digits}


def field_from_json(d: dict) -> FieldDescriptor:
    ext = d.get("ext", "base")
    digits = int(d.get("digits", 64))
    if ext == "base":
        return FieldDescriptor(int(d["p"]), digits=digits)
    return FieldDescriptor(int(d["p"]), digits=digits,
                           poly=[parse_frac(c) for c in ext["poly"]],
                           e=int(ext["e"]), f=int(ext["f"]))


def scalar_to_json(x: PadicScalar) -> dict:
    coords = []
    for u, v, k in x.coords:
        coords.append([str(u), str(v if u else 0)])
    prec = x.precision()
    return {"val": frac_str(x.valuation()),
            "coords": coords,
            "prec": frac_str(prec if prec != INF else None)}


def scalar_from_json(d, fld: FieldDescriptor) -> PadicScalar:
    """Accepts the full encoding, a rational string, or a coordinate list."""
    if isinstance(d, str):
        return fld.from_rational(parse_frac(d))
    if isinstance(d, list):
        return fld.from_coords([parse_frac(c) for c in d])
    prec = d.get("prec", "inf")
    coords = []
    for (m, e) in d["coords"]:
        m, e = int(m), int(e)
        if m == 0:
            coords.append((0, _EXACT, _EXACT))
        else:
            # m * p^e as from_rational stores it: a unit times p^valuation,
            # known to fld.digits digits beyond the valuation
            coords.append(_bnorm(fld.p, m, e, e + _vp_int(m, fld.p) + fld.digits))
    x = PadicScalar(fld, tuple(coords))
    if prec != "inf":
        x = x.with_precision(parse_frac(prec))
    return x


def series_to_json(f: TruncatedSeries) -> dict:
    return {"center": scalar_to_json(f.center), "var": f.var, "N": f.order,
            "coeffs": [scalar_to_json(c) for c in f.coeffs]}


def series_from_json(d, fld: FieldDescriptor) -> TruncatedSeries:
    center = scalar_from_json(d["center"], fld)
    coeffs = [scalar_from_json(c, fld) for c in d["coeffs"]]
    n = int(d.get("N", len(coeffs)))
    coeffs += [fld.zero()] * (n - len(coeffs))
    return TruncatedSeries(fld, d.get("var", "t"), center, coeffs[:n])


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
