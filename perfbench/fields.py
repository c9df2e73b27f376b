"""Exact arithmetic for the benchmark's planted roots, without padicdisc.

Elements of Q_p and of the quadratic extensions used by the ``fibers``
workload are coordinate tuples of ``Fraction`` in the power basis 1, x.
Valuations are exact: in an Eisenstein extension v(x0) lies in Z and
v(x1*x) in Z + 1/2, and in an unramified extension the basis 1, x reduces to
a basis of the residue field, so in both cases the valuation of x0 + x1*x is
the minimum of the valuations of its two terms.
"""

from __future__ import annotations

from fractions import Fraction

INF = float("inf")


class ExactField:
    """Q_p, or Q_p[x]/(x^2 + c1 x + c0) declared Eisenstein or unramified."""

    def __init__(self, name: str, p: int, poly=None, kind: str = "base"):
        self.name = name
        self.p = p
        self.kind = kind
        self.poly = tuple(Fraction(c) for c in poly) if poly else None
        self.n = 1 if poly is None else len(poly) - 1
        self.e = 2 if kind == "eisenstein" else 1
        self.shifts = (Fraction(0), Fraction(1, 2)) if kind == "eisenstein" \
            else (Fraction(0),) * self.n

    def spec(self, digits: int) -> dict:
        """The padicdisc field spec of this field."""
        if self.poly is None:
            ext = "base"
        else:
            ext = {"poly": [str(c) for c in self.poly],
                   "e": self.e, "f": self.n // self.e}
        return {"p": self.p, "ext": ext, "digits": digits}

    # -- elements --------------------------------------------------------------

    def elem(self, *coords) -> tuple:
        coords = [Fraction(c) for c in coords]
        return tuple(coords + [Fraction(0)] * (self.n - len(coords)))

    def zero(self) -> tuple:
        return self.elem()

    def one(self) -> tuple:
        return self.elem(1)

    def add(self, a, b) -> tuple:
        return tuple(x + y for x, y in zip(a, b))

    def sub(self, a, b) -> tuple:
        return tuple(x - y for x, y in zip(a, b))

    def mul(self, a, b) -> tuple:
        if self.n == 1:
            return (a[0] * b[0],)
        c0, c1 = self.poly[0], self.poly[1]
        lo = a[0] * b[0]
        mid = a[0] * b[1] + a[1] * b[0]
        hi = a[1] * b[1]
        # x^2 = -c1 x - c0
        return (lo - hi * c0, mid - hi * c1)

    def uniformizer_power(self, k: int) -> tuple:
        pi = self.elem(0, 1) if self.kind == "eisenstein" else self.elem(self.p)
        out = self.one()
        for _ in range(k):
            out = self.mul(out, pi)
        return out

    def valuation(self, a):
        best = INF
        for c, s in zip(a, self.shifts):
            if c:
                best = min(best, vp(c, self.p) + s)
        return best

    def residues(self) -> list:
        """Representatives of the residue field, zero included."""
        p = self.p
        if self.kind == "unramified":
            return [self.elem(i, j) for i in range(p) for j in range(p)]
        return [self.elem(i) for i in range(p)]

    def coeff_json(self, a):
        """A coefficient as padicdisc's JSON scalar: rational string or coordinates."""
        if self.n == 1:
            return frac_str(a[0])
        return [frac_str(c) for c in a]

    def poly_from_roots(self, roots) -> list:
        """Coefficients, ascending, of prod (t - a)."""
        coeffs = [self.one()]
        for a in roots:
            nxt = [self.zero()] * (len(coeffs) + 1)
            for k, c in enumerate(coeffs):
                nxt[k + 1] = self.add(nxt[k + 1], c)
                nxt[k] = self.sub(nxt[k], self.mul(c, a))
            coeffs = nxt
        return coeffs


def vp(q: Fraction, p: int) -> int:
    q = Fraction(q)
    num, den, v = q.numerator, q.denominator, 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def frac_str(x) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else "%d/%d" % (x.numerator, x.denominator)


def parse_scalar(field: ExactField, data) -> tuple:
    """A padicdisc JSON scalar given as a rational string or coordinate list."""
    if isinstance(data, list):
        return field.elem(*(Fraction(c) for c in data))
    return field.elem(Fraction(data))


FIELDS = {
    "Q2": ExactField("Q2", 2),
    "Q3": ExactField("Q3", 3),
    "Q5": ExactField("Q5", 5),
    "Q7": ExactField("Q7", 7),
    # Eisenstein: x^2 + 2 and x^2 + 3, uniformizers sqrt(-2) and sqrt(-3)
    "Q2(sqrt-2)": ExactField("Q2(sqrt-2)", 2, (2, 0, 1), "eisenstein"),
    "Q3(sqrt-3)": ExactField("Q3(sqrt-3)", 3, (3, 0, 1), "eisenstein"),
    # unramified: x^2 + x + 1 is irreducible over F_2, x^2 - 2 over F_5
    "Q4": ExactField("Q4", 2, (1, 1, 1), "unramified"),
    "Q25": ExactField("Q25", 5, (-2, 0, 1), "unramified"),
}


def field_of_spec(spec_field: dict) -> ExactField:
    """The ExactField matching a padicdisc field spec."""
    ext = spec_field.get("ext", "base")
    p = int(spec_field["p"])
    for fld in FIELDS.values():
        if fld.p != p:
            continue
        if ext == "base" and fld.poly is None:
            return fld
        if ext != "base" and fld.poly is not None \
                and tuple(Fraction(c) for c in ext["poly"]) == fld.poly:
            return fld
    raise ValueError("no exact model for field %r" % (spec_field,))
