"""Truncated power series at a declared center.

Ring operations, composition, reversion (Lagrange inversion), recentering,
valuation polygons, tail-slope radius estimation, and series-coefficient root
solving.  Truncation order N is fixed per series; binary operations take the
minimum of the two orders and never silently extend it.  The constant
coefficient of a series equals its evaluation at the center.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    CenterMismatch,
    NoConvergence,
    NonUnitConstantTerm,
    NotInvertibleAtOrderOne,
    ShiftOutsideDisc,
    SingularFiberPoint,
    SubstitutionOutsideDisc,
    VariableMismatch,
    ZeroSeries,
)
from .padic import (INF, PadicScalar, _bconv, _check_fields, _int_valuation, poly_derivative,
                    poly_eval)


class TruncatedSeries:
    """Coefficients c_0 .. c_{N-1} of sum c_i (x - center)^i, x the tagged variable."""

    __slots__ = ("field", "var", "center", "coeffs")

    def __init__(self, field: FieldDescriptor, var: str, center: PadicScalar, coeffs):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("truncation order must be >= 1")
        self.field = field
        self.var = var
        self.center = center
        self.coeffs = coeffs

    # -- constructors ----------------------------------------------------------

    @classmethod
    def from_rationals(cls, field, var, center, rationals, order=None):
        coeffs = [field.from_rational(q) for q in rationals]
        if order is not None:
            coeffs += [field.zero()] * (order - len(coeffs))
        return cls(field, var, field.from_rational(center)
                   if not isinstance(center, PadicScalar) else center, coeffs)

    @classmethod
    def constant(cls, field, var, center, value, order):
        coeffs = [value if isinstance(value, PadicScalar) else field.from_rational(value)]
        coeffs += [field.zero()] * (order - 1)
        return cls(field, var, center, coeffs)

    @classmethod
    def identity(cls, field, var, center, order):
        """The coordinate itself: center + (x - center)."""
        coeffs = [center, field.one()] + [field.zero()] * (order - 2)
        return cls(field, var, center, coeffs)

    # -- queries ----------------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.coeffs)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def degree(self):
        """Largest index with a nonzero coefficient, or None."""
        for i in range(len(self.coeffs) - 1, -1, -1):
            if not self.coeffs[i].is_zero():
                return i
        return None

    def min_precision(self):
        return min(c.precision() for c in self.coeffs)

    # -- arithmetic ---------------------------------------------------------------

    def _check_compatible(self, other):
        if self.var != other.var:
            raise VariableMismatch("%r vs %r" % (self.var, other.var))
        if self.center is not other.center and not (self.center - other.center).is_zero():
            raise CenterMismatch("series centers differ at precision")

    def _wrap(self, coeffs):
        return TruncatedSeries(self.field, self.var, self.center, coeffs)

    def __add__(self, other):
        if isinstance(other, TruncatedSeries):
            self._check_compatible(other)
            n = min(self.order, other.order)
            return self._wrap([self.coeffs[i] + other.coeffs[i] for i in range(n)])
        c = list(self.coeffs)
        c[0] = c[0] + other
        return self._wrap(c)

    __radd__ = __add__

    def __neg__(self):
        return self._wrap([-c for c in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, TruncatedSeries):
            return self + (-other)
        return self + (-(other if isinstance(other, PadicScalar)
                         else self.field.from_rational(other)))

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            s = other if isinstance(other, PadicScalar) else self.field.from_rational(other)
            return self._wrap([c * s for c in self.coeffs])
        self._check_compatible(other)
        n = min(self.order, other.order)
        field = self.field
        return self._wrap([PadicScalar(field, coords) for coords in _bconv(
            field, [c.coords for c in self.coeffs[:n]], [c.coords for c in other.coeffs[:n]])])

    __rmul__ = __mul__

    def truncate(self, order: int):
        if order >= self.order:
            return self
        return self._wrap(self.coeffs[:order])

    def __repr__(self):
        parts = []
        for i, c in enumerate(self.coeffs[:6]):
            if not c.is_zero():
                parts.append("c%d(v=%s)" % (i, c.valuation()))
        return "<series %s N=%d %s%s>" % (self.var, self.order, " ".join(parts) or "0",
                                          "..." if self.order > 6 else "")


# ----------------------------------------------------------------------------
# public operations
# ----------------------------------------------------------------------------

def mult_inverse(f: TruncatedSeries) -> TruncatedSeries:
    """Series g with f*g = 1 + O(x^N); needs an invertible constant term.
    g_k = -(sum over 1 <= i <= k of f_i g_(k-i)) / f_0, the sum taken on
    coordinate tuples by one ``FieldDescriptor._muladd`` per term."""
    c0 = f.coeffs[0]
    if c0.is_zero():
        raise NonUnitConstantTerm("constant term vanishes at precision")
    fld = f.field
    muladd, zero, inv0 = fld._muladd, fld.zero().coords, c0.inverse().coords
    # the terms of the inner sums: the coefficients past c_0 that are not exact zeros
    live = [(i, c.coords) for i, c in enumerate(f.coeffs) if i and not c.is_exact_zero()]
    out = [inv0]
    for k in range(1, f.order):
        acc = zero
        for i, c in live:
            if i > k:
                break
            acc = muladd(c, out[k - i], acc)
        out.append(fld._neg(muladd(acc, inv0)))
    return f._wrap([PadicScalar(fld, c) for c in out])


def derivative(f: TruncatedSeries) -> TruncatedSeries:
    """Coefficientwise j*c_j shift; order drops to N-1."""
    if f.order == 1:
        return f._wrap([f.field.zero()])
    return f._wrap([f.coeffs[j] * j for j in range(1, f.order)])


def compose(f: TruncatedSeries, g: TruncatedSeries) -> TruncatedSeries:
    """f(g(x)) to order min(N_f, N_g); output takes g's tag and center.

    Requires the substituted constant to fall inside f's disc at precision:
    valuation(g_0 - center_f) > 0.
    """
    delta0 = g.coeffs[0] - f.center
    if not delta0.is_zero() and not delta0.valuation() > 0:
        raise SubstitutionOutsideDisc(
            "substituted constant has valuation %s" % delta0.valuation())
    n = min(f.order, g.order)
    h = TruncatedSeries(g.field, g.var, g.center, [delta0] + list(g.coeffs[1:n]))
    return horner(f.coeffs[:n], h)


def horner(coeffs, x: TruncatedSeries) -> TruncatedSeries:
    """sum_k c_k x^k by Horner to x's order; each c_k is a scalar or a series
    at x's center.

    Trailing exact-zero scalars are dropped first, whatever x is: the product
    leaves exact-zero scalars out, so the exact-zero accumulator times x is
    the exact-zero series again.  A series coefficient is always kept, as its
    order caps the result's.
    """
    coeffs = list(coeffs)
    while coeffs and isinstance(coeffs[-1], PadicScalar) and coeffs[-1].is_exact_zero():
        coeffs.pop()
    acc = TruncatedSeries.constant(x.field, x.var, x.center, x.field.zero(), x.order)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def reversion(f: TruncatedSeries) -> TruncatedSeries:
    """Compositional inverse by Lagrange inversion.

    Requires c_0 = 0 at precision and c_1 invertible; then
    g_n = [x^{n-1}] (x / f(x))^n / n and f(g(x)) = x + O(x^N).
    """
    if not f.coeffs[0].is_zero():
        raise NotInvertibleAtOrderOne("constant term does not vanish")
    if f.order < 2 or f.coeffs[1].is_zero():
        raise NotInvertibleAtOrderOne("linear coefficient vanishes at precision")
    n = f.order
    shifted = f._wrap(list(f.coeffs[1:]))       # f(x)/x, order N-1
    h = mult_inverse(shifted)                   # x/f(x), order N-1
    out = [f.field.zero(), h.coeffs[0]]
    power = h
    for k in range(2, n):
        power = power * h
        out.append(power.coeffs[k - 1] / k)
    return f._wrap(out)


def recenter(f: TruncatedSeries, a: PadicScalar) -> TruncatedSeries:
    """f expanded at a inside its disc: coefficients of f(a + x), constant f(a).

    The constant term is the same Horner sum as ``evaluate(f, a)``.  The
    trailing exact-zero coefficients are skipped, so a degree-d polynomial
    padded to order N costs O(d^2), not O(N^2): an exact zero times
    a - center is again the exact zero, and adding the exact zero leaves a
    digit as it is.  A zero at finite precision is kept, as it caps what it
    touches.
    The loop runs on coordinate tuples and wraps only the result: each step
    maps the accumulator acc (coefficients of the sum so far in x) to
    acc[i] * delta + acc[i - 1] by one ``FieldDescriptor._muladd``, c for
    i = 0, and keeps acc[-1] as the new top coefficient.
    """
    delta = a - f.center
    if not delta.is_zero() and delta.valuation() < 0:
        raise ShiftOutsideDisc("shift target has valuation %s" % delta.valuation())
    if delta.precision() < 0:
        raise ShiftOutsideDisc("shift target is known only to precision %s"
                               % delta.precision())
    field = f.field
    _check_fields(field, f.coeffs + (delta,))
    top = f.order
    while top and f.coeffs[top - 1].is_exact_zero():
        top -= 1
    # Horner in (delta + x); the accumulator gains one entry per step
    muladd, d, zero = field._muladd, delta.coords, field.zero()
    coeffs = [c.coords for c in f.coeffs[:top]]
    acc = coeffs[-1:]
    for c in reversed(coeffs[:-1]):
        acc = ([muladd(acc[0], d, c)]
               + [muladd(x, d, y) for x, y in zip(acc[1:], acc)] + acc[-1:])
    return TruncatedSeries(field, f.var, a,
                           [PadicScalar(field, x) for x in acc] + [zero] * (f.order - top))


def taylor_shift(f: TruncatedSeries, a: PadicScalar) -> TruncatedSeries:
    """f_a with f_a(x) = f(a + x) - f(a): recentered at a, constant term 0."""
    shifted = recenter(f, a)
    return shifted._wrap((f.field.zero(),) + shifted.coeffs[1:])


def evaluate(f: TruncatedSeries, a: PadicScalar) -> PadicScalar:
    """Horner sum of the truncation at a.  Exact for polynomial tails; for a
    genuine series it is the order-N partial sum."""
    delta = a - f.center
    return poly_eval(f.coeffs, delta)


# ----------------------------------------------------------------------------
# valuation polygons
# ----------------------------------------------------------------------------

def lower_hull(points):
    """Lower convex hull of (x, y) pairs with exact rational y, x increasing."""
    pts = sorted(points)
    hull = []
    for pt in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (x2 - x1) * (pt[1] - y1) <= (pt[0] - x1) * (y2 - y1):
                hull.pop()
            else:
                break
        hull.append(pt)
    return hull


@dataclass(frozen=True)
class ValuationPolygon:
    """Lower hull of (i, valuation(c_i)); exposes the concave function
    vq(f, l) = min_i (valuation(c_i) + i*l) and its slope at 0+."""

    vertices: tuple

    def value_at(self, ell) -> Fraction:
        ell = Fraction(ell)
        return min(Fraction(v) + i * ell for i, v in self.vertices)

    def max_slope(self) -> int:
        """Slope of vq as l -> 0+: the least index among minimal valuations.

        This counts geometric preimages inside the open disc, so trailing
        series junk above the minimal valuation does not inflate it.
        """
        low = min(v for _, v in self.vertices)
        return min(i for i, v in self.vertices if v == low)


def valuation_polygon(f: TruncatedSeries) -> ValuationPolygon:
    """The hull is built on the integers e * valuation(c_i); only its
    vertices become Fractions."""
    points = [(i, y) for i, y in enumerate(map(_int_valuation, f.coeffs)) if y != INF]
    if not points:
        raise ZeroSeries("series vanishes at precision")
    e = f.field.e
    return ValuationPolygon(tuple((i, Fraction(y, e)) for i, y in lower_hull(points)))


# ----------------------------------------------------------------------------
# radius estimation
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class RadiusEstimate:
    """Radius of convergence as an exponent q (radius |p|^q), capped at q >= 0."""

    exponent: Fraction
    stable: bool


def _digit_sum(j: int, p: int) -> int:
    s = 0
    while j:
        s += j % p
        j //= p
    return s


def _dominant_edge(hull):
    """The widest edge ((x1, y1), (x2, y2)) of a lower hull of at least two
    points (later edge on ties)."""
    best = None
    for left, right in zip(hull, hull[1:]):
        if best is None or right[0] - left[0] >= best[1][0] - best[0][0]:
            best = (left, right)
    return best


def radius_estimate(f: TruncatedSeries) -> RadiusEstimate:
    """Tail-slope radius estimator over the coefficients of index [N/2, N).

    Tries the Newton polygon of raw coefficient valuations first, then of the
    Legendre-normalized valuations v_j + v_p(j!): horizontal solutions carry a
    universal 1/j! factor, so the normalized tail is exactly linear (or
    periodic-linear with its support on one line) for every radius the
    estimator must certify.  An estimate is stable when the widest hull edge
    covers at least half the window and reaches its right end (a short
    boundary uptick after the supporting line is tolerated).  Degenerate
    windows report the maximal radius exponent 0, flagged unstable.

    Both hulls are built on the integers (p - 1) e v_j (``_int_valuation``
    gives e v_j); v_p(j!) = (j - s_p(j)) / (p - 1) adds e (j - s_p(j)), and
    the gauge's shift 1 / (p - 1) is e.  Only the winning slope becomes a
    Fraction.
    """
    n = f.order
    lo = n // 2
    p, e = f.field.p, f.field.e
    pts = [(j, (p - 1) * y) for j, y in enumerate(map(_int_valuation, f.coeffs[lo:]), lo)
           if y != INF]
    if len(pts) < 2:
        return RadiusEstimate(Fraction(0), False)
    scale = (p - 1) * e
    raw = lower_hull(pts)
    for shift in (0, e):
        hull = raw if not shift else lower_hull(
            [(j, y + e * (j - _digit_sum(j, p))) for j, y in pts])
        (x1, y1), (x2, y2) = _dominant_edge(hull)
        if 2 * (x2 - x1) >= n - 1 - lo and x2 >= n - 3:
            return RadiusEstimate(
                max(Fraction(0), Fraction(shift * (x2 - x1) - (y2 - y1), (x2 - x1) * scale)),
                True)
    (x1, y1), (x2, y2) = raw[-2], raw[-1]
    return RadiusEstimate(max(Fraction(0), Fraction(y1 - y2, (x2 - x1) * scale)), False)


# ----------------------------------------------------------------------------
# root solving with series coefficients
# ----------------------------------------------------------------------------

def newton_solve(poly, x0: PadicScalar) -> TruncatedSeries:
    """The unique series u with P(s, u(s)) = O((s-b)^N) and u(b) = x0.

    ``poly`` lists TruncatedSeries coefficients of P in ascending X powers,
    all at the same center b.  Requires P(b, x0) = 0 at precision and
    dP/dX(b, x0) invertible (non-branching hypothesis).
    """
    poly = list(poly)
    base = poly[0]
    for c in poly[1:]:
        base._check_compatible(c)
    const = [c.coeffs[0] for c in poly]
    if not poly_eval(const, x0).is_zero():
        raise ValueError("x0 is not a root of P at the center")
    dconst = poly_eval(poly_derivative(const), x0)
    if dconst.is_zero():
        raise SingularFiberPoint(
            "dP/dX vanishes at the fiber point (branching or non-etale)")
    n = min(c.order for c in poly)
    u = TruncatedSeries.constant(base.field, base.var, base.center, x0, n)
    dpoly = [poly[k] * k for k in range(1, len(poly))]
    steps = 1
    while (1 << steps) < n:
        steps += 1
    for _ in range(steps + 1):
        residual = horner(poly, u)
        if residual.is_zero():
            break
        u = u - residual * mult_inverse(horner(dpoly, u))
    if not horner(poly, u).is_zero():
        raise NoConvergence("newton_solve residual did not vanish to order N")
    return u
