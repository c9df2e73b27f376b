"""Finite morphisms of open p-adic discs.

A degree-d morphism is carried by its coordinate representation s = f(t).
This module computes image radii from valuation polygons, fibers over a
rational point (by polygon-guided Hensel lifting), the branching tree over
the point, local inverse solutions, and the monic relation P(s, X)
annihilating t.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product as iter_product

from .errors import (
    FiberNotReduced,
    InvalidMorphism,
    NotEtale,
    ResidueFieldTooLarge,
    RootsNotInDeclaredField,
    SingularFiberPoint,
)
from .padic import (INF, FieldDescriptor, PadicScalar, _fp_eval, _int_valuation, hensel_lift,
                    poly_derivative, poly_eval)
from .series import (
    TruncatedSeries,
    compose,
    derivative,
    evaluate,
    horner,
    lower_hull,
    recenter,
    reversion,
    taylor_shift,
    valuation_polygon,
)

# Largest residue field p^f whose elements the fiber search enumerates; job
# specs with a larger one are rejected before any primality test of p.
MAX_RESIDUE_FIELD = 2 ** 16


@dataclass(frozen=True)
class DiscMorphism:
    """s = f(t) on the open unit disc, of declared degree d.

    The degree must equal the highest slope of the valuation polygon of f,
    i.e. the largest hull index.  The morphism is etale when f'(t) is a unit
    of the open-disc ring: every coefficient valuation of f' at least the
    constant one (no zero of f' inside the disc).
    """

    f: TruncatedSeries
    degree: int

    def __post_init__(self):
        if not self.f.center.is_zero():
            raise InvalidMorphism(
                "morphisms are written in the unit-disc coordinate (center 0)")
        poly = valuation_polygon(self.f)
        if poly.max_slope() != self.degree:
            raise InvalidMorphism(
                "declared degree %d but polygon slope %d" % (self.degree, poly.max_slope()))
        onto = min((c.valuation() for c in self.f.coeffs[1:] if not c.is_zero()),
                   default=None)
        if onto is None or onto > 0:
            raise InvalidMorphism("f does not map the open unit disc onto the open unit disc")

    def derivative_series(self) -> TruncatedSeries:
        return derivative(self.f)

    def is_etale(self) -> bool:
        df = self.derivative_series()
        c0 = df.coeffs[0]
        if c0.is_zero():
            return False
        v0 = c0.valuation()
        return all(c.is_zero() or c.valuation() >= v0 for c in df.coeffs[1:])

    def require_etale(self):
        if not self.is_etale():
            raise NotEtale("f'(t) has a zero inside the open unit disc")


@dataclass(frozen=True)
class Fiber:
    """The d preimages of the target point b, in a deterministic order."""

    target: PadicScalar
    points: tuple

    def __len__(self):
        return len(self.points)

    @cached_property
    def gaps(self) -> tuple:
        """gaps[i][j] = v(a_j - a_i), +inf where that difference is zero at
        precision (so on the diagonal); one subtraction per unordered pair."""
        pts = self.points
        rows = [[INF] * len(pts) for _ in pts]
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                rows[i][j] = rows[j][i] = (pts[j] - pts[i]).valuation()
        return tuple(map(tuple, rows))

    def members(self, i: int, q) -> tuple:
        """Indices j of the points in the open disc D(a_i, |p|^q): a_j - a_i is
        zero at precision or of valuation > q.  i itself is included."""
        return tuple(j for j, gap in enumerate(self.gaps[i]) if gap > q)


@dataclass(frozen=True)
class BranchPoint:
    """One branching point of the tree over b.

    ``parts`` partitions the indices of the fiber points at pairwise
    valuation >= t_exponent into branches (pairwise valuation > t_exponent),
    ordered by least index; rep, the least index of all, lies in parts[0].
    """

    rep: int
    t_exponent: Fraction
    branch_exponent: Fraction
    parts: tuple

    @property
    def delta(self) -> int:
        return len(self.parts)


@dataclass(frozen=True)
class TreeOverPoint:
    fiber: Fiber
    branch_points: tuple

    def inside(self, i: int, q) -> tuple:
        """Indices of the branching points inside the open disc D(a_i, |p|^q)."""
        return tuple(k for k, bp in enumerate(self.branch_points)
                     if bp.t_exponent > q and self.fiber.gaps[i][bp.rep] > q)


@dataclass(frozen=True)
class MonicRelation:
    """P(s, X) = a_0(s) + ... + a_{d-1}(s) X^{d-1} + X^d with P(s, t) = 0."""

    coeffs: tuple          # a_0 .. a_{d-1}, TruncatedSeries at the target center
    center: PadicScalar

    @property
    def degree(self) -> int:
        return len(self.coeffs)


# ----------------------------------------------------------------------------
# radii
# ----------------------------------------------------------------------------

def _recentered_polygon(phi: DiscMorphism, a: PadicScalar):
    """The valuation polygon of f recentered at a: image radii near a."""
    return valuation_polygon(taylor_shift(phi.f, a))


def image_radius(phi: DiscMorphism, a: PadicScalar, ell) -> Fraction:
    """Exponent of the radius of phi(D(a, |p|^ell)): vq of f recentered at a."""
    if not a.is_zero() and a.valuation() < 0:
        raise ValueError("a must lie in the unit disc")
    return _recentered_polygon(phi, a).value_at(Fraction(ell))


# ----------------------------------------------------------------------------
# fibers
# ----------------------------------------------------------------------------

def _residue_candidates(fld: FieldDescriptor):
    """Nonzero elements of the residue field F_p[X]/(fld.residue_poly), as
    int coordinate tuples: the first coordinates of their representatives."""
    p = fld.p
    if p ** fld.f > MAX_RESIDUE_FIELD:
        raise ResidueFieldTooLarge("residue field of %d^%d elements exceeds %d"
                                   % (p, fld.f, MAX_RESIDUE_FIELD))
    return [r for r in iter_product(range(p), repeat=fld.f) if any(r)]


def _residue_roots(g, dg, fld: FieldDescriptor):
    """(r, simple) for each residue-class representative r != 0 with g(r)
    zero at precision or of positive valuation; simple tells whether g'(r)
    is a unit.  The coefficients of g have valuation >= 0, dg is g'.

    When every coordinate of g and dg is known modulo p, so are g(r) and
    g'(r), and both tests are decided on ints in the residue field: coordinate
    0 for Q_p and Eisenstein fields, all f coordinates for unramified ones.
    Only the r that pass become scalars.  Otherwise g and g' are evaluated at
    each r at full precision.
    """
    p, mod, f = fld.p, fld.residue_poly, fld.f
    pad = (0,) * (fld.n - f)
    if all(k >= 1 for c in g + dg for _, _, k in c.coords):
        g_bar, dg_bar = ([[u % p if u and not v else 0 for u, v, _ in c.coords[:f]]
                          for c in cs] for cs in (g, dg))
        for r in _residue_candidates(fld):
            if not any(_fp_eval(g_bar, r, mod, p)):
                yield fld.from_coords(r + pad), any(_fp_eval(dg_bar, r, mod, p))
        return
    for digits in _residue_candidates(fld):
        r = fld.from_coords(digits + pad)
        val_at = poly_eval(g, r)
        if not val_at.is_zero() and not val_at.valuation() > 0:
            continue
        dv = poly_eval(dg, r)
        yield r, not dv.is_zero() and dv.valuation() == 0


def _uniformizer_power(fld: FieldDescriptor, k: int) -> PadicScalar:
    """pi^k in an Eisenstein field, p^k otherwise: an element of valuation k / e."""
    if fld.kind == "eisenstein":
        return fld.uniformizer() ** k
    return fld.from_rational(Fraction(fld.p) ** k)


def _poly_roots(coeffs, fld: FieldDescriptor, depth: int = 0):
    """Roots with valuation > 0 of a scalar polynomial, assumed simple.

    Newton-polygon slopes give the root valuations; each slope is rescaled to
    a unit problem, residue roots are enumerated and Hensel-lifted, and
    residue clusters recurse on the recentered polynomial.  The polygon is
    built on the integers e * valuation, and the rescaling runs on
    coordinate tuples.
    """
    if depth > 64:
        raise RootsNotInDeclaredField("root cluster did not separate")
    coeffs = list(coeffs)
    while coeffs and coeffs[-1].is_zero():
        coeffs.pop()
    if len(coeffs) <= 1:
        return []
    roots = []
    zero_count = 0
    while len(coeffs) > 1 and coeffs[0].is_zero():
        zero_count += 1
        coeffs = coeffs[1:]
    if zero_count > 1:
        raise FiberNotReduced("multiple root at 0")
    if zero_count == 1:
        roots.append(fld.zero())
    if len(coeffs) <= 1:
        return roots
    pts = [(i, y) for i, y in enumerate(map(_int_valuation, coeffs)) if y != INF]
    hull = lower_hull(pts)
    mul = fld._mul
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        if y1 <= y2:
            # roots on or outside the boundary: not fiber points of the open disc
            continue
        k, rest = divmod(y1 - y2, x2 - x1)    # e * the root valuation on this edge
        if rest:
            raise RootsNotInDeclaredField("root valuation %s not in the value group"
                                          % Fraction(y1 - y2, (x2 - x1) * fld.e))
        sigma = _uniformizer_power(fld, k)
        scaled = []
        power = fld.one().coords
        for c in coeffs:
            scaled.append(PadicScalar(fld, mul(c.coords, power)))
            power = mul(power, sigma.coords)
        norm = _uniformizer_power(fld, min(_int_valuation(c) for c in scaled))
        inv_norm = fld._inv(norm.coords)
        unit_poly = [PadicScalar(fld, mul(c.coords, inv_norm)) for c in scaled]
        d_unit_poly = poly_derivative(unit_poly)
        for r, simple in _residue_roots(unit_poly, d_unit_poly, fld):
            if simple:
                roots.append(sigma * hensel_lift(unit_poly, r, d_unit_poly))
            else:
                shifted = recenter(TruncatedSeries(fld, "t", fld.zero(), unit_poly), r)
                for sub in _poly_roots(shifted.coeffs, fld, depth + 1):
                    roots.append(sigma * (r + sub))
    return roots


def _sort_key(a: PadicScalar):
    v = a.valuation()
    key_v = (1, Fraction(0)) if v == INF else (0, Fraction(v))
    mantissas = tuple(u for u, _, _ in a.coords)
    return (key_v, mantissas)


def fiber(phi: DiscMorphism, b: PadicScalar, hints=None) -> Fiber:
    """The d preimages of b, verified and deterministically ordered.

    With hints the given order is kept (the canned example runners pin their
    fiber order this way); otherwise f must be polynomial and the roots of
    f(t) - b are found by residue enumeration and Hensel lifting, sorted by
    (valuation, coordinate mantissas).
    """
    d = phi.degree
    if hints is not None:
        pts = [a if isinstance(a, PadicScalar) else phi.f.field.from_rational(a)
               for a in hints]
    else:
        deg = phi.f.degree()
        if deg is None or deg != d:
            raise RootsNotInDeclaredField(
                "automatic fibers need a polynomial representation of degree d")
        coeffs = list(phi.f.coeffs[: d + 1])
        coeffs[0] = coeffs[0] - b
        pts = _poly_roots(coeffs, phi.f.field)
        pts.sort(key=_sort_key)
    if len(pts) != d:
        raise RootsNotInDeclaredField(
            "found %d fiber points, expected %d" % (len(pts), d))
    for a in pts:
        if not (evaluate(phi.f, a) - b).is_zero():
            raise RootsNotInDeclaredField("fiber candidate fails f(a) = b at precision")
    fib = Fiber(target=b, points=tuple(pts))
    for i in range(d):
        for j in range(i + 1, d):
            if fib.gaps[i][j] == INF:
                raise FiberNotReduced("fiber points %d and %d collide at precision" % (i, j))
    return fib


# ----------------------------------------------------------------------------
# the tree over a point
# ----------------------------------------------------------------------------

def tree_over_point(phi: DiscMorphism, fib: Fiber) -> TreeOverPoint:
    """Branching points from the pairwise gaps of the fiber.

    The fiber splits as a disc of points: a disc with >= 2 points has rep its
    least index and t-radius exponent ell its least gap from rep; its branches
    are the open discs D(a_j, |p|^ell) inside it, each split again in turn.
    Each split is a branching point with branching radius the image radius at
    that level, read off f recentered at rep once per rep; they are listed by
    decreasing ell, then by rep.
    """
    branch_points = []
    polygons = {}
    discs = [tuple(range(len(fib)))]
    while discs:
        disc = discs.pop()
        if len(disc) < 2:
            continue
        rep = disc[0]
        ell = min(fib.gaps[rep][j] for j in disc[1:])
        if ell == INF:
            raise FiberNotReduced("fiber points %d and %d collide at precision" % (rep, disc[1]))
        parts = sorted({fib.members(j, ell) for j in disc})   # disjoint: by least index
        discs.extend(parts)
        if rep not in polygons:
            polygons[rep] = _recentered_polygon(phi, fib.points[rep])
        branch_points.append(BranchPoint(
            rep=rep,
            t_exponent=ell,
            branch_exponent=polygons[rep].value_at(ell),
            parts=tuple(parts),
        ))
    branch_points.sort(key=lambda bp: (-bp.t_exponent, bp.rep))
    return TreeOverPoint(fiber=fib, branch_points=tuple(branch_points))


def euler_count(tree: TreeOverPoint, disc) -> tuple:
    """(lhs, rhs) of the branch-counting identity on the disc.

    ``disc`` is (center index, radius exponent): the open disc around that
    fiber point.  lhs = 1 + sum over branching points inside of (delta - 1);
    rhs = number of fiber points inside.  The contract is lhs == rhs.
    """
    ci, ell = disc
    lhs = 1 + sum(tree.branch_points[k].delta - 1 for k in tree.inside(ci, ell))
    return (lhs, len(tree.fiber.members(ci, ell)))


# ----------------------------------------------------------------------------
# local solutions and the monic relation
# ----------------------------------------------------------------------------

def local_solution(phi: DiscMorphism, a: PadicScalar, b: PadicScalar) -> TruncatedSeries:
    """The series u_a(s) = a + ... with f(u_a(s)) = s + O((s-b)^N), u_a(b) = a."""
    if not (evaluate(phi.f, a) - b).is_zero():
        raise ValueError("f(a) != b at precision")
    shifted = taylor_shift(phi.f, a)
    if shifted.order < 2 or shifted.coeffs[1].is_zero():
        raise SingularFiberPoint("f'(a) vanishes at precision: a is not a simple preimage")
    rev = reversion(shifted)
    coeffs = [a] + list(rev.coeffs[1:])
    return TruncatedSeries(phi.f.field, "s", b, coeffs)


def monic_relation(phi: DiscMorphism, fib: Fiber) -> MonicRelation:
    """P(s, X) = prod_i (X - u_{a_i}(s)) expanded over the local solutions."""
    us = [local_solution(phi, a, fib.target) for a in fib.points]
    n = us[0].order
    fld = phi.f.field
    zero = TruncatedSeries.constant(fld, "s", fib.target, fld.zero(), n)
    one = TruncatedSeries.constant(fld, "s", fib.target, fld.one(), n)
    poly = [one]
    for u in us:
        nxt = [zero] * (len(poly) + 1)
        for k, c in enumerate(poly):
            nxt[k + 1] = nxt[k + 1] + c
            nxt[k] = nxt[k] - c * u
        poly = nxt
    return MonicRelation(coeffs=tuple(poly[:-1]), center=fib.target)


def relation_vanishes_on_identity(rel: MonicRelation, phi: DiscMorphism) -> bool:
    """Check P(f(t), t) = 0 to truncation order: substitute s = f(t), X = t."""
    f = phi.f
    n = min(min(c.order for c in rel.coeffs), f.order)
    fld = f.field
    t_series = TruncatedSeries.identity(fld, "t", fld.zero(), n)
    coeffs = [compose(c, f.truncate(n)) for c in rel.coeffs] + [fld.one()]
    return horner(coeffs, t_series).is_zero()
