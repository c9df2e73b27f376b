"""Disc morphisms: fibers, trees, Euler counts, local solutions, sections."""

from fractions import Fraction
from itertools import product as iter_product

import pytest
from hypothesis import given, settings, strategies as st

from padicdisc import (
    DiscMorphism,
    FieldDescriptor,
    TruncatedSeries,
    euler_count,
    fiber,
    image_radius,
    local_solution,
    monic_relation,
    tree_over_point,
)
from padicdisc.errors import (
    FiberNotReduced,
    NotEtale,
    ResidueFieldTooLarge,
    RootsNotInDeclaredField,
    SingularFiberPoint,
)
from padicdisc.morphism import (
    MAX_RESIDUE_FIELD,
    Fiber,
    _poly_roots,
    _residue_roots,
    relation_vanishes_on_identity,
)
from padicdisc import morphism
from padicdisc.cli import example_spec, run
from padicdisc.padic import INF, poly_derivative, poly_eval
from padicdisc.series import compose, evaluate, horner, reversion
from conftest import N, binom_rationals, zeta3


def make_phi(field, coeffs, degree):
    f = TruncatedSeries.from_rationals(field, "t", 0, coeffs, order=N)
    return DiscMorphism(f=f, degree=degree)


def identity_phi(field):
    return make_phi(field, [0, 1], 1)


# -- morphism validation -----------------------------------------------------------

def test_degree_validation(q2):
    with pytest.raises(ValueError):
        make_phi(q2, [0, 2, 1], 3)


def test_etale_flags(q2):
    assert make_phi(q2, [0, 2, 1], 2).is_etale()
    assert not make_phi(q2, [0, 0, 1], 2).is_etale()      # f' = 2t vanishes at 0
    # f' = 2 + 2t + 3t^2 has a zero inside the disc (constant valuation 1 > 0);
    # the third root of f - b sits on the boundary, so the disc degree is 2
    assert not make_phi(q2, [0, 2, 1, 1], 2).is_etale()
    with pytest.raises(NotEtale):
        make_phi(q2, [0, 0, 1], 2).require_etale()


def test_degree_counts_only_interior_preimages(q2):
    # a series tail above the minimal valuation does not inflate the degree
    tail = [0, 2, 1] + [0, 0, 0] + [8]
    phi = make_phi(q2, tail, 2)
    assert phi.degree == 2
    with pytest.raises(ValueError):
        make_phi(q2, tail, 6)


# -- image radii and local degrees ----------------------------------------------------

def test_image_radius_examples(p2, p3):
    assert image_radius(p2.phi, p2.field.zero(), 1) == 2
    assert image_radius(p3.phi, p3.field.zero(), Fraction(1, 2)) == Fraction(3, 2)


def test_image_radius_identity(q2):
    phi = identity_phi(q2)
    for a, ell in ((q2.zero(), Fraction(1)), (q2.from_rational(2), Fraction(5, 2))):
        assert image_radius(phi, a, ell) == ell


# -- fibers ------------------------------------------------------------------------------

def test_fiber_p2_order(p2):
    assert (p2.fib.points[0] + 2).is_zero()
    assert p2.fib.points[1].is_zero()


def test_fiber_p3_closed_form(p3):
    z3 = zeta3(p3.field)
    assert (p3.fib.points[0] - (z3 - 1)).is_zero()
    assert (p3.fib.points[1] - (z3 * z3 - 1)).is_zero()
    assert p3.fib.points[2].is_zero()


def test_fiber_p3_auto_matches_hinted(p3):
    auto = fiber(p3.phi, p3.field.zero())
    hinted = {i: a for i, a in enumerate(p3.fib.points)}
    assert len(auto.points) == 3
    matched = set()
    for a in auto.points:
        for i, b in hinted.items():
            if (a - b).is_zero():
                matched.add(i)
    assert matched == {0, 1, 2}


def test_fiber_not_in_plain_q3():
    q3 = FieldDescriptor(3, digits=64)
    phi = make_phi(q3, [0, 3, 3, 1], 3)
    with pytest.raises(RootsNotInDeclaredField):
        fiber(phi, q3.zero())


@pytest.mark.parametrize("p, poly, f", [(65537, None, 1), (257, [-3, 0, 1], 2)],
                         ids=["p=2^16+1", "p^f=257^2"])
def test_residue_enumeration_beyond_cap_raises(p, poly, f):
    fld = FieldDescriptor(p, digits=8, poly=poly, e=1, f=f)
    assert p ** f > MAX_RESIDUE_FIELD
    # (t - p)(t - 2p): one Newton-polygon edge of slope 1 to enumerate
    coeffs = [fld.from_rational(c) for c in (2 * p * p, -3 * p, 1)]
    with pytest.raises(ResidueFieldTooLarge):
        _poly_roots(coeffs, fld)


_RESIDUE_FIELDS = {
    "Q2": FieldDescriptor(2, digits=16),
    "Q3(sqrt-3)": FieldDescriptor(3, digits=16, poly=[3, 0, 1], e=2, f=1),
    "Q4": FieldDescriptor(2, digits=16, poly=[1, 1, 1], e=1, f=2),
    "Q25": FieldDescriptor(5, digits=16, poly=[-2, 0, 1], e=1, f=2),
}


def full_precision_residue_roots(g, fld):
    """(r.coords, simple) for each nonzero residue representative r with
    v(g(r)) > 0 or g(r) zero at precision, simple telling whether g'(r) is a
    unit: g and g' evaluated at r at full precision."""
    dg = poly_derivative(g)
    out = []
    for digits in iter_product(range(fld.p), repeat=fld.f):
        if not any(digits):
            continue
        r = fld.from_coords(list(digits) + [0] * (fld.n - fld.f))
        val = poly_eval(g, r)
        if val.is_zero() or val.valuation() > 0:
            dv = poly_eval(dg, r)
            out.append((r.coords, not dv.is_zero() and dv.valuation() == 0))
    return out


@given(data=st.data())
@settings(max_examples=120, deadline=None)
def test_residue_tests_match_full_precision(data):
    name = data.draw(st.sampled_from(sorted(_RESIDUE_FIELDS)))
    fld = _RESIDUE_FIELDS[name]
    p = fld.p
    element = st.lists(st.integers(0, 2 * p - 1), min_size=fld.n, max_size=fld.n)
    # prod (t - a) over roots a near the residue representatives: simple and
    # repeated residue roots, then moved by noise of valuation 0, 1 or 2
    g = [fld.one()]
    for a in data.draw(st.lists(element, min_size=1, max_size=4)):
        a = fld.from_coords(a)
        g = [x - a * y for x, y in zip(g + [fld.zero()], [fld.zero()] + g)]
    noise = st.lists(st.builds(Fraction, st.integers(-p * p, p * p), st.sampled_from([1, 7, 11])),
                     min_size=fld.n, max_size=fld.n)
    for i in range(len(g)):
        if data.draw(st.booleans()):
            g[i] = g[i] + fld.from_coords(data.draw(noise)) * p ** data.draw(st.integers(0, 2))
        # a cap of 0 or 1/e leaves a coordinate known only below its residue
        cap = data.draw(st.sampled_from([None] * 4 + [0, Fraction(1, fld.e), 1, 2]))
        if cap is not None:
            g[i] = g[i].with_precision(cap)
    got = [(r.coords, simple) for r, simple in _residue_roots(g, poly_derivative(g), fld)]
    assert got == full_precision_residue_roots(g, fld)


def test_fiber_bad_hints(p2):
    with pytest.raises(RootsNotInDeclaredField):
        fiber(p2.phi, p2.field.zero(), hints=[2, 4])
    with pytest.raises(FiberNotReduced):
        fiber(p2.phi, p2.field.zero(), hints=[0, 0])
    four = p2.field.from_rational(4)
    with pytest.raises(FiberNotReduced):
        tree_over_point(p2.phi, Fiber(target=p2.field.zero(), points=(p2.field.zero(), four, four)))


def test_fiber_rejects_points_equal_at_precision(p2, q2):
    # Fiber owns the check: fiber() with a repeated hint and a bare Fiber of
    # two points that differ only beyond the tracked precision both raise
    a = p2.fib.points[1]
    with pytest.raises(FiberNotReduced, match="fiber points 0 and 1 collide at precision"):
        fiber(p2.phi, p2.fib.target, hints=[a, a])
    rough = q2.from_rational(2).with_precision(10)
    with pytest.raises(FiberNotReduced, match="fiber points 1 and 2 collide at precision"):
        Fiber(target=q2.zero(), points=(q2.zero(), rough, q2.from_rational(2 + 2 ** 12)))


def test_fiber_general_target(q2):
    # f = t^2 + 2t over b = 8: both roots still in Q_2
    phi = make_phi(q2, [0, 2, 1], 2)
    b = q2.from_rational(8)
    fib = fiber(phi, b)
    assert len(fib.points) == 2
    for a in fib.points:
        assert (evaluate(phi.f, a) - b).is_zero()


# -- trees and euler counts -------------------------------------------------------------------

def test_tree_p2(p2):
    assert len(p2.tree.branch_points) == 1
    bp = p2.tree.branch_points[0]
    assert bp.t_exponent == 1
    assert bp.branch_exponent == 2
    assert bp.delta == 2
    assert bp.parts == ((0,), (1,))


def test_tree_p3(p3):
    assert len(p3.tree.branch_points) == 1
    bp = p3.tree.branch_points[0]
    assert bp.t_exponent == Fraction(1, 2)
    assert bp.branch_exponent == Fraction(3, 2)
    assert bp.delta == 3
    assert bp.parts == ((0,), (1,), (2,))


def test_tree_degree_one(q2):
    phi = identity_phi(q2)
    fib = fiber(phi, q2.from_rational(2), hints=[2])
    tree = tree_over_point(phi, fib)
    assert tree.branch_points == ()


def test_branch_radius_is_image_radius(p2, p3):
    for setup in (p2, p3):
        for bp in setup.tree.branch_points:
            for part in bp.parts:
                got = image_radius(setup.phi, setup.fib.points[part[0]], bp.t_exponent)
                assert got == bp.branch_exponent


def test_euler_examples(p2, p3):
    assert euler_count(p3.tree, (0, 0)) == (3, 3)
    assert euler_count(p2.tree, (1, 1)) == (1, 1)
    assert euler_count(p2.tree, (0, 0)) == (2, 2)


def test_euler_synthetic_five_points(q2):
    points = [q2.from_rational(v) for v in (0, 2, 4, 8, 6)]
    phi = _poly_through(q2, points)
    tree = tree_over_point(phi, Fiber(target=q2.zero(), points=tuple(points)))
    lhs, rhs = euler_count(tree, (0, 0))
    assert lhs == rhs == 5
    for ci, ell in ((0, Fraction(1)), (1, Fraction(1)), (0, Fraction(2)), (4, Fraction(1, 2))):
        lhs, rhs = euler_count(tree, (ci, ell))
        assert lhs == rhs == brute_force_euler_rhs(points, ci, ell)
        assert lhs == brute_force_euler_lhs(points, ci, ell)


def _poly_through(field, points):
    """Monic polynomial with the given roots, as a disc morphism carrier."""
    coeffs = [field.one()]
    for a in points:
        nxt = [field.zero()] * (len(coeffs) + 1)
        for k, c in enumerate(coeffs):
            nxt[k + 1] = nxt[k + 1] + c
            nxt[k] = nxt[k] - c * a
        coeffs = nxt
    n = max(N, len(coeffs))
    series = TruncatedSeries(field, "t", field.zero(),
                             coeffs + [field.zero()] * (n - len(coeffs)))
    return DiscMorphism(f=series, degree=len(points))


def _val(x):
    return Fraction(10 ** 9) if x.is_zero() else Fraction(x.valuation())


def brute_force_euler_rhs(points, ci, ell):
    return sum(1 for a in points if _val(a - points[ci]) > ell)


def brute_force_members(points, ci, ell):
    return [i for i in range(len(points)) if _val(points[i] - points[ci]) > ell]


def brute_force_euler_lhs(points, ci, ell):
    """Independent recount: BFS components per level, straight from the definition."""
    members = brute_force_members(points, ci, ell)
    levels = sorted({_val(points[i] - points[j])
                     for i in members for j in members if i < j})
    lhs = 1
    for m in levels:
        if m <= ell or m >= 10 ** 9:
            continue
        for cluster in _bfs_components(members, points, m, strict=False):
            if len(cluster) < 2:
                continue
            parts = _bfs_components(cluster, points, m, strict=True)
            if len(parts) >= 2:
                lhs += len(parts) - 1
    return lhs


def _bfs_components(indices, points, threshold, strict):
    remaining = set(indices)
    comps = []
    while remaining:
        seed = min(remaining)
        stack, comp = [seed], set()
        remaining.discard(seed)
        while stack:
            i = stack.pop()
            comp.add(i)
            for j in list(remaining):
                v = _val(points[i] - points[j])
                if (v > threshold) if strict else (v >= threshold):
                    remaining.discard(j)
                    stack.append(j)
        comps.append(sorted(comp))
    return comps


def brute_force_tree(points):
    """(t_exponent, parts) per branching point, straight from the definition:
    BFS components under >= m that split under > m, by decreasing m, then by
    least index."""
    d = len(points)
    levels = sorted({_val(points[i] - points[j]) for i in range(d) for j in range(i + 1, d)},
                    reverse=True)
    listing = []
    for m in levels:
        for cluster in _bfs_components(range(d), points, m, strict=False):
            parts = _bfs_components(cluster, points, m, strict=True)
            if len(parts) >= 2:
                listing.append((m, tuple(tuple(part) for part in parts)))
    return listing


_EULER_FIELDS = {"Q2": FieldDescriptor(2, digits=32),
                 "Q3(sqrt-3)": FieldDescriptor(3, digits=32, poly=[3, 0, 1], e=2, f=1)}


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_euler_randomized(data):
    name = data.draw(st.sampled_from(sorted(_EULER_FIELDS)))
    fld = _EULER_FIELDS[name]
    d = data.draw(st.integers(2, 6))
    if name == "Q2":
        raw = data.draw(st.lists(st.integers(1, 60), min_size=d, max_size=d, unique=True))
        points = [fld.from_rational(2 * v) for v in raw]
    else:
        # a + b*pi with 3 | a: valuations min(v_3(a), v_3(b) + 1/2) lie in (1/2)Z
        raw = data.draw(st.lists(st.tuples(st.integers(-20, 20), st.integers(-60, 60)),
                                 min_size=d, max_size=d, unique=True))
        points = [fld.from_coords([Fraction(3 * a), Fraction(b)]) for a, b in raw]
    phi = _poly_through(fld, points)
    fib = Fiber(target=fld.zero(), points=tuple(points))
    assert all(fib.gaps[i][j] == fib.gaps[j][i] for i in range(d) for j in range(d))
    assert all(fib.gaps[i][i] == INF for i in range(d))
    tree = tree_over_point(phi, fib)
    assert [(bp.t_exponent, bp.parts) for bp in tree.branch_points] == brute_force_tree(points)
    ci = data.draw(st.integers(0, d - 1))
    ell = data.draw(st.fractions(min_value=Fraction(1, 2), max_value=6, max_denominator=2))
    assert list(fib.members(ci, ell)) == brute_force_members(points, ci, ell)
    lhs, rhs = euler_count(tree, (ci, ell))
    assert lhs == rhs
    assert rhs == brute_force_euler_rhs(points, ci, ell)
    assert lhs == brute_force_euler_lhs(points, ci, ell)


def test_tree_permutation_and_translation_invariance(q2):
    points = [q2.from_rational(v) for v in (2, 8, 12, 4)]
    phi = _poly_through(q2, points)
    base = tree_over_point(phi, Fiber(target=q2.zero(), points=tuple(points)))

    perm = [2, 0, 3, 1]
    permuted = [points[i] for i in perm]
    phi2 = _poly_through(q2, permuted)
    other = tree_over_point(phi2, Fiber(target=q2.zero(), points=tuple(permuted)))
    base_data = {(bp.t_exponent, bp.delta,
                  tuple(sorted(tuple(sorted(perm.index(i) for i in part))
                               for part in bp.parts)))
                 for bp in base.branch_points}
    other_data = {(bp.t_exponent, bp.delta,
                   tuple(sorted(tuple(sorted(part)) for part in bp.parts)))
                  for bp in other.branch_points}
    assert base_data == other_data

    c = q2.from_rational(16)
    translated = [a + c for a in points]
    phi3 = _poly_through(q2, translated)
    moved = tree_over_point(phi3, Fiber(target=q2.zero(), points=tuple(translated)))
    assert [(bp.t_exponent, bp.delta, bp.parts) for bp in moved.branch_points] == \
        [(bp.t_exponent, bp.delta, bp.parts) for bp in base.branch_points]


def test_cubic_carrier_degree_two_pipeline(q2):
    # f = 2t + t^2 + 8t^3: degree 2 on the open disc (one root of f - b is on
    # the boundary); the full pipeline runs off a hinted fiber
    from padicdisc import (DiffModule, direct_image, horizontal_check,
                           monic_relation, trivial_optimal_basis, vandermonde)
    from padicdisc.padic import hensel_lift
    phi = make_phi(q2, [0, 2, 1, 8], 2)
    assert phi.is_etale()
    # nonzero fiber point: root of 8X^2 + X + 2 of valuation 1
    g = [q2.from_rational(2), q2.one(), q2.from_rational(8)]
    scaled = [q2.from_rational(1), q2.one(), q2.from_rational(16)]  # g(2 tau)/2
    tau = hensel_lift(scaled, q2.one())
    a1 = tau * 2
    fib = fiber(phi, q2.zero(), hints=[a1, 0])
    tree = tree_over_point(phi, fib)
    assert len(tree.branch_points) == 1
    assert tree.branch_points[0].t_exponent == 1
    assert tree.branch_points[0].branch_exponent == 2
    us = [local_solution(phi, a, q2.zero()) for a in fib.points]
    vd = vandermonde(fib, us)
    rel = monic_relation(phi, fib)
    assert relation_vanishes_on_identity(rel, phi)
    zero = TruncatedSeries.constant(q2, "t", q2.zero(), q2.zero(), N)
    triv = DiffModule(rank=1, matrix=((zero,),), var="t", center=q2.zero())
    di = direct_image(triv, phi, rel)
    basis = trivial_optimal_basis(tree, vd, phi)
    assert len(basis) == 2
    for col in basis.columns:
        ok, _ = horizontal_check(col.entries, di)
        assert ok


# -- local solutions -----------------------------------------------------------------------

def test_local_solution_p2(p2):
    u0 = p2.solutions[1]
    expect = binom_rationals(Fraction(1, 2), N)
    expect[0] = Fraction(0)
    assert (u0 - TruncatedSeries.from_rationals(p2.field, "s", 0, expect)).is_zero()


def test_local_solution_p3_closed_form(p3):
    u3 = p3.solutions[2]
    want = p3.fp - 1
    got_minus = u3 - TruncatedSeries(p3.field, "s", p3.field.zero(), want.coeffs)
    assert got_minus.is_zero()


def test_local_solution_identity(q2):
    phi = identity_phi(q2)
    a = q2.from_rational(2)
    u = local_solution(phi, a, a)
    ident = TruncatedSeries.identity(q2, "s", a, N)
    assert (u - ident).is_zero()
    # kept on the morphism: an equal (a, b) gets the same series back, and
    # another target b its own
    assert local_solution(phi, q2.from_rational(2), q2.from_rational(2)) is u
    zero = local_solution(phi, q2.zero(), q2.zero())
    assert zero is not u and zero.center.is_zero() and zero.coeffs[0].is_zero()
    assert local_solution(phi, a, a) is u


def test_local_solution_errors_are_not_kept(q2):
    phi = identity_phi(q2)
    a, b = q2.from_rational(2), q2.from_rational(4)
    for _ in range(2):
        with pytest.raises(ValueError, match="f\\(a\\) != b"):
            local_solution(phi, a, b)
    singular = make_phi(q2, [0, 0, 1], 2)
    for _ in range(2):
        with pytest.raises(SingularFiberPoint):
            local_solution(singular, q2.zero(), q2.zero())
    # the field is checked before the lookup: Q_3's zero has the coordinates
    # of Q_2's, whose solution is already kept
    q3 = FieldDescriptor(3, digits=64)
    local_solution(phi, q2.zero(), q2.zero())
    assert q3.zero().coords == q2.zero().coords
    for _ in range(2):
        with pytest.raises(ValueError, match="field mismatch"):
            local_solution(phi, q3.zero(), q3.zero())
        with pytest.raises(ValueError, match="field mismatch"):
            local_solution(phi, q2.zero(), q3.zero())


@pytest.mark.parametrize("example", ["p2-trivial", "p2-exp", "p3-trivial"])
def test_run_reverts_once_per_fiber_point(monkeypatch, example):
    # the solutions and relation stages both ask for every u_a; the second
    # ask is served by the morphism
    calls = []

    def counted(series):
        calls.append(series)
        return reversion(series)

    monkeypatch.setattr(morphism, "reversion", counted)
    spec = example_spec(example, order=16)
    run(spec)
    assert len(calls) == spec["morphism"]["d"]


def test_local_solution_roundtrip(p2, p3):
    for setup in (p2, p3):
        for a, u in zip(setup.fib.points, setup.solutions):
            assert (u.coeffs[0] - a).is_zero()
            back = compose(setup.phi.f, u)
            ident = TruncatedSeries.identity(setup.field, "s", setup.field.zero(), N)
            assert (back - ident).is_zero()


def test_local_solution_singular(q2):
    phi = make_phi(q2, [0, 0, 1], 2)
    with pytest.raises(SingularFiberPoint):
        local_solution(phi, q2.zero(), q2.zero())


# -- monic relation and sections ----------------------------------------------------------------

def test_monic_relation_p2(p2):
    rel = p2.rel
    assert rel.degree == 2
    a0, a1 = rel.coeffs
    assert (a1 - TruncatedSeries.constant(p2.field, "s", p2.field.zero(),
                                          p2.field.from_rational(2), N)).is_zero()
    minus_s = TruncatedSeries.from_rationals(p2.field, "s", 0, [0, -1], order=N)
    assert (a0 - minus_s).is_zero()


def test_monic_relation_p3(p3):
    a0, a1, a2 = p3.rel.coeffs
    fld = p3.field
    three = TruncatedSeries.constant(fld, "s", fld.zero(), fld.from_rational(3), N)
    minus_s = TruncatedSeries.from_rationals(fld, "s", 0, [0, -1], order=N)
    assert (a2 - three).is_zero()
    assert (a1 - three).is_zero()
    assert (a0 - minus_s).is_zero()


def test_monic_relation_identity_morphism(q2):
    phi = identity_phi(q2)
    b = q2.from_rational(4)
    fib = fiber(phi, b, hints=[4])
    rel = monic_relation(phi, fib)
    assert rel.degree == 1
    # P(s, X) = X - u(s) with u(s) = s: a_0 = -s
    ident = TruncatedSeries.identity(q2, "s", b, N)
    assert (rel.coeffs[0] + ident).is_zero()


def test_relation_vanishes(p2, p3):
    assert relation_vanishes_on_identity(p2.rel, p2.phi)
    assert relation_vanishes_on_identity(p3.rel, p3.phi)


# Pullback along the section s -> u_a(s): quotient coordinates g_m(s) go to
# sum_m g_m(s) u_a(s)^m, by Horner.

def test_section_apply_coordinate(p2):
    fld = p2.field
    zero = TruncatedSeries.constant(fld, "s", fld.zero(), fld.zero(), N)
    one = TruncatedSeries.constant(fld, "s", fld.zero(), fld.one(), N)
    u0 = p2.solutions[1]
    assert (horner([zero, one], u0) - u0).is_zero()
    assert (horner([one, zero], u0) - one).is_zero()


def test_section_apply_square_oracle(p2):
    # t^2 has coordinates (s, -2) modulo X^2 + 2X - s; section gives u_0(s)^2
    fld = p2.field
    s_series = TruncatedSeries.identity(fld, "s", fld.zero(), N)
    minus_two = TruncatedSeries.constant(fld, "s", fld.zero(), fld.from_rational(-2), N)
    u0 = p2.solutions[1]
    got = horner([s_series, minus_two], u0)
    assert (got - u0 * u0).is_zero()


def test_section_of_reduction_is_composition(p2):
    # pulling the reduced coordinates back along a section recovers g(u_a(s))
    from padicdisc import QuotientAlgebra, reduce_to_basis
    fld = p2.field
    g = TruncatedSeries.from_rationals(fld, "t", 0, [3, 0, 5, 1, 0, 7], order=N)
    coords = reduce_to_basis(g, QuotientAlgebra(p2.rel))
    for u in p2.solutions:
        via_section = horner(coords, u)
        direct = compose(g, u)
        assert (via_section - direct).is_zero()
