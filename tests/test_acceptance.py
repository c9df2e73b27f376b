"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Default scale: series order N = 32, digit cap R = 64.  Criteria 7-10 are the
truncated-scale substitutes for the full analytic statements: horizontality to
order N-1, tail-slope radius agreement, cardinality and independence counts,
and randomized oracle equivalence (criterion 11 records that reading).

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import random
from fractions import Fraction

import pytest

from padicdisc import (
    DiffModule,
    DiscMorphism,
    FieldDescriptor,
    TruncatedSeries,
    direct_image,
    element_radius,
    euler_count,
    fiber,
    fundamental_solution_matrix,
    horizontal_check,
    local_solution,
    local_solution_matrix,
    monic_relation,
    optimal_basis,
    optimality_check,
    tree_over_point,
    trivial_optimal_basis,
    vandermonde,
)
from padicdisc.morphism import Fiber
from padicdisc.optimal import BasisColumn, LinkedColumn, OptimalBasis
from padicdisc.series import mult_inverse, radius_estimate
from padicdisc.diffmod import mat_identity, mat_mul, mat_vec
from conftest import N, binom_rationals, constant_rank

R = 64
# Radius estimates read the window [N/2, N), which is [16, 32) at order 32.
WINDOW_ORDER = 32


def _report(num, label, passed):
    print("ACCEPTANCE %02d %-52s %s" % (num, label, "PASS" if passed else "FAIL"))
    assert passed, "criterion %d failed: %s" % (num, label)


# -- 1: f_p identities ---------------------------------------------------------------

def test_criterion_01_fp_identity(p2, p3):
    ok = True
    for setup, p in ((p2, 2), (p3, 3)):
        power = setup.fp
        for _ in range(p - 1):
            power = power * setup.fp
        diff = power - TruncatedSeries.from_rationals(setup.field, "s", 0, [1, 1],
                                                      order=N)
        ok = ok and diff.is_zero()
        ok = ok and min(c.precision() for c in diff.coeffs) > 0
        # independent oracle: the convolution identity holds exactly in Q
        rats = binom_rationals(Fraction(1, p), N)
        conv = list(rats)
        for _ in range(p - 1):
            nxt = [Fraction(0)] * N
            for i, x in enumerate(conv):
                for j, y in enumerate(rats):
                    if i + j < N:
                        nxt[i + j] += x * y
            conv = nxt
        ok = ok and conv[0] == 1 and conv[1] == 1 and all(c == 0 for c in conv[2:])
    _report(1, "f_p(s)^p = 1 + s at tracked precision (p = 2, 3)", ok)


# -- 2: the p=2 Vandermonde ----------------------------------------------------------

def test_criterion_02_p2_vandermonde(p2, inv2f2):
    f2 = p2.fp
    expected = (
        ((f2 - 1) * inv2f2, (f2 + 1) * inv2f2),
        (inv2f2 * p2.field.from_rational(-1), inv2f2),
    )
    ok = all((p2.vd.matrix_v[i][j] - expected[i][j]).is_zero()
             for i in range(2) for j in range(2))
    prod = mat_mul(p2.vd.matrix_u, p2.vd.matrix_v)
    iden = mat_identity(p2.field, "s", p2.field.zero(), 2, N)
    ok = ok and all((prod[i][j] - iden[i][j]).is_zero()
                    for i in range(2) for j in range(2))
    _report(2, "V(s) = (1/(2 f_2)) [[-1+f_2, 1+f_2], [-1, 1]] and U V = I", ok)


# -- 3: V(s) (1..1)^T = E_1 -----------------------------------------------------------

def test_criterion_03_v_ones(p2, p3, q2):
    ok = True
    cases = [(p2.vd, p2.field), (p3.vd, p3.field)]
    rng = random.Random(20240831)
    synthetic = 0
    while synthetic < 20:
        d = rng.randint(2, 4)
        consts = rng.sample([2, 4, 6, 8, 10, 12, 14, 16, 20, 24], d)
        us = []
        for c in consts:
            rats = [c] + [Fraction(rng.randint(-9, 9), rng.choice([1, 2]))
                          for _ in range(11)]
            us.append(TruncatedSeries.from_rationals(q2, "s", 0, rats, order=12))
        fib = Fiber(target=q2.zero(),
                    points=tuple(q2.from_rational(c) for c in consts))
        cases.append((vandermonde(fib, us), q2))
        synthetic += 1
    for vd, fld in cases:
        d = vd.degree
        n = min(c.order for row in vd.matrix_v for c in row)
        ones = [TruncatedSeries.constant(fld, "s", vd.fiber.target, fld.one(), n)] * d
        e1 = mat_vec(vd.matrix_v, ones)
        ok = ok and (e1[0] - 1).is_zero() and all(x.is_zero() for x in e1[1:])
    _report(3, "V(s) (1..1)^T = E_1 (p=2, p=3, 20 synthetic fibers)", ok)


# -- 4: trees -------------------------------------------------------------------------

def test_criterion_04_trees(p2, p3):
    b2 = p2.tree.branch_points
    b3 = p3.tree.branch_points
    ok = (len(b2) == 1 and b2[0].t_exponent == 1 and b2[0].branch_exponent == 2
          and b2[0].delta == 2)
    ok = ok and (len(b3) == 1 and b3[0].t_exponent == Fraction(1, 2)
                 and b3[0].branch_exponent == Fraction(3, 2) and b3[0].delta == 3)
    _report(4, "trees: p=2 (1, 2, delta 2); p=3 (1/2, 3/2, delta 3)", ok)


# -- 5: euler identity on randomized fibers ----------------------------------------------

def _poly_through(field, points, order):
    coeffs = [field.one()]
    for a in points:
        nxt = [field.zero()] * (len(coeffs) + 1)
        for k, c in enumerate(coeffs):
            nxt[k + 1] = nxt[k + 1] + c
            nxt[k] = nxt[k] - c * a
        coeffs = nxt
    coeffs += [field.zero()] * (order - len(coeffs))
    return DiscMorphism(f=TruncatedSeries(field, "t", field.zero(), coeffs),
                        degree=len(points))


def _val(x):
    return Fraction(10 ** 9) if x.is_zero() else Fraction(x.valuation())


def _oracle_lhs(points, ci, ell):
    members = [i for i in range(len(points)) if _val(points[i] - points[ci]) > ell]
    levels = sorted({_val(points[i] - points[j])
                     for i in members for j in members if i < j})
    lhs = 1
    for m in levels:
        if m <= ell or m >= 10 ** 9:
            continue
        for cluster in _components(members, points, m, strict=False):
            if len(cluster) >= 2:
                parts = _components(cluster, points, m, strict=True)
                if len(parts) >= 2:
                    lhs += len(parts) - 1
    return lhs


def _components(indices, points, threshold, strict):
    remaining = set(indices)
    out = []
    while remaining:
        seed = min(remaining)
        remaining.discard(seed)
        stack, comp = [seed], {seed}
        while stack:
            i = stack.pop()
            for j in list(remaining):
                v = _val(points[i] - points[j])
                if (v > threshold) if strict else (v >= threshold):
                    remaining.discard(j)
                    comp.add(j)
                    stack.append(j)
        out.append(sorted(comp))
    return out


def test_criterion_05_euler_randomized():
    q2 = FieldDescriptor(2, digits=32)
    q3pi = FieldDescriptor(3, digits=32, poly=[3, 0, 1], e=2, f=1)
    rng = random.Random(5)
    failures = 0
    for trial in range(200):
        if trial % 4 == 3:
            d = rng.randint(2, 5)
            pts = []
            seen = set()
            while len(pts) < d:
                k = rng.randint(1, 4)
                c0 = rng.randint(-8, 8)
                c1 = rng.randint(-8, 8)
                key = (k, c0, c1)
                if key in seen or (c0 == 0 and c1 == 0):
                    continue
                seen.add(key)
                x = q3pi.from_coords([c0, c1]) * q3pi.uniformizer() ** k
                if any((x - y).is_zero() for y in pts):
                    continue
                pts.append(x)
            field = q3pi
        else:
            d = rng.randint(2, 6)
            vals = rng.sample(range(1, 50), d)
            pts = [q2.from_rational(2 * v) for v in vals]
            field = q2
        order = max(16, d + 2)
        phi = _poly_through(field, pts, order)
        tree = tree_over_point(phi, Fiber(target=field.zero(), points=tuple(pts)))
        ci = rng.randrange(d)
        ell = Fraction(rng.randint(1, 10), 2)
        lhs, rhs = euler_count(tree, (ci, ell))
        if not (lhs == rhs == len([1 for a in pts if _val(a - pts[ci]) > ell])
                and lhs == _oracle_lhs(pts, ci, ell)):
            failures += 1
    _report(5, "Euler identity on 200 randomized fibers vs brute-force oracle",
            failures == 0)


# -- 6: direct image of the trivial module, p=2 ---------------------------------------------

def test_criterion_06_direct_image_p2(p2):
    di = direct_image(p2.trivial, p2.phi, p2.rel)
    sysm = di.system_matrix()
    fld = p2.field
    inv_s1 = mult_inverse(TruncatedSeries.from_rationals(fld, "s", 0, [1, 1], order=N))
    mh = fld.from_rational(Fraction(-1, 2))
    zero = TruncatedSeries.constant(fld, "s", fld.zero(), fld.zero(), N)
    expected = ((zero, inv_s1 * mh), (zero, inv_s1 * mh))
    ok = all((sysm[i][j] - expected[i][j]).is_zero() for i in range(2) for j in range(2))
    _report(6, "p=2 trivial pushforward system = -(1/2)[[0,1/(s+1)],[0,1/(s+1)]]", ok)


# -- helpers shared by 7-10 --------------------------------------------------------------------

def _exp_module(field, order=N):
    minus_one = TruncatedSeries.constant(field, "t", field.zero(),
                                         field.from_rational(-1), order)
    return DiffModule(rank=1, matrix=((minus_one,),), var="t", center=field.zero())


def _rank1_basis_input(setup, module):
    cols = []
    for i, a in enumerate(setup.fib.points):
        hb = local_solution_matrix(module, a)
        cols.append([LinkedColumn(entries=hb.columns[0],
                                  exponent=hb.radii[0].exponent, origin=(i, 0))])
    return cols


@pytest.fixture(scope="session")
def all_bases(p2, p3, p2_exp_module):
    out = []
    di2 = direct_image(p2.trivial, p2.phi, p2.rel)
    out.append(("p2 trivial", trivial_optimal_basis(p2.tree, p2.vd, p2.phi), di2))
    di2e = direct_image(p2_exp_module, p2.phi, p2.rel)
    out.append(("p2 exp",
                optimal_basis(_rank1_basis_input(p2, p2_exp_module), p2.tree, p2.vd,
                              p2.phi),
                di2e))
    di3 = direct_image(p3.trivial, p3.phi, p3.rel)
    out.append(("p3 trivial", trivial_optimal_basis(p3.tree, p3.vd, p3.phi), di3))
    return out


# -- 7: horizontality ---------------------------------------------------------------------------

def test_criterion_07_horizontality(p2, p3, p2_exp_module, all_bases):
    ok = True
    for setup, module in ((p2, p2.trivial), (p2, p2_exp_module), (p3, p3.trivial)):
        di = direct_image(module, setup.phi, setup.rel)
        bases = [local_solution_matrix(module, a) for a in setup.fib.points]
        for col in fundamental_solution_matrix(bases, setup.vd):
            good, worst = horizontal_check(col, di)
            ok = ok and good and worst >= Fraction(R, 2)
    for label, basis, di in all_bases:
        for col in basis.columns:
            good, worst = horizontal_check(col.entries, di)
            ok = ok and good and worst >= Fraction(R, 2)
    _report(7, "every emitted column is horizontal to order N-1", ok)


# -- 8: radii -------------------------------------------------------------------------------------

def test_criterion_08_radii(p2, p3, p2_exp_module, all_bases):
    ok = True
    for label, basis, _ in all_bases:
        for col in basis.columns:
            if col.predicted_exponent == 0:
                continue
            ok = ok and all(e.order == WINDOW_ORDER for e in col.entries)
            est = element_radius(col.entries)
            want = Fraction(2) if label.startswith("p2") else Fraction(3, 2)
            ok = ok and est.exponent == want and est.stable
    ok = ok and p2.fp.order == WINDOW_ORDER
    est_f2 = radius_estimate(p2.fp)
    ok = ok and est_f2.exponent == 2 and est_f2.stable
    _report(8, "tail-slope radii: q=2 (p=2 columns, f_2), q=3/2 (p=3 columns)", ok)


# -- 9: counts -------------------------------------------------------------------------------------

def _synthetic_configs():
    """Etale unit-translate Frobenius families with fibers in the declared field.

    Counts are truncation-independent, so these run at a lighter scale.
    """
    out = []
    q2 = FieldDescriptor(2, digits=48)
    for c, b in ((1, 8), (3, 16), (5, 8), (-1, 24), (7, 32),
                 (1, 16), (3, 8), (-3, 40), (5, 16), (-5, 8)):
        out.append((q2, [0, 2 * c, 1], 2, Fraction(b)))
    q3pi = FieldDescriptor(3, digits=48, poly=[3, 0, 1], e=2, f=1)
    for c, b in ((1, 9), (2, 9), (-1, 18), (4, 9), (-2, 27),
                 (1, 18), (2, 27), (-4, 9), (5, 9), (-1, 9)):
        out.append((q3pi, [0, 3 * c * c, 3 * c, 1], 3, Fraction(b)))
    return out


def test_criterion_09_counts(p2, p3, p2_exp_module, all_bases):
    ok = True
    for label, basis, _ in all_bases:
        d = 2 if label.startswith("p2") else 3
        ok = ok and len(basis) == d and constant_rank(basis.columns) == d
    order = 16
    for fld, coeffs, d, b in _synthetic_configs():
        phi = DiscMorphism(
            f=TruncatedSeries.from_rationals(fld, "t", 0, coeffs, order=order),
            degree=d)
        fib = fiber(phi, fld.from_rational(b))
        tree = tree_over_point(phi, fib)
        us = tuple(local_solution(phi, a, fib.target) for a in fib.points)
        vd = vandermonde(fib, us)
        tb = trivial_optimal_basis(tree, vd, phi)
        ok = ok and len(tb) == d and constant_rank(tb.columns) == d
        # rank-2 module: trivial (+) exponential, upstairs radii supplied analytically
        mod = DiffModule(rank=2, matrix=(
            (TruncatedSeries.constant(fld, "t", fld.zero(), fld.zero(), order),
             TruncatedSeries.constant(fld, "t", fld.zero(), fld.zero(), order)),
            (TruncatedSeries.constant(fld, "t", fld.zero(), fld.zero(), order),
             TruncatedSeries.constant(fld, "t", fld.zero(), fld.from_rational(-1),
                                      order))), var="t", center=fld.zero())
        exp_exponent = Fraction(1, fld.p - 1)
        cols = []
        for i, a in enumerate(fib.points):
            hb = local_solution_matrix(mod, a)
            cols.append([
                LinkedColumn(entries=hb.columns[1], exponent=exp_exponent,
                             origin=(i, 0)),
                LinkedColumn(entries=hb.columns[0], exponent=Fraction(0),
                             origin=(i, 1)),
            ])
        basis = optimal_basis(cols, tree, vd, phi)
        ok = ok and len(basis) == 2 * d and constant_rank(basis.columns) == 2 * d
    _report(9, "counts: |trivial| = d, |general| = r*d (examples + 20 synthetic)", ok)


# -- 10: optimality ----------------------------------------------------------------------------------

def test_criterion_10_optimality(p2, p3, p2_exp_module, all_bases):
    ok = True
    for label, basis, _ in all_bases:
        report = optimality_check(basis)
        ok = ok and report["passed"]
        cols = list(basis.columns)
        wide = min(range(len(cols)), key=lambda i: cols[i].predicted_exponent)
        narrow = max(range(len(cols)), key=lambda i: cols[i].predicted_exponent)
        if cols[wide].predicted_exponent == cols[narrow].predicted_exponent:
            # single radius class (p2 exp): swap a column for the constant E_1
            # while keeping its narrow label; the reduction then gains radius
            fld = basis.columns[0].entries[0].field
            center = basis.columns[0].entries[0].center
            corrupted = tuple(
                TruncatedSeries.constant(fld, "s", center,
                                         fld.one() if i == 0 else fld.zero(), N)
                for i in range(len(basis.columns[0].entries)))
        else:
            # sum of a wide and a narrow column, mislabeled as narrow: the
            # reduction subtracts the narrow one and recovers the wide column
            corrupted = tuple(x + y for x, y in
                              zip(cols[wide].entries, cols[narrow].entries))
        cols[wide] = BasisColumn(entries=corrupted,
                                 predicted_exponent=cols[narrow].predicted_exponent,
                                 estimate=cols[narrow].estimate,
                                 provenance={"corrupted": True})
        broken = optimality_check(OptimalBasis(columns=tuple(cols)))
        ok = ok and not broken["passed"]
    _report(10, "optimality_check: honest bases pass, corrupted bases fail", ok)


# -- 11: scale statement ------------------------------------------------------------------------------

def test_criterion_11_truncated_scale_reading():
    # The full-scale setting (algebraically closed k, radii as suprema) is not
    # reproducible at desk scale; criteria 7-10 substitute order-N horizontality,
    # tail-slope agreement, cardinality/independence, and randomized oracles.
    _report(11, "criteria 7-10 stand in for the full-scale analytic statements", True)
