"""Vandermonde solution transfer and optimal bases for direct images.

U(s) stacks the powers of the local solutions u_{a_i}(s); V(s) = U(s)^{-1}
moves horizontal data from the preimages of b down to coordinates in the
direct-image basis.  ``optimal_basis(bases, tree, vdata, phi)`` takes an
optimal basis upstairs at every preimage and links them, groups the shared
columns into fundamental pairs and picks the branches of each pair itself;
every emitted column carries its predicted radius exponent next to the
tail-slope estimate so disagreement is observable rather than silently
trusted.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .errors import CountMismatch, DegenerateFiber, InconsistentRadii
from .padic import INF, PadicScalar
from .series import RadiusEstimate, TruncatedSeries, compose, recenter
from .morphism import DiscMorphism, Fiber, TreeOverPoint, image_radius
from .diffmod import element_radius, mat_inverse, mat_vec


class VandermondeData:
    """U(s), V(s) = U(s)^{-1}, and the fiber order they are tied to.

    It also keeps what the job has transported along it: ``composed`` maps
    (fiber index i, key of an upstairs entry e) to e(u_{a_i}(s)), and
    ``columns`` maps the keys of a column's blocks to its image under
    V_r(s).  The fundamental matrix and the optimal basis transport the same
    upstairs columns, so each is composed and transferred once, and an
    optimal column equal to a fundamental one is the same tuple.  A key is
    a series' center and coefficient coordinates, so equal entries built
    apart share it.  Series are immutable, so callers may share the results;
    they live as long as this object, which belongs to one job.
    """

    __slots__ = ("matrix_u", "matrix_v", "fiber", "solutions", "composed", "columns")

    def __init__(self, matrix_u: tuple, matrix_v: tuple, fiber: Fiber, solutions: tuple):
        self.matrix_u = matrix_u
        self.matrix_v = matrix_v
        self.fiber = fiber
        self.solutions = solutions
        self.composed = {}
        self.columns = {}

    @property
    def degree(self) -> int:
        return len(self.matrix_u)


class LinkedColumn:
    """One upstairs horizontal column with its convergence-disc exponent.

    ``origin`` is (preimage index, slot) of the column this one is a literal
    copy of; a column that was never copied is its own origin.
    """

    __slots__ = ("entries", "exponent", "origin")

    def __init__(self, entries: tuple, exponent: Fraction, origin: tuple):
        self.entries = entries
        self.exponent = exponent
        self.origin = origin


class FundamentalPair:
    """A shared horizontal column together with its exact disc of convergence."""

    __slots__ = ("pair_id", "anchor", "exponent", "members", "columns_at")

    def __init__(self, pair_id: int, anchor: int, exponent: Fraction, members: tuple,
                 columns_at: dict):
        self.pair_id = pair_id
        self.anchor = anchor
        self.exponent = exponent
        self.members = members
        self.columns_at = columns_at    # preimage index -> tuple of entries at that center


class BasisColumn:
    __slots__ = ("entries", "predicted_exponent", "estimate", "provenance")

    def __init__(self, entries: tuple, predicted_exponent: Fraction,
                 estimate: RadiusEstimate, provenance: dict):
        self.entries = entries
        self.predicted_exponent = predicted_exponent
        self.estimate = estimate
        self.provenance = provenance


class OptimalBasis:
    __slots__ = ("columns",)

    def __init__(self, columns: tuple):
        self.columns = columns

    def __len__(self):
        return len(self.columns)


# ----------------------------------------------------------------------------
# Vandermonde transfer
# ----------------------------------------------------------------------------

def vandermonde(fib: Fiber, u_list) -> VandermondeData:
    """Assemble U(s) from the local solutions and invert it over the series ring."""
    d = len(fib.points)
    u_list = tuple(u_list)
    if len(u_list) != d:
        raise ValueError("need one local solution per fiber point")
    for a, u in zip(fib.points, u_list):
        if not (u.coeffs[0] - a).is_zero():
            raise ValueError("solution constant term does not match the fiber order")
    if any(fib.gaps[i][j] == INF for i in range(d) for j in range(i + 1, d)):
        raise DegenerateFiber("coincident fiber points at precision")
    n = min(u.order for u in u_list)
    fld = u_list[0].field
    one = TruncatedSeries.constant(fld, u_list[0].var, u_list[0].center, fld.one(), n)
    rows = []
    for u in u_list:
        row = [one]
        for _ in range(d - 1):
            row.append(row[-1] * u.truncate(n))
        rows.append(tuple(row))
    matrix_u = tuple(rows)
    matrix_v = mat_inverse(matrix_u)
    return VandermondeData(matrix_u=matrix_u, matrix_v=matrix_v, fiber=fib,
                           solutions=u_list)


def transfer_coordinates(blocks, vdata: VandermondeData) -> tuple:
    """Coordinates in the direct-image basis of per-preimage data.

    ``blocks`` lists, per fiber point i, the r components y_{j,i}(u_{a_i}(s))
    (already composed along the local solution).  Stacking puts y_{j,i} at
    position (j-1)*d + i before applying the block-diagonal V_r(s) = (+)_j V(s),
    which matches the basis order e_1, t e_1, ..., t^{d-1} e_r.
    """
    d = vdata.degree
    if len(blocks) != d:
        raise ValueError("expected %d blocks" % d)
    r = len(blocks[0])
    for blk in blocks:
        if len(blk) != r:
            raise ValueError("ragged blocks")
    out = []
    for j in range(r):
        segment = [blocks[i][j] for i in range(d)]
        out.extend(mat_vec(vdata.matrix_v, segment))
    return tuple(out)


def _series_key(e: TruncatedSeries) -> tuple:
    return e.center.coords, tuple(c.coords for c in e.coeffs)


def _transfer_column(entries_at, vdata: VandermondeData, rank: int) -> tuple:
    """V_r(s) applied to the column whose block at fiber point i is
    ``entries_at[i]`` composed along u_{a_i}(s), and zero at every point
    missing from ``entries_at``; each column and each composition is
    computed once per ``vdata``."""
    keys = {i: tuple(_series_key(e) for e in entries_at[i]) for i in sorted(entries_at)}
    column_key = tuple(keys.items())
    col = vdata.columns.get(column_key)
    if col is not None:
        return col
    us = vdata.solutions
    n = min(u.order for u in us)
    zero = TruncatedSeries.constant(us[0].field, us[0].var, us[0].center,
                                    us[0].field.zero(), n)
    composed = vdata.composed
    for i, entry_keys in keys.items():
        for e, key in zip(entries_at[i], entry_keys):
            if (i, key) not in composed:
                composed[i, key] = compose(e, us[i])
    blocks = [[composed[i, key] for key in keys[i]] if i in keys else [zero] * rank
              for i in range(vdata.degree)]
    col = vdata.columns[column_key] = transfer_coordinates(blocks, vdata)
    return col


def fundamental_solution_matrix(bases, vdata: VandermondeData) -> tuple:
    """Columns spanning the horizontal space of the direct image at b:
    V_r(s) (+)_i Y_i(u_{a_i}(s)), ordered per preimage then per upstairs column."""
    d = vdata.degree
    if len(bases) != d:
        raise ValueError("need one upstairs basis per fiber point")
    r = len(bases[0].columns)
    return tuple(_transfer_column({i: col}, vdata, r)
                 for i in range(d) for col in bases[i].columns)


# ----------------------------------------------------------------------------
# linked bases and fundamental pairs
# ----------------------------------------------------------------------------

def linked_bases(bases, fib: Fiber):
    """Make per-preimage optimal bases literally share columns.

    ``bases`` maps each fiber point to a list of LinkedColumn in nondecreasing
    radius (nonincreasing exponent) order.  Following the constructive
    existence proof: scan preimages in fiber order; whenever another preimage
    a_j lies strictly inside a column's convergence disc, that column (suitably
    recentered) replaces a_j's own column in the same slot.
    """
    work = [list(cols) for cols in bases]
    for i, cols in enumerate(work):
        for c1, c2 in zip(cols, cols[1:]):
            if c1.exponent < c2.exponent:
                raise ValueError("columns must be sorted by nondecreasing radius")
        for slot, col in enumerate(cols):
            if col.origin[0] != i:
                continue                          # only propagate own columns
            for j in fib.members(i, col.exponent):
                if j != i and work[j][slot].origin == (j, slot):
                    entries = tuple(recenter(e, fib.points[j]) for e in col.entries)
                    work[j][slot] = LinkedColumn(entries=entries,
                                                 exponent=col.exponent,
                                                 origin=col.origin)
    _verify_linked(work, fib)
    return [tuple(cols) for cols in work]


def _verify_linked(work, fib: Fiber):
    for i, cols in enumerate(work):
        for col in cols:
            for j in fib.members(i, col.exponent):
                if j == i:
                    continue
                wanted = tuple(recenter(e, fib.points[j]) for e in col.entries)
                if not any(_columns_equal(wanted, other.entries) for other in work[j]):
                    raise InconsistentRadii(
                        "linked predicate fails between %d and %d" % (i, j))


def _columns_equal(a, b):
    return all((x - y).is_zero() for x, y in zip(a, b))


def fundamental_pairs(linked, fib: Fiber):
    """Deduplicated (column, disc) pairs, anchored at the least member."""
    groups = {}
    for i, cols in enumerate(linked):
        for col in cols:
            groups.setdefault(col.origin, {"exponent": col.exponent,
                                           "holders": {}})["holders"][i] = col.entries
    pairs = []
    for origin in sorted(groups):
        info = groups[origin]
        holders = info["holders"]
        anchor = min(holders)
        q = info["exponent"]
        members = fib.members(anchor, q)
        if set(members) != set(holders):
            raise InconsistentRadii("pair membership does not match linkage")
        pairs.append(FundamentalPair(pair_id=len(pairs), anchor=anchor, exponent=q,
                                     members=members, columns_at=dict(holders)))
    return tuple(pairs)


# ----------------------------------------------------------------------------
# branch selection and optimal bases
# ----------------------------------------------------------------------------

def branch_selection(tree: TreeOverPoint, pair: FundamentalPair) -> tuple:
    """The pair's own disc plus delta-1 branches per branching point inside it,
    as choices ("self", None) and ("branch", (bp_index, part_index)).

    The dropped branch at each point is parts[0], the one containing the least
    fiber index there, matching the displayed example choices; correctness
    does not depend on the choice.
    """
    choices = [("self", None)]
    for bp_index in tree.inside(pair.anchor, pair.exponent):
        choices.extend(("branch", (bp_index, part_index))
                       for part_index in range(1, tree.branch_points[bp_index].delta))
    if len(choices) != len(pair.members):
        raise CountMismatch(
            "selected %d discs for a pair with %d members"
            % (len(choices), len(pair.members)))
    return tuple(choices)


def _choice_members(tree: TreeOverPoint, pair: FundamentalPair, choice):
    kind, ref = choice
    if kind == "self":
        return pair.members
    bp_index, part_index = ref
    return tree.branch_points[bp_index].parts[part_index]


def _choice_exponent(tree, pair, choice, phi):
    kind, ref = choice
    if kind == "self":
        return image_radius(phi, tree.fiber.points[pair.anchor], pair.exponent)
    return tree.branch_points[ref[0]].branch_exponent


def optimal_basis(bases, tree: TreeOverPoint, vdata: VandermondeData,
                  phi: DiscMorphism) -> OptimalBasis:
    """Columns V_r(s) v_{P,U,s} for every fundamental pair P and selected disc U.

    ``bases`` lists, per fiber point, its upstairs optimal basis as
    ``LinkedColumn``s of r entries each, in nondecreasing radius order.  They
    are linked, grouped into pairs and given their branch choices here.  Each
    column's predicted radius exponent is the exponent of the image disc of
    its branch; the estimate column is the tail-slope measurement.
    """
    rank = len(bases[0][0].entries)
    columns = []
    for pair in fundamental_pairs(linked_bases(bases, tree.fiber), tree.fiber):
        for choice in branch_selection(tree, pair):
            col = _transfer_column({i: pair.columns_at[i]
                                    for i in _choice_members(tree, pair, choice)},
                                   vdata, rank)
            predicted = _choice_exponent(tree, pair, choice, phi)
            columns.append(BasisColumn(
                entries=col,
                predicted_exponent=predicted,
                estimate=element_radius(col),
                provenance={"pair": pair.pair_id, "choice": choice},
            ))
    if len(columns) != rank * vdata.degree:
        raise CountMismatch("emitted %d columns, expected %d"
                            % (len(columns), rank * vdata.degree))
    return OptimalBasis(columns=tuple(columns))


def trivial_optimal_basis(tree: TreeOverPoint, vdata: VandermondeData,
                          phi: DiscMorphism) -> OptimalBasis:
    """Optimal basis for the direct image of the trivial module: its upstairs
    column is the constant 1 (exponent 0) at every fiber point."""
    n = min(u.order for u in vdata.solutions)
    fld = vdata.solutions[0].field
    return optimal_basis(
        [[LinkedColumn(entries=(TruncatedSeries.constant(fld, "t", a, fld.one(), n),),
                       exponent=Fraction(0), origin=(i, 0))]
         for i, a in enumerate(tree.fiber.points)], tree, vdata, phi)


# ----------------------------------------------------------------------------
# optimality checking
# ----------------------------------------------------------------------------

# Random combinations tried per radius class.
OPTIMALITY_TRIALS = 50


def _combine(entries, scalars, js):
    """Coefficients js of sum_m scalars[m] * entries[m], added up in the order
    series addition adds them, one ``FieldDescriptor._muladd`` per term."""
    fld = entries[0].field
    out = []
    for j in js:
        acc = fld._mul(entries[0].coeffs[j].coords, scalars[0].coords)
        for e, s in zip(entries[1:], scalars[1:]):
            acc = fld._muladd(e.coeffs[j].coords, s.coords, acc)
        out.append(PadicScalar(fld, acc))
    return out


def _trial_estimate(fld, rows, scalars):
    """Estimate of sum_m scalars[m] * column m over the class's entry rows,
    or None when that combination is zero as a whole."""
    window = [_combine(entries, scalars, range(n // 2, n)) for entries, n in rows]
    if all(c.is_zero() for w in window for c in w) and all(
            c.is_zero() for entries, n in rows
            for c in _combine(entries, scalars, range(n // 2))):
        return None
    # the estimate never reads the exact zeros standing in below the window
    return element_radius(tuple(
        TruncatedSeries(fld, entries[0].var, entries[0].center,
                        [fld.zero()] * (n // 2) + w)
        for (entries, n), w in zip(rows, window)))


def optimality_check(basis: OptimalBasis, seed: int = 0) -> dict:
    """Randomized combination-radius test of the optimality criterion.

    For each radius class, random small-integer combinations of its columns
    must re-estimate to the class exponent; cancellations that gain radius
    witness a non-optimal basis.  Report-valued: never raises.

    The estimate reads only the window [N/2, N) of each entry, so only the
    window is combined; the coefficients below it are combined only when the
    window vanishes, to skip a trial whose whole combination is zero.  A
    class of one column is estimated once: c times the column, c a nonzero
    rational, shifts every valuation by v(c), which moves no hull edge, so
    every trial's estimate is the column's own.  Its trials still draw their
    coefficients, so later classes see the same random stream.
    """
    rng = random.Random(seed)
    classes = {}
    for idx, col in enumerate(basis.columns):
        classes.setdefault(col.predicted_exponent, []).append(idx)
    report = {"classes": [], "passed": True}
    for exponent in sorted(classes):
        idxs = classes[exponent]
        fld = basis.columns[idxs[0]].entries[0].field
        # per entry position: the class's entries there and their common order
        rows = [(entries, min(e.order for e in entries))
                for entries in zip(*(basis.columns[idx].entries for idx in idxs))]
        lone = _trial_estimate(fld, rows, [fld.one()]) if len(idxs) == 1 else None
        failures = []
        for t in range(OPTIMALITY_TRIALS):
            coeffs = [rng.randint(-3, 3) for _ in idxs]
            if not any(coeffs):
                coeffs[rng.randrange(len(coeffs))] = 1
            est = lone if len(idxs) == 1 else _trial_estimate(
                fld, rows, [fld.from_rational(c) for c in coeffs])
            if est is not None and est.exponent != exponent:
                failures.append({"trial": t, "coeffs": coeffs,
                                 "estimated": str(est.exponent)})
        report["classes"].append({
            "exponent": str(exponent),
            "members": list(idxs),
            "trials": OPTIMALITY_TRIALS,
            "failures": failures,
        })
        if failures:
            report["passed"] = False
    return report
