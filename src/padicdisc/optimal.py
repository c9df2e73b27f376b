"""Vandermonde solution transfer and optimal bases for direct images.

U(s) stacks the powers of the local solutions u_{a_i}(s); V(s) = U(s)^{-1}
moves horizontal data from the preimages of b down to coordinates in the
direct-image basis.  ``optimal_basis(bases, tree, vdata, phi)`` takes an
optimal basis upstairs at every preimage and links them, groups the shared
columns into fundamental pairs and picks the branches of each pair itself;
every emitted column carries its predicted radius exponent next to the
tail-slope estimate so disagreement is observable rather than silently
trusted.  ``optimality_check`` certifies a basis by one column echelon
reduction per radius class.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import CountMismatch, DegenerateFiber, InconsistentRadii
from .padic import INF, _int_valuation
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

def _echelon(columns) -> list:
    """Column echelon form of a radius class over the estimator's windows
    [N/2, N), as (reduced column, its coefficients on ``columns``) pairs.
    The index j runs down from N - 1, N an entry position's common order; at
    each j the pivot is the coefficient j of least valuation over every
    windowed entry of every free column, so each multiplier has v >= 0, and
    it clears that coefficient in the other free columns.  Columns still
    free at the end vanish on every window."""
    fld = columns[0][0].field
    orders = [min(e.order for e in row) for row in zip(*columns)]
    free = [(col, tuple(fld.one() if m == k else fld.zero() for m in range(len(columns))))
            for k, col in enumerate(columns)]
    reduced = []
    for j in range(max(orders) - 1, min(orders) // 2 - 1, -1):
        live = [pos for pos, n in enumerate(orders) if n // 2 <= j < n]
        best = None
        for k, (col, _) in enumerate(free):
            for pos in live:
                v = _int_valuation(col[pos].coeffs[j])
                if v != INF and (best is None or v < best[0]):
                    best = v, k, pos
        if best is None:
            continue
        _, k, pos = best
        pivot_col, pivot_combo = free.pop(k)
        pivot = pivot_col[pos].coeffs[j]
        for i, (col, combo) in enumerate(free):
            c = col[pos].coeffs[j]
            if not c.is_zero():
                m = c / pivot
                free[i] = (tuple(x - y * m for x, y in zip(col, pivot_col)),
                           tuple(x - y * m for x, y in zip(combo, pivot_combo)))
        reduced.append((pivot_col, pivot_combo))
    return reduced + free


def optimality_check(basis: OptimalBasis) -> dict:
    """Deterministic optimality test: no combination of a radius class's
    columns converges on a larger disc.  Every column of the class's echelon
    form (``_echelon``) must re-estimate to the class exponent; one that does
    not, or that is zero at precision (dependent columns), is a failure
    naming its coefficients on the members and its estimate.  Column
    operations run on series, so the precision a pivot costs stays tracked;
    only the truncated window is certified.  Report-valued: never raises.
    """
    classes = {}
    for idx, col in enumerate(basis.columns):
        classes.setdefault(col.predicted_exponent, []).append(idx)
    report = {"classes": [], "passed": True}
    for exponent in sorted(classes):
        idxs = classes[exponent]
        failures = []
        for col, combo in _echelon([basis.columns[idx].entries for idx in idxs]):
            est = element_radius(col)
            if est.exponent != exponent or all(e.is_zero() for e in col):
                failures.append({"coeffs": list(combo), "estimated": str(est.exponent)})
        report["classes"].append({"exponent": str(exponent), "members": list(idxs),
                                  "failures": failures})
        report["passed"] = report["passed"] and not failures
    return report
