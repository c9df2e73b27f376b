"""Vandermonde solution transfer and optimal bases for direct images.

U(s) stacks the powers of the local solutions u_{a_i}(s); V(s) = U(s)^{-1}
moves horizontal data from the preimages of b down to coordinates in the
direct-image basis.  Linked optimal bases upstairs plus one branch choice per
branching point yield the optimal basis downstairs; every emitted column
carries its predicted radius exponent next to the tail-slope estimate
so disagreement is observable rather than silently trusted.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import CountMismatch, DegenerateFiber, InconsistentRadii
from .padic import PadicScalar
from .series import RadiusEstimate, TruncatedSeries, compose, recenter
from .morphism import DiscMorphism, Fiber, TreeOverPoint, image_radius
from .diffmod import element_radius, mat_inverse, mat_vec, row_reduce


@dataclass(frozen=True)
class VandermondeData:
    """U(s), V(s) = U(s)^{-1}, and the fiber order they are tied to."""

    matrix_u: tuple
    matrix_v: tuple
    fiber: Fiber
    solutions: tuple

    @property
    def degree(self) -> int:
        return len(self.matrix_u)


@dataclass(frozen=True)
class LinkedColumn:
    """One upstairs horizontal column with its convergence-disc exponent.

    ``origin`` is (preimage index, slot) of the column this one is a literal
    copy of; a column that was never copied is its own origin.
    """

    entries: tuple
    exponent: Fraction
    origin: tuple


@dataclass(frozen=True)
class FundamentalPair:
    """A shared horizontal column together with its exact disc of convergence."""

    pair_id: int
    anchor: int
    slot: int
    exponent: Fraction
    members: tuple
    columns_at: dict       # preimage index -> tuple of entries at that center


@dataclass(frozen=True)
class SelectedBranches:
    """The branch choices for one pair: its own disc plus delta-1 branches
    per branching point inside it."""

    pair_id: int
    choices: tuple         # ("self", None) or ("branch", (bp_index, part_index))


@dataclass(frozen=True)
class BasisColumn:
    entries: tuple
    predicted_exponent: Fraction
    estimate: RadiusEstimate
    provenance: dict


@dataclass(frozen=True)
class OptimalBasis:
    columns: tuple

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
    for i in range(d):
        for j in range(i + 1, d):
            if (u_list[i].coeffs[0] - u_list[j].coeffs[0]).is_zero():
                raise DegenerateFiber("coincident constant terms at precision")
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
    matrix_v = mat_inverse(matrix_u, error=DegenerateFiber)
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


def _transfer_column(entries_at, u_list, vdata: VandermondeData, rank: int) -> tuple:
    """V_r(s) applied to the column whose block at fiber point i is
    ``entries_at[i]`` composed along u_{a_i}(s), and zero at every point
    missing from ``entries_at``."""
    n = min(u.order for u in u_list)
    u = vdata.solutions[0]
    zero = TruncatedSeries.constant(u.field, u.var, u.center, u.field.zero(), n)
    blocks = [[compose(e, u_list[i]) for e in entries_at[i]] if i in entries_at
              else [zero] * rank for i in range(vdata.degree)]
    return transfer_coordinates(blocks, vdata)


def fundamental_solution_matrix(bases, u_list, vdata: VandermondeData) -> tuple:
    """Columns spanning the horizontal space of the direct image at b:
    V_r(s) (+)_i Y_i(u_{a_i}(s)), ordered per preimage then per upstairs column."""
    d = vdata.degree
    if len(bases) != d:
        raise ValueError("need one upstairs basis per fiber point")
    r = len(bases[0].columns)
    return tuple(_transfer_column({i: col}, u_list, vdata, r)
                 for i in range(d) for col in bases[i].columns)


# ----------------------------------------------------------------------------
# linked bases and fundamental pairs
# ----------------------------------------------------------------------------

def _distance(a: PadicScalar, b: PadicScalar):
    d = a - b
    return Fraction(10 ** 9) if d.is_zero() else Fraction(d.valuation())


def linked_bases(bases, fib: Fiber):
    """Make per-preimage optimal bases literally share columns.

    ``bases`` maps each fiber point to a list of LinkedColumn in nondecreasing
    radius (nonincreasing exponent) order.  Following the constructive
    existence proof: scan preimages in fiber order; whenever another preimage
    a_j lies strictly inside a column's convergence disc, that column (suitably
    recentered) replaces a_j's own column in the same slot.
    """
    d = len(fib.points)
    work = [list(cols) for cols in bases]
    for i in range(d):
        for c1, c2 in zip(work[i], work[i][1:]):
            if c1.exponent < c2.exponent:
                raise ValueError("columns must be sorted by nondecreasing radius")
        for j in range(d):
            if j == i:
                continue
            gap = _distance(fib.points[i], fib.points[j])
            for slot, col in enumerate(work[i]):
                if col.origin[0] != i:
                    continue                      # only propagate own columns
                if gap > col.exponent and work[j][slot].origin == (j, slot):
                    entries = tuple(recenter(e, fib.points[j]) for e in col.entries)
                    work[j][slot] = LinkedColumn(entries=entries,
                                                 exponent=col.exponent,
                                                 origin=col.origin)
    _verify_linked(work, fib)
    return [tuple(cols) for cols in work]


def _verify_linked(work, fib: Fiber):
    d = len(fib.points)
    for i in range(d):
        for col in work[i]:
            for j in range(d):
                if j == i:
                    continue
                if _distance(fib.points[i], fib.points[j]) > col.exponent:
                    wanted = tuple(recenter(e, fib.points[j]) for e in col.entries)
                    if not any(_columns_equal(wanted, other.entries)
                               for other in work[j]):
                        raise InconsistentRadii(
                            "linked predicate fails between %d and %d" % (i, j))


def _columns_equal(a, b):
    return all((x - y).is_zero() for x, y in zip(a, b))


def fundamental_pairs(linked, fib: Fiber):
    """Deduplicated (column, disc) pairs, anchored at the least member."""
    d = len(fib.points)
    groups = {}
    for i in range(d):
        for slot, col in enumerate(linked[i]):
            groups.setdefault(col.origin, {"exponent": col.exponent,
                                           "holders": {}})["holders"][i] = col.entries
    pairs = []
    for origin in sorted(groups):
        info = groups[origin]
        holders = info["holders"]
        anchor = min(holders)
        q = info["exponent"]
        members = tuple(sorted(
            j for j in range(d)
            if j in holders or _distance(fib.points[anchor], fib.points[j]) > q))
        if set(members) != set(holders):
            raise InconsistentRadii("pair membership does not match linkage")
        pairs.append(FundamentalPair(pair_id=len(pairs), anchor=anchor,
                                     slot=origin[1], exponent=q,
                                     members=members, columns_at=dict(holders)))
    return tuple(pairs)


# ----------------------------------------------------------------------------
# branch selection and optimal bases
# ----------------------------------------------------------------------------

def branch_selection(tree: TreeOverPoint, pair: FundamentalPair) -> SelectedBranches:
    """The pair's own disc plus delta-1 branches per branching point inside it.

    The dropped branch at each point is the one containing the least fiber
    index there, matching the displayed example choices; correctness does not
    depend on the choice.
    """
    choices = [("self", None)]
    inside = 0
    for bp_index, bp in enumerate(tree.branch_points):
        if bp.t_exponent <= pair.exponent or bp.rep not in pair.members:
            continue
        inside += 1
        drop = min(range(len(bp.parts)), key=lambda k: min(bp.parts[k]))
        for part_index in range(len(bp.parts)):
            if part_index != drop:
                choices.append(("branch", (bp_index, part_index)))
    if len(choices) != len(pair.members):
        raise CountMismatch(
            "selected %d discs for a pair with %d members"
            % (len(choices), len(pair.members)))
    return SelectedBranches(pair_id=pair.pair_id, choices=tuple(choices))


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


def optimal_basis(pairs, selections, tree: TreeOverPoint, vdata: VandermondeData,
                  u_list, phi: DiscMorphism, rank: int = 1) -> OptimalBasis:
    """Columns V_r(s) v_{P,U,s} for every pair P and selected disc U.

    Each column's predicted radius exponent is the exponent of the image disc
    of its branch; the estimate column is the tail-slope measurement.
    """
    d = vdata.degree
    by_id = {sel.pair_id: sel for sel in selections}
    columns = []
    for pair in pairs:
        sel = by_id[pair.pair_id]
        for choice in sel.choices:
            col = _transfer_column({i: pair.columns_at[i]
                                    for i in _choice_members(tree, pair, choice)},
                                   u_list, vdata, rank)
            predicted = _choice_exponent(tree, pair, choice, phi)
            columns.append(BasisColumn(
                entries=col,
                predicted_exponent=predicted,
                estimate=element_radius(col, vdata.fiber.target),
                provenance={"pair": pair.pair_id, "choice": choice},
            ))
    if len(columns) != rank * d:
        raise CountMismatch("emitted %d columns, expected %d" % (len(columns), rank * d))
    return OptimalBasis(columns=tuple(columns))


def trivial_optimal_basis(tree: TreeOverPoint, vdata: VandermondeData,
                          phi: DiscMorphism) -> OptimalBasis:
    """Optimal basis for the direct image of the trivial module.

    The trivial module's horizontal column is the constant 1 on the whole
    disc: one fundamental pair (anchor 0, exponent 0) held by every fiber
    point.  The columns are then V(s) v_U over the selected branches plus
    E_1 = V(s) (1..1)^T, as ``optimal_basis`` builds them.
    """
    d = vdata.degree
    n = min(u.order for u in vdata.solutions)
    fld = vdata.solutions[0].field
    pair = FundamentalPair(
        pair_id=0, anchor=0, slot=0, exponent=Fraction(0),
        members=tuple(range(d)),
        columns_at={i: (TruncatedSeries.constant(fld, "t", tree.fiber.points[i],
                                                 fld.one(), n),)
                    for i in range(d)})
    return optimal_basis((pair,), (branch_selection(tree, pair),), tree, vdata,
                         vdata.solutions, phi)


# ----------------------------------------------------------------------------
# optimality checking
# ----------------------------------------------------------------------------

def constant_rank(columns) -> int:
    """Rank of the constant-term matrix over the field (independence check)."""
    if not columns:
        return 0
    rows = [[col.entries[i].coeffs[0] for col in columns]
            for i in range(len(columns[0].entries))]
    return len(row_reduce(rows, len(columns), lambda c: c, PadicScalar.inverse))


def optimality_check(basis: OptimalBasis, trials: int = 50, seed: int = 0) -> dict:
    """Randomized combination-radius test of the optimality criterion.

    For each radius class, random small-integer combinations of its columns
    must re-estimate to the class exponent; cancellations that gain radius
    witness a non-optimal basis.  Report-valued: never raises.
    """
    rng = random.Random(seed)
    classes = {}
    for idx, col in enumerate(basis.columns):
        classes.setdefault(col.predicted_exponent, []).append(idx)
    target = basis.columns[0].entries[0]
    report = {"classes": [], "passed": True}
    for exponent in sorted(classes):
        idxs = classes[exponent]
        failures = []
        for t in range(trials):
            coeffs = [rng.randint(-3, 3) for _ in idxs]
            if not any(coeffs):
                coeffs[rng.randrange(len(coeffs))] = 1
            combo = None
            for c, idx in zip(coeffs, idxs):
                scaled = tuple(e * c for e in basis.columns[idx].entries)
                combo = scaled if combo is None else tuple(
                    x + y for x, y in zip(combo, scaled))
            if all(e.is_zero() for e in combo):
                continue
            est = element_radius(combo, target.center)
            if est.exponent != exponent:
                failures.append({"trial": t, "coeffs": coeffs,
                                 "estimated": str(est.exponent)})
        report["classes"].append({
            "exponent": str(exponent),
            "members": list(idxs),
            "trials": trials,
            "failures": failures,
        })
        if failures:
            report["passed"] = False
    return report
