"""p-adic differential modules over a disc.

A module is presented by its derivation matrix A in a fixed basis: row i
gives D(e_i) = sum_j a_{ij} e_j.  Horizontal elements in coordinates solve
the associated system dY/dx = -A^T Y.  The direct image along a finite etale
morphism is computed in the basis e_1, t e_1, ..., t^{d-1} e_r (blocks per
e_j, ascending t-powers) by reducing 1/f'(t) and the derivation inside the
rank-d quotient algebra O_s[X]/P(s, X).
"""

from __future__ import annotations

from .errors import DegenerateFiber, NotEtale
from .padic import INF, PadicScalar, _int_valuation
from .series import (
    TruncatedSeries,
    derivative,
    mult_inverse,
    radius_estimate,
    recenter,
)
from .morphism import DiscMorphism, MonicRelation


class DiffModule:
    """rank, derivation matrix (rows = images of basis vectors), variable tag."""

    __slots__ = ("rank", "matrix", "var", "center")

    def __init__(self, rank: int, matrix: tuple, var: str, center: PadicScalar):
        self.rank = rank
        self.matrix = matrix    # rank x rank of TruncatedSeries
        self.var = var
        self.center = center

    def system_matrix(self):
        """The associated system is dY = -A^T Y; returns -A^T."""
        r = self.rank
        return tuple(tuple(-self.matrix[j][i] for j in range(r)) for i in range(r))

    def order(self) -> int:
        return min(c.order for row in self.matrix for c in row)

    @property
    def field(self):
        return self.matrix[0][0].field


class HorizontalMatrix:
    """Columns of candidate horizontal elements at a base point, with radii."""

    __slots__ = ("columns", "radii")

    def __init__(self, columns: tuple, radii: tuple):
        self.columns = columns  # tuple of columns; each column a tuple of TruncatedSeries
        self.radii = radii      # per-column RadiusEstimate


# ----------------------------------------------------------------------------
# matrices of series
# ----------------------------------------------------------------------------

def mat_mul(a, b):
    rows, mid, cols = len(a), len(b), len(b[0])
    out = []
    for i in range(rows):
        row = []
        for j in range(cols):
            acc = a[i][0] * b[0][j]
            for k in range(1, mid):
                acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def mat_vec(a, v):
    return tuple(col[0] for col in mat_mul(a, tuple((x,) for x in v)))


def mat_identity(field, var, center, n, order):
    one = TruncatedSeries.constant(field, var, center, field.one(), order)
    zero = TruncatedSeries.constant(field, var, center, field.zero(), order)
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def row_reduce(rows, width, lead, invert):
    """Gauss-Jordan on the first ``width`` columns of ``rows``, in place.

    Column by column, the pivot is the row at or below the current one whose
    ``lead(entry)`` has the least valuation, compared on the integer gauge
    ``_int_valuation`` (the first such row on ties); it is swapped into place
    and scaled by ``invert(entry)``, and every other row whose entry is
    nonzero at precision is eliminated.  A column without a nonzero entry is
    skipped.  Returns the pivot columns in order.

    Scaling and elimination touch only the columns right of the pivot: the
    pivot search reads only columns not yet reached, and no caller reads a
    column at or left of a pivot again.  So after the call only the pivot
    list and the columns right of the last pivot (the right-hand block) are
    results; the entries at and left of each pivot are left as they were.
    """
    pivots = []
    for col in range(width):
        row = len(pivots)
        piv, best = None, None
        for r in range(row, len(rows)):
            v = _int_valuation(lead(rows[r][col]))
            if v != INF and (best is None or v < best):
                piv, best = r, v
        if piv is None:
            continue
        rows[row], rows[piv] = rows[piv], rows[row]
        pivot_inv = invert(rows[row][col])
        right = [x * pivot_inv for x in rows[row][col + 1:]]
        rows[row][col + 1:] = right
        for r in range(len(rows)):
            if r != row:
                c = rows[r][col]
                if c.is_zero():
                    continue
                rows[r][col + 1:] = [x - c * y for x, y in zip(rows[r][col + 1:], right)]
        pivots.append(col)
    return pivots


def mat_inverse(a):
    """Gauss-Jordan on [a | I] over the series ring; pivots need invertible
    constant terms, and a column without one raises DegenerateFiber."""
    n = len(a)
    iden = mat_identity(a[0][0].field, a[0][0].var, a[0][0].center, n,
                        min(c.order for r in a for c in r))
    rows = [list(row) + list(e) for row, e in zip(a, iden)]
    _reduce_invertible(rows, n, DegenerateFiber)
    return tuple(tuple(row[n:]) for row in rows)


def _reduce_invertible(rows, n, error):
    """Gauss-Jordan on the first n columns of ``rows``, carrying the
    right-hand columns along; a pivot needs an invertible constant term, and
    ``error`` names the first column without one."""
    pivots = row_reduce(rows, n, lambda c: c.coeffs[0], mult_inverse)
    if len(pivots) < n:
        raise error("no invertible pivot in column %d" % min(set(range(n)) - set(pivots)))


# ----------------------------------------------------------------------------
# public operations
# ----------------------------------------------------------------------------

def local_solution_matrix(module: DiffModule, a: PadicScalar) -> HorizontalMatrix:
    """Fundamental matrix Y with Y(a) = I solving dY/dx = -A^T Y.

    Built by the coefficient recursion Y_{k+1} = (sum S_i Y_{k-i}) / (k+1)
    with S = -A^T recentered at a; the division by k+1 is where p-adic digits
    are genuinely spent.  The sum runs over the indices i whose S_i is not
    all exact zeros: an exact zero times anything is the exact zero, and
    adding it changes no digit.  So a constant S (the exponential module)
    costs O(N) products, and S = 0 (the trivial module) none; its Y_k for
    k >= 1 are exact zeros.
    """
    n = module.order()
    r = module.rank
    fld = module.field
    system = module.system_matrix()
    s_shift = tuple(tuple(recenter(c, a) for c in row) for row in system)
    s_coeff = [[[s_shift[i][j].coeffs[k] if k < s_shift[i][j].order else fld.zero()
                 for j in range(r)] for i in range(r)] for k in range(n)]
    live = [i_ for i_, s_i in enumerate(s_coeff)
            if not all(c.is_exact_zero() for row in s_i for c in row)]
    y = [[[fld.one() if i == j else fld.zero() for j in range(r)] for i in range(r)]]
    for k in range(n - 1):
        acc = [[fld.zero() for _ in range(r)] for _ in range(r)]
        for i_ in live:
            if i_ > k:
                break
            s_k = s_coeff[i_]
            y_k = y[k - i_]
            for i in range(r):
                for j in range(r):
                    t = fld.zero()
                    for m in range(r):
                        t = t + s_k[i][m] * y_k[m][j]
                    acc[i][j] = acc[i][j] + t
        y.append([[acc[i][j] / (k + 1) for j in range(r)] for i in range(r)])
    columns = []
    radii = []
    for j in range(r):
        col = tuple(TruncatedSeries(fld, module.var, a, [y[k][i][j] for k in range(n)])
                    for i in range(r))
        columns.append(col)
        radii.append(element_radius(col))
    return HorizontalMatrix(columns=tuple(columns), radii=tuple(radii))


def horizontal_check(column, module: DiffModule):
    """(ok, worst_violation): residual dY/dx + A^T Y must vanish to order N-1.

    worst_violation is +inf when every residual coefficient is zero at its
    tracked precision, otherwise the least valuation among surviving
    coefficients.
    """
    residual = _horizontal_residual(column, module)
    ok = True
    worst = float("inf")
    for entry in residual:
        for c in entry.coeffs:
            if not c.is_zero():
                ok = False
                v = c.valuation()
                if v < worst:
                    worst = v
    return ok, worst


def _horizontal_residual(column, module: DiffModule):
    column = tuple(column)
    r = module.rank
    a_t = tuple(tuple(module.matrix[j][i] for j in range(r)) for i in range(r))
    center = column[0].center
    if not (center - module.center).is_zero():
        a_t = tuple(tuple(recenter(c, center) for c in row) for row in a_t)
    n = min(min(c.order for c in column), module.order())
    residual = []
    for i in range(r):
        acc = derivative(column[i].truncate(n))
        for j in range(r):
            acc = acc + (a_t[i][j].truncate(n) * column[j].truncate(n)).truncate(acc.order)
        residual.append(acc)
    return residual


def element_radius(column) -> RadiusEstimate:
    """Vector radius: minimum of component radii = maximum exponent q."""
    best = None
    for entry in column:
        est = radius_estimate(entry)
        if best is None or est.exponent > best.exponent:
            best = est
    return best


class QuotientAlgebra:
    """O_s[X]/P(s, X), elements as coordinate vectors over 1, t, ..., t^{d-1}.

    Owns the power table t^k mod P(s, X).  It starts at t^0 .. t^{d-1} and
    grows only as far as ``power`` is asked: each t^k is reduced once per
    algebra, with t^d = -sum a_j(s) t^j.
    """

    def __init__(self, relation: MonicRelation):
        self.relation = relation
        self.d = relation.degree
        self.order = min(c.order for c in relation.coeffs)
        fld = relation.coeffs[0].field
        var = relation.coeffs[0].var
        self.zero = TruncatedSeries.constant(fld, var, relation.center, fld.zero(),
                                             self.order)
        one = TruncatedSeries.constant(fld, var, relation.center, fld.one(), self.order)
        self._table = [tuple(one if m == k else self.zero for m in range(self.d))
                       for k in range(self.d)]

    def power(self, k: int) -> tuple:
        """Coordinates of t^k."""
        table, d, n = self._table, self.d, self.order
        while len(table) <= k:
            prev = table[-1]
            shifted = [self.zero] + list(prev[:-1])
            top = prev[d - 1]
            table.append(tuple(shifted[m] - top * self.relation.coeffs[m].truncate(n)
                               for m in range(d)))
        return table[k]

    def mul(self, x, y):
        d = self.d
        out = [self.zero] * d
        for i in range(d):
            if x[i].is_zero():
                continue
            for j in range(d):
                if y[j].is_zero():
                    continue
                prod = x[i] * y[j]
                for m, t in enumerate(self.power(i + j)):
                    if not t.is_zero():
                        out[m] = out[m] + prod * t
        return tuple(out)

    def invert(self, x):
        """Solve x * z = 1 by a d x d linear system over s-series: the
        columns are the coordinates of x t^j, the right-hand side those of 1."""
        d = self.d
        cols = [self.mul(x, self.power(j)) for j in range(d)]
        rows = [[cols[j][i] for j in range(d)] + [self.power(0)[i]] for i in range(d)]
        _reduce_invertible(rows, d, NotEtale)
        return tuple(row[d] for row in rows)


def reduce_to_basis(g: TruncatedSeries, quot: QuotientAlgebra):
    """Coordinates (g_0(s), ..., g_{d-1}(s)) of a t-polynomial modulo P(s, X).

    Called as ``reduce_to_basis(g, QuotientAlgebra(relation))``; callers that
    reduce several polynomials pass one algebra, so each power of t is
    reduced once.  g has scalar coefficients in t; exact-zero coefficients
    are skipped, so the algebra's power table grows only to the last
    coefficient of g that is not an exact zero.
    """
    out = [quot.zero] * quot.d
    for k, c in enumerate(g.coeffs):
        if c.is_exact_zero():
            continue
        for m, t in enumerate(quot.power(k)):
            if not t.is_zero():
                out[m] = out[m] + t * c
    return tuple(out)


def direct_image(module: DiffModule, phi: DiscMorphism, relation: MonicRelation) -> DiffModule:
    """The rank r*d module downstairs in the basis e_1, t e_1, ..., t^{d-1} e_r.

    D_s(t^m e_j) = (1/f') (m t^{m-1} e_j + t^m sum_l A_{jl}(t) e_l), with every
    t-coefficient reduced to quotient coordinates over s.
    """
    phi.require_etale()
    r = module.rank
    d = relation.degree
    quot = QuotientAlgebra(relation)
    fprime = reduce_to_basis(phi.derivative_series(), quot)
    inv_fprime = quot.invert(fprime)
    a_reduced = [[None] * r for _ in range(r)]
    for j in range(r):
        for l in range(r):
            a_reduced[j][l] = reduce_to_basis(module.matrix[j][l], quot)
    rows = []
    for j in range(r):
        for m in range(d):
            row_blocks = []
            for l in range(r):
                vec = quot.mul(quot.power(m), a_reduced[j][l])
                if l == j and m >= 1:
                    shifted = list(quot.power(m - 1))
                    vec = tuple(v + s * m for v, s in zip(vec, shifted))
                vec = quot.mul(inv_fprime, vec)
                row_blocks.extend(vec)
            rows.append(tuple(row_blocks))
    return DiffModule(rank=r * d, matrix=tuple(rows), var=relation.coeffs[0].var,
                      center=relation.center)


def inverse_derivative_coordinates(phi: DiscMorphism, relation: MonicRelation):
    """Quotient coordinates of 1/f'(t) over s (the displayed decomposition)."""
    quot = QuotientAlgebra(relation)
    return quot.invert(reduce_to_basis(phi.derivative_series(), quot))
