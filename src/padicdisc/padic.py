"""Exact arithmetic in Q_p and small declared extensions.

Scalars are vectors of base-field "digits" over a declared field: Q_p itself,
one Eisenstein extension (totally ramified, basis 1, pi, ..., pi^{e-1}) or one
unramified extension (basis 1, w, ..., w^{f-1}).  Each coordinate is stored as
``unit * p^val`` known modulo ``p^prec``; valuations are exact rationals with
denominator dividing e, normalized so that valuation(p) = 1.  All radii in the
library are exponents q meaning radius |p|^q.

Every value is immutable after construction; operations are pure functions.
An operation that cannot certify any digit raises instead of returning noise.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache, cached_property
from operator import add

from .errors import (
    DivisionByZeroAtPrecision,
    HenselHypothesisFailed,
    InvalidField,
    NoConvergence,
    PrecisionPastExact,
)

INF = float("inf")

# Absolute-precision ceiling for exact (rational) values.  Far beyond any
# tracked precision (digit caps are at most _MAX_DIGITS), yet small enough
# that p^_EXACT is a computable modulus; every produced precision is clamped
# here.  The exact zero (0, _EXACT, _EXACT) absorbs under multiplication: 0 * y
# is the exact zero whatever the valuation of y, in _bmul and in _bconv alike.
_EXACT = 4096

# Largest digit cap: a relative precision past _EXACT would read as exact, so
# the cap stays well below it.
_MAX_DIGITS = 2048

# Largest extension degree e*f: a field's compiled multiply-add has O((e f)^2) lines.
MAX_DEGREE = 16


# ----------------------------------------------------------------------------
# base-field digit helpers
#
# A "digit" is a triple (u, v, k): the value is u * p^v, known modulo p^k,
# with u == 0 encoding "zero at precision k" (then v == k as a valuation
# lower bound).  u is kept coprime to p and reduced modulo p^(k - v).
# ----------------------------------------------------------------------------

def _vp_int(n: int, p: int) -> int:
    """v_p(n) for a nonzero int n; ValueError for n = 0, whose valuation is
    infinite."""
    if not n:
        raise ValueError("the valuation of 0 is infinite")
    if n % p:
        return 0
    n //= p
    if n % p:
        return 1
    # p^d > |n| for d = ceil(bits(n) / (bits(p) - 1)), as p >= 2^(bits(p) - 1)
    return 1 + _vp_gcd(p, n, p ** -(-n.bit_length() // (p.bit_length() - 1)))[1]


_POWS = {}


def _ppow(p: int, n: int) -> int:
    # cached small powers; the cache stays tiny (exponents ~ 2 * digit cap)
    if n > 4096:
        return p ** n
    cache = _POWS.get(p)
    if cache is None:
        cache = _POWS[p] = [1, p]
    while len(cache) <= n:
        cache.append(cache[-1] * p)
    return cache[n]


def _vp_gcd(p: int, m: int, M: int) -> tuple:
    """(g, w) with g = p^w the power of p that divides the nonzero int m
    exactly, for M a power of p above |m|: one gcd(m, M) is that power, and
    w is read off its bit length floor(w log2 p) + 1, then checked against
    the powers of p, so it is exact however large w is."""
    g = math.gcd(m, M)
    w = math.ceil((g.bit_length() - 1) / math.log2(p))
    q = _ppow(p, w)
    while q != g:
        # a float rounding put the estimate one off
        w += 1 if q < g else -1
        q = _ppow(p, w)
    return g, w


def _bzero(k: int) -> tuple:
    if k > _EXACT:
        k = _EXACT
    return (0, k, k)


def _bnorm(p: int, m: int, e: int, k: int):
    if k > _EXACT:
        k = _EXACT
    if m == 0 or e >= k:
        return (0, k, k)
    pows = _POWS.get(p, ())
    M = pows[k - e] if k - e < len(pows) else _ppow(p, k - e)
    m %= M
    if m == 0:
        return (0, k, k)
    # m < p^(k - e) = M, so m stripped of its w factors p is below
    # p^(k - e - w), and gcd(m, M) is p^w
    if p == 2:
        w = (m & -m).bit_length() - 1
        return (m >> w, e + w, k)
    if m % p:
        return (m, e, k)
    m //= p
    if m % p:
        return (m, e + 1, k)
    g, w = _vp_gcd(p, m, M)
    return (m // g, e + 1 + w, k)


def _badd(p: int, x: tuple, y: tuple):
    ux, vx, kx = x
    uy, vy, ky = y
    k = min(kx, ky)
    if not ux and not uy:
        return (0, k, k)
    e = min(vx, vy)
    pows = _POWS.get(p, ())
    m = 0
    if ux:
        m += ux * (pows[vx - e] if vx - e < len(pows) else _ppow(p, vx - e))
    if uy:
        m += uy * (pows[vy - e] if vy - e < len(pows) else _ppow(p, vy - e))
    return _bnorm(p, m, e, k)


def _bneg(p: int, x: tuple):
    u, v, k = x
    if not u:
        return x
    return ((-u) % _ppow(p, k - v), v, k)


def _bmul(p: int, x: tuple, y: tuple):
    """x * y known modulo p^min(v_x + k_y, v_y + k_x).  An exact-zero factor
    gives the exact zero, also when the other factor has negative valuation,
    where that rule would cap it below _EXACT; a zero at finite precision
    keeps the rule."""
    ux, vx, kx = x
    uy, vy, ky = y
    k = min(vx + ky, vy + kx, _EXACT)
    v = vx + vy
    if not ux or not uy or v >= k:
        if (not ux and kx >= _EXACT) or (not uy and ky >= _EXACT):
            return (0, _EXACT, _EXACT)
        return (0, k, k)
    # a product of units is a unit: there is no valuation to strip
    return (ux * uy % _ppow(p, k - v), v, k)


def _bconv(field, xs, ys):
    """First N coefficients of the product of two series of N scalars over
    ``field``, given as their coordinate tuples xs[i] and ys[j]; each output
    coefficient is the tuple of its field.n coordinate digits.

    An exact-zero coordinate takes no part, and so neither does an
    exact-zero scalar: its products are exact zeros, as ``_bmul`` gives
    them.  Coordinate c of the unfolded product, conv_c = sum over a + b = c
    of x_a y_b, has at index k the exact sum of the pairs i + j = k, known
    modulo p^K_c with K_c the least min(v_i + k'_j, k_i + v'_j) over the
    pairs that take part, as ``_bmul`` and ``_badd`` would give it.
    Coordinate t of the result is conv_t + sum over c >= dim of
    q_ct conv_c over the coordinates q_ct of X^c modulo the defining
    polynomial (``_conv_plan``), known modulo
    the least of K_t and the K_c + v_p(q_ct), clamped to _EXACT as ``_bnorm``
    clamps: the digits and precisions that ``FieldDescriptor._muladd`` gives
    each scalar product, the fold of the ``_bmul``/``_badd`` convolution (an
    exact-zero conv_c, which that fold skips, has K_c >= _EXACT).
    Only the live rectangle i in [x_lo, x_hi], j in [y_lo, y_hi] can hold a
    live pair, so the precisions are taken over it alone.  A coefficient
    counts as live unless its tuple equals ``field._zero``: one
    tuple comparison.  That is byte-safe whatever form an exact zero takes,
    since the flags only bound the rectangle: a coefficient wrongly flagged
    live widens it, and inside it every exact-zero digit enters the profile
    as INF and packs as 0, as it would outside.

    The values come from big-integer products by multipoint Kronecker
    substitution, KS2 (D. Harvey, Faster polynomial multiplication via
    multipoint Kronecker substitution, JSC 44, 2009).  Each coordinate column
    holds u * p^(v - e), at one exponent e per operand.  Its slot needs width
    bytes so that no slot of a conv_c or of a folded sum overflows into the
    next; with half = ceil(width / 2) and h = 8 half bits, the column's even
    and odd coefficients are packed into slots of 2 half >= width bytes, as E
    and O, the odd ones shifted up by h bits: E + O and E - O are the column
    evaluated at 2^h and -2^h.  At each of the two points the coordinate
    convolution takes one product per coordinate and one per pair of
    coordinates, Karatsuba's identity
    x_s y_t + x_t y_s = (x_s + x_t)(y_s + y_t) - x_s y_s - x_t y_t applied to
    every pair (A. Weimerskirch and C. Paar, Generalizations of the
    Karatsuba algorithm for efficient implementations, 2006): 2, 6 and 12
    products of half the size at dim 1, 2 and 3, where one point would take
    1, 3 and 6 of full size.  A slot of (x_s + x_t)(y_s + y_t) may carry into
    the next: the products are exact integers, so the difference has the
    slots of x_s y_t + x_t y_s again.  With P+ and P- the two values of
    conv_c, (P+ + P-) / 2 holds its even coefficients and
    (P+ - P-) / 2^(h + 1) its odd ones, each in slots of 2 half bytes, which
    still hold every slot read within its bound; only the first ceil(n / 2)
    and floor(n / 2) of those slots are read.  The fold multiplies by
    den * q_ct, den the common denominator of the table, prime to p, which
    normalization divides out again.
    """
    p, dim, n = field.p, field.n, len(xs)
    zero = field._zero
    x_live = [c != zero for c in xs]
    y_live = [c != zero for c in ys]
    # the first live index of each side, n when it has none
    x_lo = x_live.index(True) if True in x_live else n
    y_lo = y_live.index(True) if True in y_live else n
    if x_lo + y_lo >= n:
        return [zero] * n
    x_hi = min(n - 1 - x_live[::-1].index(True), n - 1 - y_lo)
    y_hi = min(n - 1 - y_live[::-1].index(True), n - 1 - x_lo)
    den, bound, plans = field._conv_plan
    top = min(n - 1, x_hi + y_hi)
    precs = []
    for _, terms, _ in plans:
        # each term (a, b, w) of result coordinate t puts x_a's v_i, k_i for
        # i = x_lo .. x_hi against y_b's k'_j + w, v'_j + w for j = y_hi ..
        # y_lo, one block of 2 len(terms) entries per scalar: the pairs
        # i + j = k line up once xvk (s > 0) or ykv (s <= 0) drops its first
        # |s| = B |k - x_lo - y_hi| entries; an exact-zero coordinate, which
        # takes no part, is INF
        xvk, ykv = [], []
        for c in xs[x_lo:x_hi + 1]:
            for a, _, _ in terms:
                u, v, k = c[a]
                xvk += (v, k) if u or k < _EXACT else (INF, INF)
        for c in reversed(ys[y_lo:y_hi + 1]):
            for _, b, w in terms:
                u, v, k = c[b]
                ykv += (k + w, v + w) if u or k < _EXACT else (INF, INF)
        step = 2 * len(terms)
        # a bound at or above _EXACT (INF without live pairs) is clamped by _bnorm
        prec = [INF] * (x_lo + y_lo)
        prec += [min(map(add, xvk[s:], ykv)) if s > 0 else min(map(add, xvk, ykv[-s:]))
                 for s in range(step * (y_lo - y_hi), step * (top - x_lo - y_hi) + 1, step)]
        prec += [INF] * (n - 1 - top)
        precs.append(prec)
    ex = min((v for c in xs for u, v, _ in c if u), default=None)
    ey = min((v for c in ys for u, v, _ in c if u), default=None)
    if ex is None or ey is None:
        return list(zip(*([_bzero(k) for k in prec] for prec in precs)))
    mx = [[u * _ppow(p, v - ex) if u else 0 for u, v, _ in col] for col in zip(*xs)]
    my = [[u * _ppow(p, v - ey) if u else 0 for u, v, _ in col] for col in zip(*ys)]
    # every slot read is below bound * n * max(mx) * max(my) in absolute
    # value, sign bit included
    width = (max(max(col) for col in mx).bit_length() + max(max(col) for col in my).bit_length()
             + (bound * n).bit_length() + 7) // 8
    # KS2: the even and odd coefficients in slots of 2 half >= width bytes,
    # the odd ones h bits up, so that E + O and E - O are the column at 2^h
    # and at -2^h
    half = (width + 1) // 2
    h, slot = 8 * half, 2 * half
    points = []
    for cols in (mx, my):
        packed = []
        for col in cols:
            even = int.from_bytes(b"".join(m.to_bytes(slot, "little") for m in col[::2]), "little")
            odd = int.from_bytes(b"".join(m.to_bytes(slot, "little") for m in col[1::2]),
                                 "little") << h
            packed.append((even + odd, even - odd))
        points.append(zip(*packed))
    convs = []
    for xp, yp in zip(*points):
        square = [x * y for x, y in zip(xp, yp)]
        conv = [0] * (2 * dim - 1)
        for s in range(dim):
            conv[2 * s] += square[s]
            for t in range(s + 1, dim):
                if xp[s] and xp[t] and yp[s] and yp[t]:
                    conv[s + t] += (xp[s] + xp[t]) * (yp[s] + yp[t]) - square[s] - square[t]
                else:
                    conv[s + t] += xp[s] * yp[t] + xp[t] * yp[s]
        convs.append(conv)
    # the even product coefficients are (P(2^h) + P(-2^h)) / 2, the odd ones
    # (P(2^h) - P(-2^h)) / 2^(h + 1), each in slots of 2 half bytes
    n_even, n_odd = (n + 1) // 2, n // 2
    mask_even = (1 << (8 * slot * n_even)) - 1
    mask_odd = (1 << (8 * slot * n_odd)) - 1
    conv_even = [(a + b) >> 1 & mask_even for a, b in zip(*convs)]
    conv_odd = [(a - b) >> (h + 1) & mask_odd for a, b in zip(*convs)]
    e = ex + ey
    out = []
    for (fold, _, signed), prec in zip(plans, precs):
        ms = [0] * n
        for par, (conv, count) in enumerate(((conv_even, n_even), (conv_odd, n_odd))):
            folded = sum(q * conv[c] for c, q, _ in fold)
            if signed:
                # slots s with |s| < 2^(8 slot - 1): biased by 2^(8 slot - 1)
                # they carry nothing, and the xor leaves each in two's complement
                bias = int.from_bytes((1 << (8 * slot - 1)).to_bytes(slot, "little") * count,
                                      "little")
                folded = (folded + bias) ^ bias
            raw = folded.to_bytes(slot * count, "little")
            ms[par::2] = [int.from_bytes(raw[s:s + slot], "little", signed=signed)
                          for s in range(0, slot * count, slot)]
        if den != 1:
            # divide den out modulo p^(K - e), K the clamped precision
            ms = [m * pow(den, -1, _ppow(p, K - e)) if m and K > e else m
                  for m, K in zip(ms, (min(k, _EXACT) for k in prec))]
        out.append([_bnorm(p, m, e, k) for m, k in zip(ms, prec)])
    return list(zip(*out))


def _binv(p: int, x: tuple):
    u, v, k = x
    if not u:
        raise DivisionByZeroAtPrecision(
            "inverse of a value that vanishes at precision %s" % k)
    rel = k - v
    ui = 1 if u == 1 else pow(u, -1, _ppow(p, rel))
    return _bnorm(p, ui, -v, rel - v) if rel - v > _EXACT else (ui, -v, rel - v)


def _conv_plan(p: int, poly):
    """What ``_bconv`` and the compiled kernels fold with, for the monic
    defining polynomial poly (ascending coefficients, p-integral; None for
    Q_p): (den, bound, plans), plans[t] = (fold, terms, signed) for result
    coordinate t.

    X^c modulo poly, for n <= c <= 2n - 2, has coordinates q_ct; the
    polynomial's coefficients are p-integral, hence so is every q_ct.  den
    is the common denominator of the q_ct, prime to p.  fold is the tuple of
    (c, den * q_ct, w) for c = t (q = 1, w = 0) and every nonzero q_ct,
    w = v_p(q_ct) >= 0, in ascending c; terms lists (a, b, w) for each pair
    a + b = c of those c; signed tells whether a fold entry is negative.
    Every slot _bconv reads, of a conv_c or of a folded sum, is below
    bound * N * max(x) * max(y) in absolute value: conv_c sums
    min(c, 2n - 2 - c) + 1 pairs, and a signed slot needs one more bit."""
    n = 1 if poly is None else len(poly) - 1
    rows = []
    if n > 1:
        rows = [[-c for c in poly[:-1]]]  # X^n
        for _ in range(n - 2):
            # X^(c+1) = X * X^c, its top coordinate folded by X^n
            top = rows[-1][-1]
            rows.append([lo + top * q for lo, q in zip([0] + rows[-1][:-1], rows[0])])
    den = math.lcm(*(q.denominator for row in rows for q in row))
    bound = 1
    plans = []
    for t in range(n):
        fold = [(t, den, 0)]
        fold += [(c, den // q.denominator * q.numerator, _vp_int(q.numerator, p))
                 for c, q in enumerate((row[t] for row in rows), n) if q]
        terms = [(a, c - a, w) for c, _, w in fold
                 for a in range(max(0, c - n + 1), min(c, n - 1) + 1)]
        signed = any(q < 0 for _, q, _ in fold)
        bound = max(bound, (1 + signed) * sum(abs(q) * (min(c, 2 * n - 2 - c) + 1)
                                              for c, q, _ in fold))
        plans.append((tuple(fold), terms, signed))
    return den, bound, plans


@cache
def _muladd_kernel(p: int, den: int, folds: tuple):
    """The multiply-add of ``FieldDescriptor._muladd`` for the prime p and
    the product plan of common denominator den and fold entries folds[t],
    compiled once per process, at the first request: straight-line Python
    with the coordinate loops unrolled into locals and the fold and
    ``_bnorm`` inlined.  The inlined ``_bnorm`` strips the valuation one
    division at a time, for every p: the kernel's strips are short (on the
    benchmark's workloads about nine in ten strip at most one factor), too
    short for ``_vp_gcd`` to pay.  An exact-zero digit of a or b reads
    v = k = INF, so its pairs cap no precision.  p, den and the fold
    entries are names in the function's globals, never written into its
    source; it holds no field."""
    n, r = len(folds), range(len(folds))
    env = {"E": _EXACT, "INF": INF, "P": p, "DEN": den, "POW": _POWS.setdefault(p, [1, p]),
           "pw": _ppow}
    env.update((f"Q{s}_{t}", q) for t, fold in enumerate(folds) for s, q, _ in fold)

    def power(d):
        return f"(POW[{d}] if {d} < len(POW) else pw(P, {d}))"

    def least(name, terms):
        return [f"    {name} = {terms[0]}"] + [f"    q = {term}\n    if q < {name}: {name} = q"
                                                for term in terms[1:]]

    src = ["def muladd(a, b, c=None):"]
    for s, x in (("a", "x"), ("b", "y")):
        # the products are exact ints at e = ea + eb, the least unit valuations
        src += ["    %s, = %s" % (", ".join(f"({s}u{i}, {s}v{i}, {s}k{i})" for i in r), s),
                f"    e{s} = {s}v0 if {s}u0 else E"]
        src += [f"    if {s}u{i} and {s}v{i} < e{s}: e{s} = {s}v{i}" for i in r[1:]]
        for i in r:
            src += [f"    {x}{i} = {s}u{i}" if n == 1 else f"    {x}{i} = 0 if not {s}u{i} else "
                    f"{s}u{i} if {s}v{i} == e{s} else {s}u{i} * {power(f'{s}v{i} - e{s}')}",
                    f"    if not {s}u{i} and {s}k{i} >= E: {s}v{i} = {s}k{i} = INF"]
    # conv_s and its precision K_s
    for s in range(2 * n - 1):
        pairs = [(i, s - i) for i in r if 0 <= s - i < n]
        src.append(f"    C{s} = " + " + ".join(f"x{i} * y{j}" for i, j in pairs))
        src += least(f"K{s}", ["E"] + [f"a{v}{i} + b{k}{j}" for i, j in pairs
                                       for v, k in (("v", "k"), ("k", "v"))])
    for t, fold in enumerate(folds):
        src.append(f"    m{t} = " + " + ".join(f"C{s}" if q == 1 else f"Q{s}_{t} * C{s}"
                                               for s, q, _ in fold))
        src += least(f"k{t}", [f"K{s} + {w}" if w else f"K{s}" for s, _, w in fold])
    src.append("    %s = ea + eb" % " = ".join(f"e{t}" for t in r))
    for t in r:
        # the addend, then den divided out once and one _bnorm
        u = "cu" if den == 1 else "DEN * cu"
        src.append(f"""\
    if c is not None:
        cu, cv, ck = c[{t}]
        if ck < k{t}: k{t} = ck
        if cu:
            if cv < e{t}: m{t}, e{t} = m{t} * {power(f'e{t} - cv')} if m{t} else 0, cv
            m{t} += {u} if cv == e{t} else {u} * {power(f'cv - e{t}')}
    r{t} = (0, k{t}, k{t})
    if m{t} and e{t} < k{t}:
        d = k{t} - e{t}
        M = {power('d')}
        m{t} = m{t} {'%' if den == 1 else '* pow(DEN, -1, M) %'} M
        if m{t}:
            while not m{t} % P:
                m{t} //= P
                e{t} += 1
            r{t} = (m{t}, e{t}, k{t})""")
    src.append("    return (%s,)" % ", ".join(f"r{t}" for t in r))
    exec(compile("\n".join(src), "<muladd>", "exec"), env)
    return env["muladd"]


@cache
def _ring_kernel(den: int, folds: tuple):
    """ring(a, b, c, M, D) = (a b + c) mod M in (Z/M)[X]/(poly) on int
    coordinate tuples, for the product plan of common denominator den and
    fold entries folds[t] that ``_muladd_kernel`` reads, D = den^-1 mod M
    (read only when den != 1): the twin of that kernel without precisions
    or ``_bnorm``, compiled once per process, at the first request, as
    straight-line Python with the fold entries names in its globals."""
    n, r = len(folds), range(len(folds))
    env = {f"Q{s}_{t}": q for t, fold in enumerate(folds) for s, q, _ in fold}
    src = ["def ring(a, b, c, M, D):"]
    src += ["    %s, = %s" % (", ".join(f"{s}{i}" for i in r), s) for s in "abc"]
    for s in range(2 * n - 1):
        src.append(f"    C{s} = " + " + ".join(f"a{i} * b{s - i}" for i in r if 0 <= s - i < n))
    out = []
    for t, fold in enumerate(folds):
        m = " + ".join(f"C{s}" if q == 1 else f"Q{s}_{t} * C{s}" for s, q, _ in fold)
        out.append(f"({m} + c{t}) % M" if den == 1 else f"(({m}) * D + c{t}) % M")
    src.append("    return (%s,)" % ", ".join(out))
    exec(compile("\n".join(src), "<ring>", "exec"), env)
    return env["ring"]


def _bfrom_power(p: int, m: int, e: int, rel: int):
    """m * p^e known to rel digits beyond its valuation, the exact zero for
    m = 0; PrecisionPastExact when that reaches p^_EXACT, where the precision
    would read as exact."""
    if m == 0:
        return _bzero(_EXACT)
    w = _vp_int(m, p)
    v = e + w
    if v + rel >= _EXACT:
        raise PrecisionPastExact("a coordinate of valuation %d with %d digits reaches past "
                                 "precision %d" % (v, rel, _EXACT))
    return (m // _ppow(p, w) % _ppow(p, rel), v, v + rel)


def _bfrom_fraction(p: int, q: Fraction, rel: int):
    """q known to rel digits beyond its valuation: ``_bfrom_power`` of
    q = m p^e, m the unit of the numerator over the part of the denominator
    prime to p, taken modulo p^rel."""
    num, den = q.numerator, q.denominator
    e = -_vp_int(den, p)
    den //= _ppow(p, -e)
    if den != 1:
        w = _vp_int(num, p)
        mod = _ppow(p, rel)
        num, e = num // _ppow(p, w) * pow(den, -1, mod) % mod, e + w
    return _bfrom_power(p, num, e, rel)


# Miller-Rabin with the first 13 primes as bases decides every n below this
# bound (J. Sorenson and J. Webster, Math. Comp. 86, 2017).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic primality for n < _PRIME_BOUND; larger n raise InvalidField."""
    if n >= _PRIME_BOUND:
        raise InvalidField("primality of p >= %d is not decided" % _PRIME_BOUND)
    if n < 2:
        return False
    for b in _PRIME_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _PRIME_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ----------------------------------------------------------------------------
# polynomial arithmetic over Z/M on the ring kernel: F_p[X]/(g) for Ben-Or's
# irreducibility test and the fiber search's residue tests, O/p^K for the
# untracked Newton iteration of hensel_lift
# ----------------------------------------------------------------------------

def _ring_horner(ring, coeffs, x, M: int, D: int):
    """sum c_k x^k in (Z/M)[X]/(poly) by Horner, one ``ring`` multiply-add
    acc * x + c_k per step, for a nonempty list of coefficient tuples
    reduced modulo M; ring and D as ``_ring_kernel`` takes them."""
    acc = coeffs[-1]
    for c in coeffs[-2::-1]:
        acc = ring(acc, x, c, M, D)
    return acc


def _fp_gcd(a, b, p):
    a = [x % p for x in a]
    b = [x % p for x in b]
    while any(b):
        while b[-1] == 0:
            b.pop()
        inv = pow(b[-1], -1, p)
        r = list(a)
        while len(r) >= len(b) and any(r):
            while r and r[-1] == 0:
                r.pop()
            if len(r) < len(b):
                break
            c = r[-1] * inv % p
            sh = len(r) - len(b)
            for i, x in enumerate(b):
                r[sh + i] = (r[sh + i] - c * x) % p
        a, b = b, r
    return a


def _fp_irreducible(g, p):
    # g monic of degree n over F_p.  Ben-Or's test: g is irreducible iff
    # gcd(X^{p^k} - X, g) = 1 for every k <= n/2, as every reducible g has an
    # irreducible factor of degree k <= n/2, which divides X^{p^k} - X.
    # h = X^{p^k} mod g is (X^{p^(k-1)})^p, by square-and-multiply on the ring
    # kernel of g's own plan, whose common denominator is 1
    n = len(g) - 1
    den, _, plans = _conv_plan(p, g)
    ring = _ring_kernel(den, tuple(fold for fold, _, _ in plans))
    zero = (0,) * n
    h = (0, 1) + zero[2:]
    for k in range(1, n // 2 + 1):
        base = h
        for bit in bin(p)[3:]:
            h = ring(h, h, zero, p, 1)
            if bit == "1":
                h = ring(h, base, zero, p, 1)
        gc = _fp_gcd(g, [h[0], h[1] - 1, *h[2:]], p)
        if len([c for c in gc if c % p]) != 1 or gc[0] % p == 0:
            return False
    return True


# ----------------------------------------------------------------------------
# field descriptors
# ----------------------------------------------------------------------------

class FieldDescriptor:
    """Q_p or one Eisenstein/unramified extension with a digit cap.

    ``poly`` is the monic defining polynomial (list of rationals, ascending,
    leading coefficient 1) or None for the base field.  ``digits`` is the
    relative precision cap R, 1 <= R <= _MAX_DIGITS: every scalar carries R
    significant p-adic digits beyond its valuation.
    """

    def __init__(self, p: int, digits: int = 64, poly=None, e: int = 1, f: int = 1):
        if not _is_prime(p):
            raise InvalidField("p = %s is not prime" % p)
        if not 1 <= digits <= _MAX_DIGITS:
            raise InvalidField("precision cap must be in 1 .. %d" % _MAX_DIGITS)
        self.p = p
        self.digits = digits
        if poly is None:
            if e != 1 or f != 1:
                raise InvalidField("base field has e = f = 1")
            self.poly = None
            self.kind = "base"
            self.e, self.f, self.n = 1, 1, 1
        else:
            poly = [Fraction(c) for c in poly]
            if poly[-1] != 1:
                raise InvalidField("defining polynomial must be monic")
            n = len(poly) - 1
            if n < 2 or e * f != n:
                raise InvalidField("degree must equal e*f >= 2")
            if n > MAX_DEGREE:
                raise InvalidField("degree %d exceeds %d" % (n, MAX_DEGREE))
            self.poly = tuple(poly)
            self.e, self.f, self.n = e, f, n
            vals = [INF if c == 0 else Fraction(_vp_int(c.numerator, p) - _vp_int(c.denominator, p))
                    for c in poly[:-1]]
            if e == n and f == 1:
                # Eisenstein: one Newton-polygon slope 1/e, hence irreducible
                if vals[0] != 1 or any(v < 1 for v in vals):
                    raise InvalidField("not an Eisenstein polynomial at p")
                self.kind = "eisenstein"
            elif f == n and e == 1:
                if any(v < 0 for v in vals):
                    raise InvalidField("unramified polynomial must be integral")
                g = tuple(c.numerator * pow(c.denominator, -1, p) % p for c in poly)
                if not _fp_irreducible(g, p):
                    raise InvalidField("residue polynomial is reducible over F_p")
                self.kind = "unramified"
            else:
                raise InvalidField("only Eisenstein or unramified extensions; towers out of scope")
        self._conv_plan = _conv_plan(p, self.poly)
        # coordinate tuples, not scalars, so the field is in no reference cycle
        self._zero = tuple(_bzero(_EXACT) for _ in range(self.n))
        self._integers = []
        self._int_inverses = {}

    # -- constructors ---------------------------------------------------------

    def zero(self) -> "PadicScalar":
        return PadicScalar(self, self._zero)

    def one(self) -> "PadicScalar":
        return self._integer(1)

    def _integer(self, j: int) -> "PadicScalar":
        """The scalar j >= 0 as ``from_rational(j)`` builds it, from a table
        of coordinate tuples that grows only to the largest j asked for."""
        table = self._integers
        while len(table) <= j:
            table.append(self.from_rational(len(table)).coords)
        return PadicScalar(self, table[j])

    def _int_inverse(self, j: int) -> tuple:
        """The coordinates of 1/j for an int j >= 1, as ``_inv`` computes
        them from ``from_rational(j)``, from a table that holds only the j
        asked for."""
        inverse = self._int_inverses.get(j)
        if inverse is None:
            inverse = self._int_inverses[j] = self._inv(self.from_rational(j).coords)
        return inverse

    def from_rational(self, q) -> "PadicScalar":
        q = Fraction(q)
        coords = [_bfrom_fraction(self.p, q, self.digits)]
        coords += [_bzero(_EXACT)] * (self.n - 1)
        return PadicScalar(self, tuple(coords))

    def from_coords(self, coords) -> "PadicScalar":
        """Build a scalar from rational coordinates in the power basis."""
        if len(coords) != self.n:
            raise ValueError("expected %d coordinates" % self.n)
        return PadicScalar(self, tuple(
            _bfrom_fraction(self.p, Fraction(c), self.digits) for c in coords))

    def uniformizer(self) -> "PadicScalar":
        if self.kind == "eisenstein":
            coords = [_bzero(_EXACT)] * self.n
            coords[1] = _bfrom_power(self.p, 1, 0, self.digits)
            return PadicScalar(self, tuple(coords))
        return self.from_rational(self.p)

    # -- plumbing -------------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, FieldDescriptor)
                and self.p == other.p and self.poly == other.poly
                and self.e == other.e and self.f == other.f
                and self.digits == other.digits)

    def __repr__(self):
        if self.kind == "base":
            return "Q_%d(digits=%d)" % (self.p, self.digits)
        return "Q_%d[x]/(%s)(e=%d,f=%d,digits=%d)" % (
            self.p, list(map(str, self.poly)), self.e, self.f, self.digits)

    # -- coordinate arithmetic ------------------------------------------------

    def _add(self, a, b):
        p = self.p
        return tuple(_badd(p, x, y) for x, y in zip(a, b))

    def _neg(self, a):
        p = self.p
        return tuple(_bneg(p, x) for x in a)

    def _muladd(self, a, b, c=None):
        """a * b + c on coordinate tuples, c None for the plain product.

        The digits are those of the chain that spells it out: the coordinate
        convolution conv_s = sum over i + j = s of _bmul(a_i, b_j) merged by
        ``_badd``, each conv_s (s >= n) scaled exactly by the coordinate q_st
        of X^s modulo the defining polynomial, w = v_p(q_st) (precision
        k + w, also when v < 0), and added into coordinate t, then ``_badd``
        of c_t.  Every step of that chain is the canonical form of an exact
        sum modulo p^(least precision so far).  So conv_s is taken here as an
        exact int at one exponent e, known modulo p^K_s with K_s the least
        min(v_i + k_j, k_i + v_j) over the pairs i + j = s, starting from
        _EXACT: a pair with an exact-zero digit takes no part, as _bmul makes
        its product the exact zero.  Coordinate t is
            (den conv_t + sum den q_st conv_s + den c_t) / den
        modulo p^(least of K_t, the K_s + w and c_t's precision), den the
        common denominator of the q_st, prime to p, divided out once modulo
        p^(K - e) as ``_bconv`` does, and each coordinate is normalized by one
        ``_bnorm``.  An exact-zero conv_s, which the chain skips, has
        K_s = _EXACT and so caps nothing.  The field's compiled
        ``_muladd_kernel``, resolved at its first product, does the work.
        """
        return self._kernel(a, b, c)

    @cached_property
    def _kernel(self):
        den, _, plans = self._conv_plan
        return _muladd_kernel(self.p, den, tuple(fold for fold, _, _ in plans))

    @cached_property
    def _ring(self):
        # the untracked twin of _kernel, resolved at its first use
        den, _, plans = self._conv_plan
        return _ring_kernel(den, tuple(fold for fold, _, _ in plans))

    # the plain product is the kernel without an addend
    _mul = _muladd

    def _solve(self, mat, rhs):
        """Solve an n x n system over base digits by valuation-pivoted elimination."""
        p, n = self.p, self.n
        m = [list(row) + [rhs[i]] for i, row in enumerate(mat)]
        for col in range(n):
            piv, best = None, None
            for r in range(col, n):
                u, v, k = m[r][col]
                if u and (best is None or v < best):
                    piv, best = r, v
            if piv is None:
                raise DivisionByZeroAtPrecision("singular system at precision")
            m[col], m[piv] = m[piv], m[col]
            inv = _binv(p, m[col][col])
            m[col] = [_bmul(p, inv, x) for x in m[col]]
            for r in range(n):
                if r != col and m[r][col][0]:
                    c = m[r][col]
                    m[r] = [_badd(p, x, _bneg(p, _bmul(p, c, y)))
                            for x, y in zip(m[r], m[col])]
        return tuple(m[i][n] for i in range(n))

    def _inv(self, a):
        if self.n == 1:
            return (_binv(self.p, a[0]),)
        basis = []
        for j in range(self.n):
            ej = [_bzero(_EXACT)] * self.n
            ej[j] = (1, 0, _EXACT)
            basis.append(self._mul(a, tuple(ej)))
        mat = [[basis[j][i] for j in range(self.n)] for i in range(self.n)]
        rhs = [(1, 0, _EXACT)] + [_bzero(_EXACT)] * (self.n - 1)
        return self._solve(mat, rhs)


class PadicScalar:
    """An element of the declared field with tracked valuation and precision."""

    __slots__ = ("field", "coords")

    def __init__(self, field: FieldDescriptor, coords: tuple):
        self.field = field
        self.coords = coords

    # -- queries ---------------------------------------------------------------

    def is_zero(self) -> bool:
        return all(u == 0 for u, _, _ in self.coords)

    def valuation(self):
        """Exact valuation, or +inf when zero at precision: ``_int_valuation``
        divided by e.

        When every nonzero coordinate sits above some zero coordinate's
        precision floor this is still a certified lower bound.
        """
        v = _int_valuation(self)
        return v if v == INF else Fraction(v, self.field.e)

    def precision(self):
        """Absolute precision, or +inf when exact: ``_int_precision`` divided by e."""
        k = _int_precision(self)
        return k if k == INF else Fraction(k, self.field.e)

    def is_exact_zero(self) -> bool:
        return all(u == 0 and k >= _EXACT for u, v, k in self.coords)

    # -- arithmetic -------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, PadicScalar):
            if other.field is not self.field and other.field != self.field:
                raise ValueError("field mismatch")
            return other
        return self.field.from_rational(other)

    def __add__(self, other):
        other = self._coerce(other)
        return PadicScalar(self.field, self.field._add(self.coords, other.coords))

    __radd__ = __add__

    def __neg__(self):
        return PadicScalar(self.field, self.field._neg(self.coords))

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + self._coerce(other)

    def __mul__(self, other):
        other = self._coerce(other)
        return PadicScalar(self.field, self.field._mul(self.coords, other.coords))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is int and other > 0:
            return self * PadicScalar(self.field, self.field._int_inverse(other))
        other = self._coerce(other)
        if other.is_zero():
            raise DivisionByZeroAtPrecision(
                "divisor vanishes at precision %s" % other.precision())
        return self * PadicScalar(self.field, self.field._inv(other.coords))

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def inverse(self):
        return self.field.one() / self

    def __pow__(self, exponent: int):
        if exponent < 0:
            return self.inverse() ** (-exponent)
        if not exponent:
            return self.field.one()
        result = None
        base = self
        while True:
            if exponent & 1:
                result = base if result is None else result * base
            exponent >>= 1
            if not exponent:
                return result
            base = base * base

    def __eq__(self, other):
        try:
            other = self._coerce(other)
        except (ValueError, TypeError):
            return NotImplemented
        return (self - other).is_zero()

    __hash__ = None

    def with_precision(self, prec) -> "PadicScalar":
        """Artificially cap the absolute precision (used to model rough inputs).

        Coordinate i is cut to the least integer k with e k + g_i >= e prec
        (g_i = i in an Eisenstein field, 0 otherwise): the exact ceiling of
        prec - g_i / e, negative caps included.  A coordinate already known
        to fewer digits keeps them.
        """
        prec = Fraction(prec)
        fld = self.field
        num, den, e = prec.numerator, prec.denominator, fld.e
        eisenstein = fld.kind == "eisenstein"
        out = []
        for i, (u, v, k) in enumerate(self.coords):
            cap = -(((i if eisenstein else 0) * den - e * num) // (e * den))
            out.append((u, v, k) if k <= cap else _bnorm(fld.p, u, v, cap))
        return PadicScalar(fld, tuple(out))

    def __repr__(self):
        v = self.valuation()
        ps = ["0" if not u else "%d*p^%d" % (u % 10 ** 6, vv) for u, vv, _ in self.coords]
        body = " + pi*".join(ps) if self.field.kind == "eisenstein" else ", ".join(ps)
        return "<%s | v=%s prec=%s>" % (body, v, self.precision())


# ----------------------------------------------------------------------------
# module-level operations
# ----------------------------------------------------------------------------

def poly_eval(coeffs, x: PadicScalar) -> PadicScalar:
    """sum_k c_k x^k by Horner on coordinate tuples, one
    ``FieldDescriptor._muladd`` acc * x + c_k per step.  Trailing exact-zero
    coefficients are dropped first, so a polynomial padded with exact zeros
    costs its degree; the digits are those of the full loop from the exact
    zero, as an exact zero times x is the exact zero and the exact zero plus
    the top coefficient is that coefficient."""
    fld = x.field
    coeffs = list(coeffs)
    _check_fields(fld, coeffs)
    while coeffs and coeffs[-1].is_exact_zero():
        coeffs.pop()
    if not coeffs:
        return fld.zero()
    muladd, xc = fld._muladd, x.coords
    acc = coeffs[-1].coords
    for c in reversed(coeffs[:-1]):
        acc = muladd(acc, xc, c.coords)
    return PadicScalar(fld, acc)


def _check_fields(fld: FieldDescriptor, scalars):
    """Raise ValueError unless every scalar lies in fld, as arithmetic would."""
    for c in scalars:
        if c.field is not fld and c.field != fld:
            raise ValueError("field mismatch")


def _int_valuation(c: PadicScalar):
    """e * c.valuation() as an int: the least e v + i over the nonzero
    coordinates, i the coordinate index in an Eisenstein field and 0
    otherwise (where e = 1); INF when c is zero at precision."""
    if c.field.kind == "eisenstein":
        e = c.field.e
        ys = [e * v + i for i, (u, v, _) in enumerate(c.coords) if u]
    else:
        ys = [v for u, v, _ in c.coords if u]
    return min(ys) if ys else INF


def _int_precision(c: PadicScalar):
    """e * c.precision() as an int, the twin of ``_int_valuation``: the least
    e k + i over the coordinates known modulo p^k with k < _EXACT; INF when
    c is exact."""
    if c.field.kind == "eisenstein":
        e = c.field.e
        ys = [e * k + i for i, (_, _, k) in enumerate(c.coords) if k < _EXACT]
    else:
        ys = [k for _, _, k in c.coords if k < _EXACT]
    return min(ys) if ys else INF


def poly_derivative(coeffs):
    """The coefficients j c_j, j >= 1: each c_j times the scalar j of its
    field's integer table."""
    return [c * c.field._integer(j) for j, c in enumerate(coeffs[1:], 1)]


def _newton_mod(g, dg, x: PadicScalar, y: PadicScalar):
    """A root of g modulo p^K, K = digits + 2, as int coordinates in
    O/p^K = (Z/p^K)[X]/(poly), Z/p^K for Q_p: Newton's iteration from x,
    with y ~ 1/g'(x) refined by its own step y <- y (2 - g'(x) y), every
    product a step of the field's ring kernel (J. von zur Gathen and
    J. Gerhard, Modern Computer Algebra, ch. 9).  None when g(x) = 0 mod p^K
    takes more than ceil(log2 K) + 2 steps.  All coordinates are integral."""
    fld = x.field
    p, n, K = fld.p, fld.n, fld.digits + 2
    M = _ppow(p, K)
    D = pow(fld._conv_plan[0], -1, M)
    ring = fld._ring
    steps = (K - 1).bit_length() + 2

    def ints(s):
        return tuple(u * _ppow(p, v) % M if u else 0 for u, v, _ in s.coords)

    g, dg, x, y = [ints(c) for c in g], [ints(c) for c in dg], ints(x), ints(y)
    zero = (0,) * n
    two = (2,) + zero[1:]
    for _ in range(steps):
        gx = _ring_horner(ring, g, x, M, D)
        if not any(gx):
            return x
        neg_y = tuple(-c for c in y)
        x = ring(gx, neg_y, x, M, D)
        dy = _ring_horner(ring, dg, x, M, D)
        y = ring(y, ring(dy, neg_y, two, M, D), zero, M, D)
    return None


def hensel_lift(g, x0: PadicScalar, dg=None) -> PadicScalar:
    """Newton-lift a simple root of g from the seed x0.

    The hypothesis v(g(x0)) > 2 v(g'(x0)) is checked up front.  The tracked
    loop x <- x - g(x)/g'(x) always takes its step: once g(x) vanishes at
    precision it returns that step, so the root claims at most the digits
    g(x)/g'(x) supports.  When g'(x0) is a unit, g and x0 are integral and
    g(x0) is nonzero at precision, the loop's first step x1 fixes each
    coordinate's precision; unless g(x1) vanishes, ``_newton_mod`` finds the
    root untracked on the field's ring kernel, and the loop goes on from it,
    promoted to x1's precisions.
    A caller that already holds g' passes it as dg.
    """
    g = list(g)
    if dg is None:
        dg = poly_derivative(g)
    r = poly_eval(g, x0)
    d = poly_eval(dg, x0)
    v_r, v_d = r.valuation(), d.valuation()
    if v_d == INF or not v_r > 2 * v_d:
        raise HenselHypothesisFailed(
            "v(g(x0))=%s must exceed 2*v(g'(x0))=%s" % (v_r, 2 * v_d if v_d != INF else INF))
    fld, x = x0.field, x0
    if v_d == 0 and not r.is_zero() and all(v >= 0 for c in g + [x0] for _, v, _ in c.coords):
        inv_d = PadicScalar(fld, fld._inv(d.coords))
        x = x0 - r * inv_d
        r = poly_eval(g, x)
        root = None if r.is_zero() else _newton_mod(g, dg, x, inv_d)
        if root is not None:
            x = PadicScalar(fld, tuple(_bnorm(fld.p, a, 0, k) for a, (_, _, k) in zip(root, x.coords)))
            r = poly_eval(g, x)
        d = poly_eval(dg, x)
    for _ in range(fld.digits + 5):
        if r.is_zero():
            return x - r / d
        x = x - r / d
        r, d = poly_eval(g, x), poly_eval(dg, x)
    raise NoConvergence("residual did not vanish at the precision cap")
