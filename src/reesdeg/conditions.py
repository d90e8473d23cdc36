"""Fitting ideals of a presentation matrix and the height conditions
G_m and F_m built on them.

For a module presented by an (r+1) x c matrix M, Fitt_i is generated by
the minors of size (rows - i): the unit ideal once the size drops to
zero or below, the zero ideal once it exceeds the column count.  G_m
asks ht Fitt_i > i for every i < m (m may be infinity, meaning every
i below the number of rows); F_m asks ht Fitt_i >= m + i for every
i >= 1.  Certificates record one row per index so a failure names the
offending minor size.

Minors come from one Laplace chain (as Macaulay2's `minors(...,
Strategy => Cofactor)`): the k-minor on rows R and columns C expands
along R's first row into k products with (k-1)-minors on R[1:], read
from a table keyed by (rows, cols).  A k-minor thus costs at most k
products, not k!.  The table and the Fitting ideal handles live on the
PresentationMatrix itself, outside its dataclass fields, so G_m and F_m
on one matrix share every minor and every Groebner basis.  A
determinant is the top minor of the same chain over a fresh table.

An alternating matrix (square, zero diagonal, M[j][i] = -M[i][j],
tested exactly) has even rank, so its k-minors vanish exactly where its
2 ceil(k/2)-sub-Pfaffians do, and the two ideals have one height
(Buchsbaum-Eisenbud, "Algebra structures for finite free resolutions",
Amer. J. Math. 1977).  G_m and F_m read the heights of such a matrix off
its sub-Pfaffians and expand no minor.  These come from a first-row
chain of the same kind: the Pfaffian on an index tuple expands into at
most len - 1 products with Pfaffians on the tuple less its first index
and one other, memoized by index tuple in a table local to one
certificate, so every size shares the smaller sizes.  Their ideals are
kept on the matrix by Pfaffian size, so minor sizes 2j - 1 and 2j, and
G_m and F_m, share one handle and one basis.  Each product of either
chain costs one step of the step budget.  `fitting_ideal` and `minors`
keep the minor route.

Both chains run on the entries' own terms, packed monomials of the
ring (see `ring`), where `+` multiplies two monomials, and a minor's or
Pfaffian's term dict becomes a `Poly` as it is.  A Fitting ideal hands
its minors to the Groebner engine without conversion, and its height is
read off the packed lead monomials of their basis.  A minor leaves the
table once it is handed out: the Fitting ideals ask for each size once,
largest first, and only a larger minor reads a smaller one.  Every
field of an entry and of a memoized minor is below `EXP_BOUND`, so a
product never spills into the next field; a minor whose degree reaches
the bound sets the degree field's guard bit and raises `RingError`.
"""

import math
import operator
from dataclasses import dataclass
from itertools import combinations

from .groebner import IdealHandle, _budget, _charge, _homogeneous
from .hilbert import dim_degree
from .ring import EXP_BOUND, Poly, RingError, _overflow
from .ring import format_poly, format_ring_header, parse_poly, parse_ring_header


@dataclass(frozen=True)
class PresentationMatrix:
    """Matrix of forms over a fixed ring, stored row major."""

    ctx: object
    entries: tuple

    def __post_init__(self):
        rows = tuple(tuple(row) for row in self.entries)
        if not rows or not rows[0]:
            raise RingError("presentation matrix must be nonempty")
        width = len(rows[0])
        for row in rows:
            if len(row) != width:
                raise RingError("ragged presentation matrix")
            for e in row:
                if not isinstance(e, Poly) or e.ctx != self.ctx:
                    raise RingError("matrix entry from a different ring")
        object.__setattr__(self, "entries", rows)
        # memo tables outside the dataclass fields, so eq and hash ignore
        # them: packed minors keyed by (rows, cols) until returned,
        # Fitting ideals by minor size, and the ideals of sub-Pfaffians
        # of an alternating matrix by Pfaffian size
        object.__setattr__(self, "_minors", {})
        object.__setattr__(self, "_fitting", {})
        object.__setattr__(self, "_pfaffians", {})

    @property
    def nrows(self):
        return len(self.entries)

    @property
    def ncols(self):
        return len(self.entries[0])


def _expansion(products, p):
    """Packed sum of the signed products (negate, a, b) of packed term
    dicts, one step of the step budget each.  Over F_p the products add
    up as plain ints, reduced once."""
    acc = {}
    get = acc.get
    budget = _budget()
    for negate, a, b in products:
        _charge(budget)
        for m1, c1 in a.items():
            if negate:
                c1 = -c1
            for m2, c2 in b.items():
                m = m1 + m2
                acc[m] = get(m, 0) + c1 * c2
    got = {}
    for m, c in acc.items():
        if p:
            c %= p
        if c:
            if m & EXP_BOUND:
                raise _overflow()
            got[m] = c
    return got


def _minor(entries, memo, rows, cols, p):
    """Packed minor on row and column index tuples by Laplace expansion
    along its first row: sum over j of (-1)^j M[rows[0]][cols[j]] times
    the memoized minor on (rows[1:], cols without cols[j]).  `entries`
    are packed term dicts and p is the characteristic.  Zero entries and
    zero sub-minors cost no product."""
    if len(rows) == 1:
        return entries[rows[0]][cols[0]]
    key = (rows, cols)
    got = memo.get(key)
    if got is None:
        head, rest = entries[rows[0]], rows[1:]
        products = []
        for j, c in enumerate(cols):
            if head[c]:
                sub = _minor(entries, memo, rest, cols[:j] + cols[j + 1 :], p)
                if sub:
                    products.append((j % 2, head[c], sub))
        got = memo[key] = _expansion(products, p)
    return got


def _pfaffian(entries, memo, idx, p):
    """Packed Pfaffian of the principal submatrix on the index tuple idx,
    of even length at least 2, of an alternating matrix, by expansion
    along its first row: sum over j >= 1 of (-1)^(j+1) M[idx[0]][idx[j]]
    times the memoized Pfaffian on idx without idx[0] and idx[j].  The
    memo is keyed by index tuple, so the sub-Pfaffians of every size
    below len(idx) are left in it for later calls."""
    if len(idx) == 2:
        return entries[idx[0]][idx[1]]
    got = memo.get(idx)
    if got is None:
        head, rest = entries[idx[0]], idx[1:]
        products = []
        for j, c in enumerate(rest):
            if head[c]:
                sub = _pfaffian(entries, memo, rest[:j] + rest[j + 1 :], p)
                if sub:
                    products.append((j % 2, head[c], sub))
        got = memo[idx] = _expansion(products, p)
    return got


def is_alternating(M):
    """True when M is square with a zero diagonal and M[j][i] = -M[i][j]."""
    rows = M.entries
    n = M.nrows
    return (
        n == M.ncols
        and not any(rows[i][i] for i in range(n))
        and not any(rows[i][j] + rows[j][i] for i in range(n) for j in range(i + 1, n))
    )


def pfaffians(M, size, memo=None):
    """All size x size sub-Pfaffians of the alternating matrix M, for
    even size in 2..nrows, as polynomials, principal index subsets in
    lexicographic order.  `memo` keeps the packed sub-Pfaffians of the
    chain between calls; the caller checks that M is alternating."""
    entries = [[e.terms for e in row] for row in M.entries]
    p = M.ctx.field.characteristic
    memo = {} if memo is None else memo
    return [
        Poly(M.ctx, _pfaffian(entries, memo, idx, p), _clean=True)
        for idx in combinations(range(M.nrows), size)
    ]


def determinant(rows):
    """Top minor of the Laplace chain of a square matrix."""
    rows = [list(r) for r in rows]
    if not rows or len(rows) != len(rows[0]):
        raise RingError("determinant of a non-square matrix")
    return minors(PresentationMatrix(rows[0][0].ctx, rows), len(rows))[0]


def minors(M, size):
    """All size x size minors as polynomials (possibly with repeats), row
    subsets then column subsets in lexicographic order.  They come from
    the matrix's own table and then leave it, so with sizes asked for
    largest first, as the Fitting ideals do, each minor of M is expanded
    once.  The 1-minors are the entries themselves."""
    if size < 1:
        raise RingError("minor size must be positive")
    if size == 1:
        return [e for row in M.entries for e in row]
    entries = [[e.terms for e in row] for row in M.entries]
    p = M.ctx.field.characteristic
    memo = M._minors
    got = []
    for rows in combinations(range(M.nrows), size):
        for cols in combinations(range(M.ncols), size):
            got.append(Poly(M.ctx, _minor(entries, memo, rows, cols, p), _clean=True))
            memo.pop((rows, cols), None)
    return got


def fitting_ideal(M, i):
    """Fitt_i of the cokernel: ideal of minors of size (nrows - i).  The
    handle is kept on M, so every call for the same ideal returns the
    same handle and shares its Groebner bases."""
    size = min(max(M.nrows - i, 0), min(M.nrows, M.ncols) + 1)
    got = M._fitting.get(size)
    if got is None:
        gens = [Poly.constant(M.ctx, 1)] if size == 0 else minors(M, size)
        got = M._fitting[size] = IdealHandle(M.ctx, gens)
    return got


def height(I):
    """Codimension of a homogeneous ideal: nvars - dim, inf for the unit
    ideal, 0 for the zero ideal."""
    summ = dim_degree(I)
    if summ.dim is None:
        return math.inf
    return I.ctx.nvars - summ.dim


def _pfaffian_ideal(M, size, memo):
    """Ideal of the size x size sub-Pfaffians of the alternating matrix
    M, for even size in 2..nrows, with the chain's sub-Pfaffians kept in
    `memo`.  The handle is kept on M by size, so the minor sizes 2j - 1
    and 2j, and G_m and F_m, share it and its Groebner bases."""
    got = M._pfaffians.get(size)
    if got is None:
        got = M._pfaffians[size] = IdealHandle(M.ctx, pfaffians(M, size, memo))
    return got


def _fitting_heights(M, top):
    """ht Fitt_i for i = 1 .. top - 1, in order.

    For an alternating M, index i reads the ideal of sub-Pfaffians of
    size 2 ceil((nrows - i) / 2), which has the height of the minors'.

    Fitt_i lies in Fitt_{i+1}, so once one index reaches height nvars
    every later one has height nvars or is the unit ideal.  Homogeneous
    generators generate the unit ideal exactly when one is a nonzero
    constant, so those indices need no Groebner basis.  When every
    nonzero entry of M is a form of one positive degree, so is every
    nonzero minor and sub-Pfaffian, and those indices need not even
    expand them.
    """
    n = M.ctx.nvars
    # every monomial of every entry; the constant monomial packs to 0
    mons = {m for row in M.entries for e in row for m in e.terms}
    forms = 0 not in mons and _homogeneous([mons])
    memo = {} if is_alternating(M) else None

    def ideal_of(i):
        if memo is None:
            return fitting_ideal(M, i)
        return _pfaffian_ideal(M, (M.nrows - i + 1) // 2 * 2, memo)

    ht = 0
    for i in range(1, top):
        if ht < n:
            ht = height(ideal_of(i))
        elif forms:
            # no minor is expanded past here, so the smaller minors the
            # chain left in the table would never leave it
            M._minors.clear()
        else:
            I = ideal_of(i)
            seeds = [g.terms for g in I.gens]
            # a homogeneous generator with a constant term is a constant,
            # and the constant monomial packs to 0
            if _homogeneous(seeds):
                ht = math.inf if any(0 in t for t in seeds) else n
            else:
                ht = height(I)
        yield ht


@dataclass(frozen=True)
class ConditionCertificate:
    """Verdict plus one (index, minor size, height, threshold, ok) row
    per tested Fitting ideal."""

    condition: str
    verdict: bool
    table: tuple


def _certificate(name, M, top, offset, holds):
    """Certificate of `holds(ht Fitt_i, offset + i)` for i = 1 .. top - 1,
    with offset + i as each row's threshold."""
    rows = tuple(
        (i, M.nrows - i, ht, offset + i, holds(ht, offset + i))
        for i, ht in enumerate(_fitting_heights(M, top), 1)
    )
    return ConditionCertificate(name, all(row[4] for row in rows), rows)


def check_Gm(M, m):
    """G_m: ht Fitt_i > i for all 1 <= i < m (m = inf tests every
    index).  Fitt_i is the unit ideal for i >= nrows, so the table stops
    there, and G_inf is G_nrows."""
    if m != math.inf and (not isinstance(m, int) or m < 1):
        raise RingError("G_m level must be a positive integer or inf")
    top = min(m, M.nrows)
    name = "G_%s" % ("inf" if m == math.inf else m)
    return _certificate(name, M, top, 0, operator.gt)


def check_Fm(M, m):
    """F_m: ht Fitt_i >= m + i for all i >= 1 with Fitt_i proper."""
    if not isinstance(m, int) or m < 0:
        raise RingError("F_m level must be a nonnegative integer")
    return _certificate("F_%d" % m, M, M.nrows, m, operator.ge)


def serialize_matrix(M):
    lines = [format_ring_header(M.ctx), "matrix %d x %d" % (M.nrows, M.ncols)]
    for row in M.entries:
        lines.append(", ".join(format_poly(e) for e in row))
    return "\n".join(lines) + "\n"


def parse_matrix_file(text):
    """Ring header, `matrix r x c`, then one comma-separated row per line."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if len(lines) < 2:
        raise RingError("matrix file needs a header and a shape line")
    ctx = parse_ring_header(lines[0])
    shape = lines[1].split()
    if len(shape) != 4 or shape[0] != "matrix" or shape[2] != "x":
        raise RingError("bad shape line %r" % lines[1])
    r, c = int(shape[1]), int(shape[3])
    if len(lines) != 2 + r:
        raise RingError("expected %d matrix rows, found %d" % (r, len(lines) - 2))
    rows = []
    for ln in lines[2:]:
        row = [parse_poly(part, ctx) for part in ln.split(",")]
        if len(row) != c:
            raise RingError("row %r does not have %d entries" % (ln, c))
        rows.append(row)
    return PresentationMatrix(ctx, rows)
