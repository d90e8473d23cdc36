"""Fitting ideals of a presentation matrix and the height conditions
G_m and F_m built on them.

For a module presented by an (r+1) x c matrix M, Fitt_i is generated by
the minors of size (rows - i): the unit ideal once the size drops to
zero or below, the zero ideal once it exceeds the column count.  G_m
asks ht Fitt_i > i for every i < m (m may be infinity, meaning every
i below the number of rows); F_m asks ht Fitt_i >= m + i for every
i >= 1.  Certificates record one row per index so a failure names the
offending minor size.

Minors and sub-Pfaffians come from one first-row chain.  The Pfaffian
of an alternating matrix on an index tuple expands along its first row
into at most len - 1 products with Pfaffians on the tuple less its
first index and one other, memoized by index tuple, so every size
shares the smaller sizes.  Minors are sub-Pfaffians too: for
N = [[0, M], [-M^T, 0]], the sub-Pfaffian on R + (nrows + C), with
|R| = |C| = k, is (-1)^(k(k-1)/2) det M_{R,C}.  On such a balanced
tuple the head of the expansion is row R[0] of M: its entries against
R[1:] lie in the zero block and cost no product, and the others are M's
own, so a k-minor costs at most k products, as Laplace expansion along
a row does (Macaulay2's `minors(..., Strategy => Cofactor)`).  The
chain reads only rows of M, each behind nrows empty entries, so -M^T is
never built.  A determinant is the top minor.

An alternating matrix (square, zero diagonal, M[j][i] = -M[i][j],
tested exactly) has even rank, so its k-minors vanish exactly where its
2 ceil(k/2)-sub-Pfaffians do, and the two ideals have one height
(Buchsbaum-Eisenbud, "Algebra structures for finite free resolutions",
Amer. J. Math. 1977).  G_m and F_m read the heights of such a matrix off
its sub-Pfaffians and expand no minor; `fitting_ideal` and `minors`
keep the minor route, the oracle of this one.

A matrix's heights ht Fitt_1 .. ht Fitt_{nrows-1} come from one pass,
which G_m and F_m share: the matrix's `heights`, computed on first
read and kept outside its dataclass fields.  The chain's memo of terms
and the ideals live as long as the pass, so minor sizes 2j - 1 and 2j
of an alternating matrix share one ideal and one basis.  Each product
of the chain costs one step of the step budget.

A height is read off a span when it can be: if the forms of degree t in
an ideal I span S_t, then m^t lies in I and ht I = nvars.  When every
nonzero entry is a form of one positive degree e, in a ring with no
parameters, every nonzero k-minor is a form of degree k*e and every
nonzero 2j-sub-Pfaffian one of degree j*e.  The pass then streams the
forms of an index lazily out of the chain into one Gauss-Jordan block,
the engine's `_gauss_jordan`, which stops once it holds C(nvars-1+t, t)
pivots: the index has height nvars, and no Buchberger run is made.
This test, the coprimality test below and the m-primary test of
`blowup` read one kind of row, from one generator, `_raised`: a form, on
one image, times a monomial that raises it to degree t, one budget step
per product by a monomial of positive degree.

The stream picks one image per index before it reads a form: values
when q > t and the forms are products, else packed terms.  The chain
takes the entries' values at the lattice points alpha in N^nvars with
|alpha| = t (`_Lattice`), and its products are pointwise, mod p over F_p
and mod the fixed prime `_VALUE_PRIME` over Q (q = 0, for no values,
when it divides a denominator).  Taking values is linear, so value rows
of full rank prove a span whatever the points are, and a rank mod q is
at most the rank over Q.  For p > t, and over Q, the points are
unisolvent for forms of degree t, so the values span exactly when the
forms do (over Q unless q lowers a rank).  Entries take no product to
save and stream their terms.  An index streams nothing when its forms
are too few to fill the pivots, or when one of them would be raised by
more than `_KERNEL_COLUMNS` monomials; it then takes the run on its
forms, as does one whose stream does not span.  The stream reads its
index tuples in reverse lexicographic order, later rows first: the
chain expands along the first index, so the forms that come first share
their sub-Pfaffians on the later indices.  `minors`, `pfaffians` and
`fitting_ideal` keep the lexicographic order, and so do the heights of
every other matrix, whose ideals take the run with all their forms.

By default the chain runs on the entries' own terms, packed monomials
of the ring (see `ring`), where `+` multiplies two monomials, and a
minor's or Pfaffian's term dict becomes a `Poly` as it is; the height
pass also runs it on values and, for the coprimality test of Fitt_1,
on binary forms on a line.  A Fitting ideal hands its minors to the
Groebner engine without conversion, and its height is read off the
packed lead monomials of their basis: dim S/I = dim S/in(I) for every
monomial order, so the ideal need not be homogeneous.  Every field of an
entry and of a memoized minor is below `EXP_BOUND`, so a product never
spills into the next field; a minor whose degree reaches the bound sets
the degree field's guard bit and raises `RingError`.
"""

import math
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from itertools import combinations, islice
from math import comb

from .groebner import IdealHandle, _budget, _charge, _gauss_jordan, _homogeneous, _integral
from .hilbert import lead_ideal, monomial_dim_degree
from .ring import _MASK, Poly, RingError, _monomials, _product_sum, monomials_of_degree
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

    @property
    def nrows(self):
        return len(self.entries)

    @property
    def ncols(self):
        return len(self.entries[0])

    @cached_property
    def heights(self):
        """(ht Fitt_1, .., ht Fitt_{nrows-1}) from one `_height_pass`."""
        return _height_pass(self)


def _expansion(products, p):
    """`ring._product_sum` of the list of signed products (negate, a, b)
    of term dicts whose keys add: packed monomials, or the powers of t of
    binary forms on a line (`_on_line`).  One step of the step budget
    each."""
    _charge(_budget(), len(products))
    return _product_sum(products, p)


def _pointwise(products, q):
    """Sum of the signed products (negate, a, b) of value lists, the
    values of forms at the points of one `_Lattice`, point by point mod
    q; () when every value is 0.  One step of the step budget each."""
    budget = _budget()
    acc = None
    for negate, a, b in products:
        _charge(budget)
        if acc is None:
            acc = [-x * y for x, y in zip(a, b)] if negate else [x * y for x, y in zip(a, b)]
        elif negate:
            acc = [v - x * y for v, x, y in zip(acc, a, b)]
        else:
            acc = [v + x * y for v, x, y in zip(acc, a, b)]
    acc = [v % q for v in acc or ()]
    return acc if any(acc) else ()


def _pfaffian(entries, memo, idx, expand):
    """Pfaffian of the principal submatrix on the index tuple idx, of
    even length at least 2, of an alternating matrix N, by expansion
    along its first row: sum over j >= 1 of (-1)^(j+1) N[idx[0]][idx[j]]
    times the memoized Pfaffian on idx without idx[0] and idx[j].
    `entries` holds N's rows as images of its entries, and `expand` sums
    signed products of images (`_expansion`, `_pointwise`); only the rows
    that idx and its sub-tuples start with are read, so the others may be
    left out.  Zero entries and zero sub-Pfaffians, false images, cost no
    product."""
    if len(idx) == 2:
        return entries[idx[0]][idx[1]]
    got = memo.get(idx)
    if got is None:
        head, rest = entries[idx[0]], idx[1:]
        products = []
        for j, c in enumerate(rest):
            if head[c]:
                sub = _pfaffian(entries, memo, rest[:j] + rest[j + 1 :], expand)
                if sub:
                    products.append((j % 2, head[c], sub))
        got = memo[idx] = expand(products)
    return got


def _tuples(M, size, minor):
    """The index tuples of `_chain` in lexicographic order: balanced
    tuples R + (nrows + C), row subsets then column subsets, when
    `minor`; else principal index subsets."""
    tuples = list(combinations(range(M.nrows), size))
    if minor:
        cols = list(combinations(range(M.nrows, M.nrows + M.ncols), size))
        tuples = [rows + c for rows in tuples for c in cols]
    return tuples


def _chain(M, size, memo, minor, reverse=False, on=None):
    """The size x size minors of M when `minor`, each up to the sign
    (-1)^(size(size-1)/2) that `minors` restores: the sub-Pfaffian of
    [[0, M], [-M^T, 0]] on its balanced tuple; else the size x size
    sub-Pfaffians of the alternating M.  A lazy iterator over `_tuples`,
    or with `reverse` over the same tuples in the reverse order, each
    expanded through `memo` when it is read.

    By default the chain runs on the entries' packed term dicts and
    multiplies with `_expansion` at M's characteristic.  `on`, a pair
    (entry, expand), runs the same chain on entry(e) of each entry e,
    with expand as the sum of signed products: values at lattice points
    (`_Lattice`, `_pointwise`) or binary forms on a line (`_on_line`).
    Taking values or restricting to a line is a ring map, so it carries
    each minor to the minor of the entries' images.  Such a chain serves
    one stream, so its memo keeps only the sub-Pfaffians that later forms
    read: each form it yields leaves the memo."""
    keep = on is None
    if keep:
        on = operator.attrgetter("terms"), partial(_expansion, p=M.ctx.field.characteristic)
    entry, expand = on
    pad = [{}] * M.nrows if minor else []
    entries = [pad + [entry(e) for e in row] for row in M.entries]
    tuples = _tuples(M, size, minor)
    for idx in reversed(tuples) if reverse else tuples:
        yield _pfaffian(entries, memo, idx, expand)
        if not keep:
            memo.pop(idx, None)


def column_degrees(M):
    """(mu_1, ..., mu_c) when each column j of M holds forms of one
    positive degree mu_j, not all 0, in every variable of the ring
    (parameters too); else None."""
    mu = []
    for j in range(M.ncols):
        degrees = {m & _MASK for row in M.entries for m in row[j].terms}
        if len(degrees) != 1 or 0 in degrees:
            return None
        mu.append(degrees.pop())
    return tuple(mu)


def _shifted(f, u):
    """f times u, for term dicts whose keys add: packed, or on a line."""
    return {m + u: c for m, c in f.items()}


# the widest linear-algebra certificate: the columns of a syzygy kernel of
# the Hilbert-Burch rule of `blowup`, (r+1)*C(e+r, r) in degree e, the 2d
# Sylvester rows of a coprimality test, and the monomials that raise one
# form of a span test.  On a 2-vCPU VM the rule took about 60 ms on a
# 3 x 2 matrix of sextics (84 columns), and 1.6 s on x0^5000, x1^5000,
# whose one column of degree 5000 is a kernel of 10 002 columns, where
# the Rees route takes 0.01 s.  The span test of Fitt_2 of a 3 x 2 matrix
# of column degrees (100, 1) would raise each entry of degree 1 by 5 050
# monomials, 13.3 M steps where the run takes 4.  A wider certificate is
# left to the run it stands in for.
_KERNEL_COLUMNS = 120


def _raised(forms, lifts, units, times):
    """The rows of a span test, lazily: times(f, u) for each nonzero form
    f of `forms`, its lift e the next of `lifts`, and each image u in
    units(e) of the monomials of degree e; one budget step each when
    e > 0.  An image of the forms brings its own `units` and `times`."""
    budget = _budget()
    for f, e in zip(forms, lifts):
        if f:
            for u in units(e):
                if e:
                    _charge(budget)
                yield times(f, u)


def _polys(ctx, forms):
    """The packed term dicts `forms` as polynomials of ctx."""
    return [Poly(ctx, t, _clean=True) for t in forms]


def is_alternating(M):
    """True when M is square with a zero diagonal and M[j][i] = -M[i][j]."""
    rows = M.entries
    n = M.nrows
    return (
        n == M.ncols
        and not any(rows[i][i] for i in range(n))
        and not any(rows[i][j] + rows[j][i] for i in range(n) for j in range(i + 1, n))
    )


def pfaffians(M, size):
    """All size x size sub-Pfaffians of the alternating matrix M, for
    even size in 2..nrows, as polynomials, principal index subsets in
    lexicographic order; the caller checks that M is alternating."""
    return _polys(M.ctx, _chain(M, size, {}, False))


def determinant(rows):
    """Top minor of the chain of a square matrix."""
    rows = [list(r) for r in rows]
    if not rows or len(rows) != len(rows[0]):
        raise RingError("determinant of a non-square matrix")
    return minors(PresentationMatrix(rows[0][0].ctx, rows), len(rows))[0]


def minors(M, size):
    """All size x size minors as polynomials (possibly with repeats), row
    subsets then column subsets in lexicographic order; none past
    min(nrows, ncols)."""
    if size < 1:
        raise RingError("minor size must be positive")
    got = _polys(M.ctx, _chain(M, size, {}, True))
    return [-f for f in got] if size * (size - 1) // 2 % 2 else got


def signed_maximal_minors(M):
    """Map coordinates from an (r+1) x r matrix: g_i is (-1)^i times the
    minor dropping row i, so that M^T g = 0.  They come from one call of
    `minors`, which lists them dropping row r, r-1, ..., 0, so they share
    their sub-minors."""
    if M.nrows != M.ncols + 1:
        raise RingError("maximal minors need an (r+1) x r matrix")
    return [d if i % 2 == 0 else -d for i, d in enumerate(reversed(minors(M, M.ncols)))]


def fitting_ideal(M, i):
    """Fitt_i of the cokernel: ideal of minors of size (nrows - i), the
    unit ideal for i >= nrows and the zero ideal past the column count."""
    size = M.nrows - i
    return IdealHandle(M.ctx, [Poly.constant(M.ctx, 1)] if size < 1 else minors(M, size))


def height(I):
    """Codimension of an ideal of a ring with no parameters:
    nvars - dim S/I, inf for the unit ideal, 0 for the zero ideal.
    dim S/I = dim S/in(I) for every monomial order, so the height is read
    off the leads of a basis, and I need not be homogeneous."""
    if I.ctx.n_params:
        raise RingError("dimension computations need all variables in degree 1")
    summ = monomial_dim_degree(lead_ideal(I), I.ctx.nvars)
    if summ.dim is None:
        return math.inf
    return I.ctx.nvars - summ.dim


# bounded, so a long session cannot grow it without limit
@lru_cache(maxsize=4096)
def _monomial_on_line(e):
    """The monomial of exponent tuple e on the line s*(1, ..., 1) +
    t*(1, 2, ..., n), where x_k is s + (k+1)*t: the coefficients of
    t^j s^(deg - j), j = 0..deg, as integers."""
    acc = [1]
    for k, x in enumerate(e):
        for _ in range(x):
            acc = [a + (k + 1) * b for a, b in zip(acc + [0], [0] + acc)]
    return tuple(acc)


def _on_line(ctx, terms, p):
    """The packed form `terms` on the line of `_monomial_on_line`, as
    {j: coefficient of t^j s^(deg - j)} over the field of characteristic
    p; each term costs one budget step."""
    unpack = ctx.packing.unpack
    budget = _budget()
    out = {}
    for m, c in terms.items():
        _charge(budget)
        for j, a in enumerate(_monomial_on_line(unpack(m))):
            out[j] = out.get(j, 0) + c * a
    return {j: w for j, a in out.items() if (w := a % p if p else a)}


def _coprime(f, g, d, p):
    """True when the nonzero binary forms f and g of degree d > 0, integer
    dicts {j: coefficient of t^j s^(d - j)} such as two forms on the line
    of `_on_line`, have a resultant that is not 0: the 2d rows of their
    Sylvester matrix, each form raised by t^0..t^(d-1) (`_raised`), have
    2d pivots.  A common factor of two forms of positive degree would
    restrict to a common factor there, or to 0, so the forms are then
    coprime."""
    rows = _raised((f, g), (d - 1, d - 1), lambda e: range(e + 1), _shifted)
    return len(_gauss_jordan(rows, p, _budget(), 2 * d)) == 2 * d


def _coprime_pair(forms, d, p):
    """True when `_coprime` certifies two of the nonzero binary forms
    `forms` of degree d coprime: then the forms they restrict from
    generate an ideal of height at least 2.  False, with no form read
    from the iterable `forms`, when the 2d Sylvester rows exceed
    `_KERNEL_COLUMNS`."""
    if 2 * d > _KERNEL_COLUMNS:
        return False
    return any(_coprime(f, g, d, p) for f, g in combinations(forms, 2))


# over Q the values of a `_Lattice` are taken mod this prime: a rank mod
# q is at most the rank over Q, so a span shown mod q is one over Q
_VALUE_PRIME = 2**31 - 1


class _Lattice:
    """The lattice points alpha in N^n with |alpha| = t, for the n
    variables of a packing, and the values of forms at them mod q.  For
    q > t they are unisolvent for forms of degree t (Chung-Yao, SIAM J.
    Numer. Anal. 1977): a form of degree t that vanishes at all of them
    is 0, so taking values maps S_t isomorphically onto the value lists.
    Called on a packed monomial, a lattice gives its values, computed on
    first use and kept.  Make one with `_lattice`."""

    __slots__ = ("points", "unpack", "q", "_known")

    def __init__(self, pk, t, q):
        self.points = tuple(monomials_of_degree(len(pk.shifts), t))
        self.unpack, self.q, self._known = pk.unpack, q, {}

    def __call__(self, m):
        got = self._known.get(m)
        if got is None:
            e = self.unpack(m)
            got = [math.prod(a**k for a, k in zip(x, e)) % self.q for x in self.points]
            self._known[m] = got
        return got

    def times(self, f, u):
        """The values f times the values u, as a row keyed by point."""
        q = self.q
        return {i: w for i, v in enumerate(map(operator.mul, f, u)) if (w := v % q)}

    def values(self, terms):
        """The values of the packed form `terms` at the points mod q, ()
        when they are all 0; each denominator must be prime to q."""
        q = self.q
        acc = [0] * len(self.points)
        for m, c in terms.items():
            if type(c) is not int:
                c = c.numerator * pow(c.denominator, -1, q)
            acc = [a + c * v for a, v in zip(acc, self(m))]
        acc = [a % q for a in acc]
        return acc if any(acc) else ()


# one lattice per (packing, t, q), so the matrices of a session share
# their points and monomial values; bounded, so a long session cannot
# grow it without limit
_lattice = lru_cache(maxsize=64)(_Lattice)


def _height_pass(M):
    """The `heights` of M, which G_m and F_m share.

    For an alternating M, index i reads the ideal of sub-Pfaffians of
    size 2 ceil((nrows - i) / 2), which has the height of the minors'.

    Fitt_i lies in Fitt_{i+1}, so once one index reaches height nvars
    every later one has height nvars or is the unit ideal.  Homogeneous
    generators generate the unit ideal exactly when one is a nonzero
    constant, so those indices need no Groebner basis.

    The nonzero maximal minors of a (c+1) x c matrix of column degrees
    mu_j (below) are forms of degree d = sum mu_j > 0, so they generate
    a proper ideal, of height at most 2 (Eagon-Northcott, "Ideals defined
    by matrices and a certain complex associated with them", Proc. Roy.
    Soc. A 1962).  Only such a matrix, in a ring with no parameters,
    takes this path: a matrix with a constant entry may have a unit
    minor past the first three, and Fitt_1 is then the unit ideal.  Two
    minors that are coprime form a regular sequence, of height 2, so then
    Fitt_1 has height 2 and needs no run.  Coprimality is read off one
    line (`_coprime`): a minor restricted to the line is the minor of the
    entries restricted to it, so the chain runs on those, binary forms
    of degree mu_j, and takes the pairs of the first three minors that do
    not vanish there.  The test is one-sided: minors it does not certify
    leave Fitt_1 to the paths below.  In two variables, height 2 is
    nvars, which the span below shows.

    When every nonzero entry of M is a form of one positive degree e, in
    a ring with no parameters, so is every nonzero k-minor, of degree
    t = k*e, and every nonzero 2j-sub-Pfaffian, of degree t = j*e.  Each
    index then streams its forms into one Gauss-Jordan block that stops
    at C(nvars - 1 + t, t) pivots (see the module docstring); later
    indices need not even expand their forms.

    A matrix that is not alternating streams the same way when each
    column j holds forms of one positive degree mu_j, as a Hilbert-Burch
    matrix does: a k-minor on columns C is then a form of degree
    sum_{j in C} mu_j, at most t, the sum of the k largest mu_j, and it
    streams as its products with the monomials that raise it to degree
    t, read off its tuple.  Those lie in the ideal, so a span of S_t
    proves height nvars again.  An index that cannot span or does not
    takes the run on its forms.  A coprimality or span test that would
    pass `_KERNEL_COLUMNS` declines before it reads a form.
    """
    ctx = M.ctx
    n, p = ctx.nvars, ctx.field.characteristic
    # every monomial of every entry; the constant monomial packs to 0
    mons = {m for row in M.entries for e in row for m in e.terms}
    forms = 0 not in mons and _homogeneous([mons])
    minor = not is_alternating(M)
    mu = column_degrees(M) if minor else None
    stream = (forms or mu is not None) and not ctx.n_params
    degree = sum(ctx.packing.unpack(next(iter(mons)))) if mons else 0
    memo, ideals, found = {}, {}, {}
    budget = _budget()
    # the prime of the values; 0, for no values, over Q when it divides a
    # denominator
    q = p or _VALUE_PRIME
    coefficients = (c for row in M.entries for e in row for c in e.terms.values())
    if not p and any(type(c) is not int and not c.denominator % q for c in coefficients):
        q = 0

    def spans(size):
        """True when the forms of index `size`, raised to the top degree
        t, span S_t, streamed as values or as terms; False, with no form
        read, when fewer than dim S_t rows can come or one form would be
        raised by more than `_KERNEL_COLUMNS` monomials."""
        t = sum(sorted(mu)[-size:]) if mu else degree * (size if minor else size // 2)
        span = comb(n - 1 + t, t)
        lifts = [
            t - sum(mu[c - M.nrows] for c in idx[size:]) if mu else 0
            for idx in reversed(_tuples(M, size, minor))
        ]
        widths = [comb(n - 1 + e, e) for e in lifts]
        if sum(widths) < span or max(widths) > _KERNEL_COLUMNS:
            return False
        if q > t and size > (1 if minor else 2):
            lattice = _lattice(ctx.packing, t, q)
            on = (lambda e: lattice.values(e.terms), partial(_pointwise, q=q))
            images = _chain(M, size, {}, minor, True, on)
            units, times, field = lambda e: map(lattice, _monomials(ctx, e)), lattice.times, q
        else:
            images = (_integral(f, p)[0] for f in _chain(M, size, memo, minor, True))
            units, times, field = partial(_monomials, ctx), _shifted, p
        rows = _raised(images, lifts, units, times)
        return len(_gauss_jordan(rows, field, budget, span)) == span

    def ideal_of(size):
        if size not in ideals:
            ideals[size] = IdealHandle(ctx, _polys(ctx, _chain(M, size, memo, minor)))
        return ideals[size]

    def coprime_pair(size):
        """True when two of the first three maximal minors that the
        stream reads and that do not vanish on the line of `_on_line`
        restrict to binary forms that `_coprime` certifies coprime."""
        on = (lambda e: _on_line(ctx, e.terms, p), partial(_expansion, p=p))
        first = islice(filter(None, _chain(M, size, {}, minor, True, on)), 3)
        return _coprime_pair((_integral(f, p)[0] for f in first), sum(mu), p)

    def height_of(size):
        if size not in found:
            if size == M.ncols == M.nrows - 1 and mu and stream and n > 2 and coprime_pair(size):
                found[size] = 2
            elif stream and spans(size):
                found[size] = n
            else:
                found[size] = height(ideal_of(size))
        return found[size]

    heights = []
    ht = 0
    for i in range(1, M.nrows):
        size = M.nrows - i if minor else (M.nrows - i + 1) // 2 * 2
        if ht < n:
            ht = height_of(size)
        elif not forms:
            seeds = [g.terms for g in ideal_of(size).gens]
            # a homogeneous generator with a constant term is a constant,
            # and the constant monomial packs to 0
            if _homogeneous(seeds):
                ht = math.inf if any(0 in t for t in seeds) else n
            else:
                ht = height_of(size)
        heights.append(ht)
    return tuple(heights)


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
        for i, ht in enumerate(M.heights[: top - 1], 1)
    )
    return ConditionCertificate(name, all(row[4] for row in rows), rows)


def check_Gm(M, m):
    """G_m: ht Fitt_i > i for all 1 <= i < m (m = inf tests every
    index).  Fitt_i is the unit ideal for i >= nrows, so the table stops
    there, and G_inf is G_nrows.  The first G_m or F_m on M computes the
    height of every index below nrows, whatever m is."""
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
