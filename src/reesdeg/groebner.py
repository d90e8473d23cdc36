"""Buchberger engine and ideal arithmetic built on it.

The basis computation uses the Gebauer-Moeller pair update together with
sugar-order pair selection, and counts every single division step, every
S-pair it reduces and every pair and basis row an update examines against
a budget, so that runaway eliminations fail loudly instead of hanging.
Inside a `with step_budget(n)` block every basis, normal form and
saturation draws on one budget of n steps; outside any block each basis
gets its own budget of `DEFAULT_BUDGET` steps.  Pairs sit in a heap
keyed by (sugar, lcm, i, j) and ties are impossible, so identical inputs
produce identical bases, reduction traces and budgets.  Monomial
generators form no pairs: their minimal generators are the reduced
basis, and each divisibility test made to find them costs one step.

Seeds homogeneous in the grading of the run enter one degree at a time,
lowest first.  The seeds of one degree are reduced against the rows of
lower degree and then brought into reduced row echelon form as one
Gauss-Jordan block, with leads looked up in a dict and one step charged
per row operation (`_gauss_jordan`); no row of that degree could reduce
the rows it leaves any further.  A seed that is a linear combination of
others, as most minors of a Fitting ideal are, thus vanishes in the
block instead of costing a reduction of its own.  Pairs are formed only
once every block is in, and when the blocks leave only monomials they
are the basis.  Seeds that are not homogeneous enter one at a time
after the blocks, and S-pairs after them, each top-reduced against the
basis so far by `_reduce` alone: the reduction stops at the first
monomial that no lead divides, and the terms below it enter the new row
as they stand.  Buchberger's criterion and the pair updates read only
that lead, so the run finds the same leads as with full reduction
(Becker-Weispfenning, "Groebner Bases", 1993, ch. 5).

A basis of an ideal whose Hilbert series is known is Hilbert-driven
(Traverso, "Hilbert functions and the Buchberger algorithm", JSC 1996).
Pairs of input homogeneous in a grading by positive variable weights
come off the heap in degree order; once the active leads reach HF(k),
every S-pair of degree k left would reduce to zero, and it is dropped
unreduced and uncharged.  A handle's series is the one stated with
`seed_hilbert_series`.  The graph ideal (y_i - t*g_i) that `rees_ideal`
eliminates t from is homogeneous once t and x weigh 1 and y weighs d+1,
with the Hilbert series of S/(y_0, ..., y_s), so its t-elimination is
driven from the first S-pair.  The Hilbert function of S/I does not
depend on the monomial order, so a series stated on a copy of I in a
ring under another order drives that copy's run too.  A run reads the
degree in its grading off the packed monomial as the total degree plus
(w - 1)*e_v over the variables v of weight w > 1.

Inside the engine a monomial is one packed int, in the encoding of
`ring`, and every packed monomial has the total degree in its degree
field.  Each basis row also carries the exponent tuple of its lead,
unpacked once, and the pair update forms lcms from those tuples.
`Poly` terms, handle generators and the basis cached in `gb_cache` are
all in the ring's packing (`RingCtx.packing`): a handle has one monomial
order, its ring's, and no function here copies an ideal into another.

Coefficients over Q are Python ints inside the engine, as monomials are
(fraction-free reduction).  An engine polynomial is primitive with a
positive lead over Q and monic over F_p, and each basis row carries its
lead coefficient lc, which is 1 over F_p.  To cancel a term c*m, `_reduce`
multiplies the remainder and the terms still to reduce by lc/g, where
g = gcd(c, lc), and subtracts (c/g) times the shifted row; `_spoly`
cancels two leads with lc_j/g and lc_i/g.  No step divides, so the
per-operation gcd that `fractions.Fraction` runs is gone from the inner
loop.  Over F_p, `_reduce` lets the sums it accumulates grow as plain
ints and takes one coefficient mod p only when it reduces that term.
At the boundary, `_integral` clears the denominators of a polynomial
entering the engine, and passes it on as it is when every coefficient
is already an int; `_divided` divides one leaving it by its lead or
its scale, giving ints where the division is exact and a Fraction only
where it is not.

A cached basis is minimal, and that is the one invariant the engine
keeps.  A minimal basis has the reduced basis's leads, which are all
that Hilbert series, dimensions, map degrees and Fitting heights read,
and normal forms, saturation exponents, eliminations and the
Bayer-Stillman strip are the same from any Groebner basis.  Tails are
reduced in one place, `groebner_basis` (which `ideal_equal` calls): it
reduces the cached basis and caches the result in its place, and a
pass over a basis already reduced makes no reduction step.  Every other
reduction reads a whole polynomial and so reduces fully: the seed
block's pre-reduction, whose Gauss-Jordan combinations must expose no
lead that a lower row divides, normal forms and saturation exponents.

Terms stay packed from end to end.  A handle's generators are `Poly`
objects whose terms are the engine's seeds as they are, `hilbert` reads
leads off the packed basis, `normal_form` and the saturation code reduce
against it, and `eliminate` moves the rows free of the eliminated block
into the subring's packing by dropping the block's fields.  A basis
element becomes a `Poly` divided by its lead coefficient and a normal
form divided by the product of the multipliers its reduction applied,
so results stay exact.

Elimination runs in the ring's own order, which must be a block order
(grevlex inside each block) whose leading blocks hold exactly the
eliminated variables; `eliminate` refuses any other ring.  A ring
states its order in one spelling and no grading (the bigrading of a
Rees ring is its x | y split, which `Poly.bidegree` reads), so
adjoining t as a leading block of its own (`_with_aux_var`) and
eliminating it with `eliminate(I, 1)` lands in the ring t was adjoined
to, with the basis cached.  Intersections eliminate t from
t*I + (1-t)*J.  Saturation of a homogeneous
ideal by the irrelevant ideal m = (x_0..x_n) of a grevlex ring reads
I : x_n^infinity off a Groebner basis of I (Bayer-Stillman) and keeps
it when the Hilbert series shows it equals I : m^infinity.  Every other
saturation intersects the saturations by the generators of J, each by
Rabinowitsch: eliminate t from I + (1 - t*g).
"""

from contextlib import contextmanager
from contextvars import ContextVar
from fractions import Fraction
from functools import partial
from heapq import heapify, heappop, heappush
from itertools import accumulate
from math import gcd, lcm

from .ring import (
    _MASK,
    _WIDTH,
    EXP_BOUND,
    Poly,
    RingCtx,
    RingError,
    _block_sizes,
    _minimal_packed,
    _overflow,
    format_poly,
    format_ring_header,
    fresh_names,
    parse_poly,
    parse_ring_header,
)

DEFAULT_BUDGET = 1_000_000


class BudgetExceeded(RuntimeError):
    """A computation ran past its step budget."""

    def __init__(self, budget):
        super().__init__("computation exceeded its budget of %d steps" % budget)
        self.budget = budget


class _Budget:
    __slots__ = ("left", "limit")

    def __init__(self, limit):
        self.limit = limit
        self.left = limit


# the budget of the innermost enclosing step_budget block
_ACTIVE_BUDGET = ContextVar("step_budget", default=None)


@contextmanager
def step_budget(limit):
    """Charge every computation inside the block against one budget of
    `limit` steps: reductions, reduced S-pairs, pairs and rows examined by
    pair updates, row operations and rows scanned in seed blocks and in
    span tests, monomial divisibility tests, the products of the chain
    behind the minors and sub-Pfaffians of `conditions` and of the power
    loop in `blowup.saturated_fiber_dim`, each row of a span test that a
    monomial of positive degree raises (`conditions._raised`: the Fitting
    stream, the Sylvester rows of the coprimality test, the Koszul exit's
    m-primary span), the product terms formed, form terms evaluated and
    row operations of the Jacobian and Hilbert-Burch rules of `blowup`,
    and the product terms and row operations of `hilbert_burch_sfib`."""
    if limit < 1:
        raise ValueError("budget must be at least 1, got %d" % limit)
    token = _ACTIVE_BUDGET.set(_Budget(limit))
    try:
        yield
    finally:
        _ACTIVE_BUDGET.reset(token)


def _budget():
    """The active step budget, or a fresh default one outside any
    step_budget block."""
    active = _ACTIVE_BUDGET.get()
    return _Budget(DEFAULT_BUDGET) if active is None else active


def _charge(budget, n=1):
    budget.left -= n
    if budget.left < 0:
        raise BudgetExceeded(budget.limit)


def _reduce(work, rows, guard, p, budget, sugar=-1, _top=False):
    """Reduce the packed term dict `work` against normalized rows: fully,
    or with `_top` only until its lead is one that no row divides.

    Rows are (lead, tail terms, sugar, lead coefficient); the first row
    whose lead divides a monomial reduces it, fraction-free over Q (see
    the module docstring).  Returns the remainder dict, the propagated
    sugar degree and the scale, the product of the multipliers applied:
    the remainder over the field is the returned one divided by the
    scale.  Monomials come off a heap of negated packed ints strictly top
    down, and a reduction only adds monomials below the one it cancels,
    so every monomial is pushed and visited once.  The terms still to
    reduce hold unreduced integer sums: over F_p a coefficient is taken
    mod p when its monomial comes off the heap, and a coefficient that is
    0 there is skipped, so the remainder's coefficients lie in [1, p).
    A top-reduced remainder is its first irreducible term followed by the
    terms still to reduce as they stand, each taken mod p over F_p and
    dropped where it is 0; over Q they were scaled along with it.  That
    is all `_buchberger` needs of an S-polynomial: the lead it adds.
    """
    rem = {}
    scale = 1
    heap = [-m for m in work]
    heapify(heap)
    while heap:
        m = -heappop(heap)
        c = work.pop(m)
        if p:
            c %= p
        if not c:
            continue
        for row in rows:
            shift = m - row[0]
            if not shift & guard:
                break
        else:
            rem[m] = c
            if _top:
                for k, v in work.items():
                    if p:
                        v %= p
                    if v:
                        rem[k] = v
                return rem, sugar, scale
            continue
        budget.left -= 1
        if budget.left < 0:
            raise BudgetExceeded(budget.limit)
        _, tail, gsug, lc = row
        if sugar >= 0:
            s = gsug + (shift & _MASK)
            if s > sugar:
                sugar = s
        if lc != 1:
            g = gcd(c, lc)
            a = lc // g
            c //= g
            if a != 1:
                work = {k: a * v for k, v in work.items()}
                rem = {k: a * v for k, v in rem.items()}
                scale *= a
        for m2, c2 in tail:
            mm = m2 + shift
            prev = work.get(mm)
            if prev is None:
                if mm & EXP_BOUND:
                    raise _overflow()
                work[mm] = -c * c2
                heappush(heap, -mm)
            else:
                work[mm] = prev - c * c2
    return rem, sugar, scale


def _normalize(terms, p):
    """The canonical scalar multiple of a packed term dict: monic over
    F_p; over Q (integer coefficients) primitive with a positive lead."""
    c = terms[max(terms)]
    if c == 1:
        return terms
    if p:
        inv = pow(c, -1, p)
        return {m: (v * inv) % p for m, v in terms.items()}
    g = gcd(*terms.values())
    if c < 0:
        g = -g
    return {m: v // g for m, v in terms.items()}


def _integral(terms, p):
    """(terms, d) for a packed term dict of field elements: over Q the
    dict of the integers d*c, d the least common denominator; over F_p,
    and over Q when every coefficient is an int, the terms themselves
    and 1."""
    if p or all(type(c) is int for c in terms.values()):
        return terms, 1
    d = lcm(*(c.denominator for c in terms.values()))
    return {m: c.numerator * (d // c.denominator) for m, c in terms.items()}, d


def _divided(terms, d):
    """The packed integer `terms` divided by a positive d, as field
    elements: the terms themselves when d is 1, as it is over F_p;
    otherwise c // d where d divides c, and the Fraction c/d elsewhere."""
    if d == 1:
        return terms
    return {m: c // d if not c % d else Fraction(c, d) for m, c in terms.items()}


def _row(terms, sugar):
    lead = max(terms)
    return (lead, tuple((m, c) for m, c in terms.items() if m != lead), sugar, terms[lead])


def _cancel(t, m, row, p):
    """The packed integer term dict t with its term at m cancelled by the
    normalized `row` whose lead is m, scaled as `_reduce` scales: t - c*row
    over F_p, (lc/g)*t - (c/g)*row over Q with g = gcd(c, lc).  Changes t
    in place unless it scales it."""
    c, lc = t[m], row[m]
    if lc != 1:
        g = gcd(c, lc)
        a, c = lc // g, c // g
        if a != 1:
            t = {k: a * v for k, v in t.items()}
    for k, v in row.items():
        val = t.get(k, 0) - c * v
        if p:
            val %= p
        if val:
            t[k] = val
        else:
            del t[k]
    return t


def _spoly(ti, ui, tj, uj, p):
    """a*ui*ti - b*uj*tj for normalized packed term dicts and packed
    cofactors, with a = lc_j/g, b = lc_i/g and g = gcd(lc_i, lc_j): the
    least integer multipliers that cancel the leads (1 over F_p), which
    are those `_cancel` applies to the two shifted rows."""
    lead = max(ti) + ui
    s = _cancel({m + ui: c for m, c in ti.items()}, lead, {m + uj: c for m, c in tj.items()}, p)
    for m in s:
        if m & EXP_BOUND:
            raise _overflow()
    return s


def _gauss_jordan(block, p, budget, stop=None):
    """The reduced row echelon form of packed term dicts, such as the
    seeds of one degree: normalized rows sorted by lead, with distinct
    leads and no lead of one in the tail of another.  Each row entering
    is cleared of the leads of the rows before it, found by dict lookups;
    cancelling one brings in no other, since those rows are already
    reduced.  A row left over then has its lead cleared from the rows
    before it.  Each row operation costs one step of `budget`, and so
    does each row scanned for a new lead below the largest lead so far.

    `block` is read one row at a time, so it may be a lazy iterator.
    With `stop`, no further row is read once `stop` rows hold pivots:
    when `stop` is the dimension of the space the rows lie in, such as
    the forms of one degree, they span it there.  Besides `_buchberger`'s
    seed blocks and the spanning stream of `conditions`, the Jacobian
    rules of `blowup` rank their matrices and take their linear syzygies
    here, on rows keyed by column index."""
    pivots = {}
    top = -1
    for t in block:
        t = dict(t)
        for m in [m for m in t if m in pivots]:
            _charge(budget)
            t = _cancel(t, m, pivots[m], p)
        if not t:
            continue
        t = _normalize(t, p)
        lead = max(t)
        if lead < top:
            # only a row with a larger lead can hold this one
            _charge(budget, len(pivots))
            for m, row in pivots.items():
                if lead in row:
                    _charge(budget)
                    pivots[m] = _normalize(_cancel(row, lead, t, p), p)
        else:
            top = lead
        pivots[lead] = t
        if len(pivots) == stop:
            break
    return sorted(pivots.values(), key=max)


def _degree_in(pk, grading):
    """The degree of a monomial packed by `pk` in `grading`, positive
    variable weights (None: the standard grading), as a function: the
    total degree in the degree field plus (w - 1)*e_v over the variables
    v of weight w > 1."""
    heavy = tuple((s, w - 1) for s, w in zip(pk.shifts, grading or ()) if w > 1)

    def deg(m):
        d = m & _MASK
        for s, w in heavy:
            d += w * ((m >> s) & _MASK)
        return d

    return deg


def _buchberger(seeds, pk, fld, budget, hilbert=None):
    """Minimal Groebner basis of the packed seed term dicts: normalized,
    packed and sorted by lead.  A row of a seed block is in reduced
    echelon form with the rows of its degree; a row from an
    inhomogeneous seed or an S-pair is top-reduced, its tail left as the
    reduction steps that fixed its lead made it (`groebner_basis`
    interreduces tails).

    `hilbert`, when given, is the pair (grading, sparse numerator) of
    the Hilbert series of S/I.  Pairs of a degree whose Hilbert function
    value the active leads already reach are dropped unreduced.  The
    seeds must be homogeneous in the grading; an AssertionError says they
    are not.  Seed blocks, sugar and pair keys read degrees in the
    grading through `_degree_in`; the monomials stay in `pk`, whose order
    fields alone decide every comparison.
    """
    p = fld.characteristic
    guard = pk.guard
    deg = _degree_in(pk, hilbert and hilbert[0])
    start = [_normalize(t, p) for t in seeds if t]
    if not start:
        return []
    start.sort(key=max)
    # homogeneous seeds enter one degree at a time, as one Gauss-Jordan
    # block reduced against the rows of lower degree; the others one by one
    blocks, rest = {}, []
    for t in start:
        degs = {deg(m) for m in t}
        if len(degs) == 1:
            blocks.setdefault(degs.pop(), []).append(t)
        else:
            rest.append(t)
    if hilbert is not None:
        from .hilbert import hilbert_value, weighted_numerator

        grading, target = hilbert
        if rest:
            raise AssertionError("seed is not homogeneous in the grading of its Hilbert series")
    unit = [{0: 1}]
    if max(start[0]) == 0:
        return unit
    if all(len(t) == 1 for t in start):
        # the minimal generators, each divisibility test one step
        keep = _minimal_packed([max(t) for t in start], guard, partial(_charge, budget))
        return [start[i] for i in keep]

    rows = []      # every basis row ever created: (lead, tail, sugar, lc)
    terms_of = []  # parallel: full term dicts
    exps = []      # parallel: exponent tuples of the leads
    G = []         # active row indices
    P = []         # heap of pairs (sugar, lcm, i, j)

    divides = pk.divides
    pack = pk.pack

    def pair_entry(i, j, lcm):
        si = rows[i][2] + deg(lcm - rows[i][0])
        sj = rows[j][2] + deg(lcm - rows[j][0])
        return (si if si > sj else sj, lcm, i, j)

    def update(h):
        # Gebauer-Moeller: prune new pairs against each other, drop old
        # pairs whose lcm strictly factors through the new lead, retire
        # basis rows whose lead became divisible.
        nonlocal P, G
        _charge(budget, len(G) + len(P))
        lth, eh = rows[h][0], exps[h]

        def lcm_h(g):
            return pack([x if x > y else y for x, y in zip(exps[g], eh)])

        C = sorted((lcm_h(g), g) for g in G)
        D = []
        for idx, (lcm, g) in enumerate(C):
            # coprime leads have lcm = product
            if lcm == rows[g][0] + lth or not (
                any(divides(o, lcm) for o, _ in C[idx + 1:])
                or any(divides(o, lcm) for o, _ in D)
            ):
                D.append((lcm, g))
        keep = [
            e for e in P
            if not (divides(lth, e[1]) and lcm_h(e[2]) != e[1] and lcm_h(e[3]) != e[1])
        ]
        keep.extend(pair_entry(g, h, lcm) for lcm, g in D if lcm != rows[g][0] + lth)
        heapify(keep)
        P = keep
        G = [g for g in G if not divides(lth, rows[g][0])] + [h]

    def push(terms, sugar):
        rows.append(_row(terms, sugar))
        terms_of.append(terms)
        exps.append(pk.unpack(rows[-1][0]))

    def add(rem, sugar):
        # returns False once the unit ideal is reached
        if not rem:
            return True
        if max(rem) == 0:
            return False
        push(_normalize(rem, p), sugar)
        update(len(rows) - 1)
        return True

    for d in sorted(blocks):
        block = blocks[d]
        if rows:
            block = [_reduce(dict(t), rows, guard, p, budget)[0] for t in block]
        for terms in _gauss_jordan(block, p, budget):
            push(terms, d)
    # The block rows are interreduced, so no update retires one of them
    # and the updates can wait until here.  Monomials alone form no pair.
    if not rest and all(len(t) == 1 for t in terms_of):
        return sorted(terms_of, key=max)
    for h in range(len(rows)):
        update(h)
    for t in rest:
        basis_rows = [rows[g] for g in G]
        sug = max(m & _MASK for m in t)
        rem, sug, _ = _reduce(dict(t), basis_rows, guard, p, budget, sugar=sug, _top=True)
        if not add(rem, sug):
            return unit

    hf_deg = hf_done = None
    while P:
        _, lcm, i, j = heappop(P)
        if hilbert is not None:
            # Homogeneous pairs come off in degree order.  A new lead of
            # degree k is the one degree-k monomial it adds to the lead
            # ideal, so degree k is complete once the basis has grown by
            # HF_leads(k) - HF(k) rows since the first pair of degree k.
            k = deg(lcm)
            if k != hf_deg:
                # leads above degree k leave HF_leads(k) alone
                leads = [exps[g] for g in G if deg(rows[g][0]) <= k]
                have = hilbert_value(weighted_numerator(leads, grading), grading, k)
                hf_deg = k
                hf_done = len(rows) + have - hilbert_value(target, grading, k)
            if len(rows) >= hf_done:
                continue
        _charge(budget)
        u = lcm - rows[i][0]
        v = lcm - rows[j][0]
        s = _spoly(terms_of[i], u, terms_of[j], v, p)
        if not s:
            continue
        si = rows[i][2] + deg(u)
        sj = rows[j][2] + deg(v)
        basis_rows = [rows[g] for g in G]
        rem, sug, _ = _reduce(s, basis_rows, guard, p, budget, sugar=max(si, sj), _top=True)
        if not add(rem, sug):
            return unit

    # G is minimal: new leads are never divisible by active ones and
    # update retires rows the other way around.
    return sorted((terms_of[g] for g in G), key=max)


def _reduce_tails(basis, guard, p, budget):
    """The reduced basis, sorted by lead and normalized, from the
    normalized packed term dicts of a minimal Groebner basis: one pass
    reducing each tail against the other elements.  A row of one term
    has no tail and passes through, and a pass over a reduced basis
    makes no reduction step."""
    rows = [_row(t, 0) for t in basis]
    out = []
    for i in sorted(range(len(basis)), key=lambda i: rows[i][0]):
        t = basis[i]
        if len(t) > 1:
            t = _normalize(_reduce(dict(t), rows[:i] + rows[i + 1:], guard, p, budget)[0], p)
        out.append(t)
    return out


class IdealHandle:
    """An ideal in a fixed ring with a cached Groebner basis in the
    ring's order.

    `gens` are `Poly` objects of the ring.  `gb_cache` maps the ring's
    order to the minimal basis (normalized packed term dicts in the
    ring's packing, sorted by lead) once one is computed, and holds
    nothing else; `groebner_basis` may have reduced it, but nothing
    inside the engine relies on that.
    """

    __slots__ = ("ctx", "gens", "gb_cache", "_sat", "_series")

    def __init__(self, ctx, gens):
        self.ctx = ctx
        cleaned = []
        for g in gens:
            if not isinstance(g, Poly):
                raise RingError("ideal generators must be Poly instances")
            if g.ctx != ctx:
                raise RingError("generator from a different ring")
            if g:
                cleaned.append(g)
        self.gens = tuple(cleaned)
        self.gb_cache = {}
        # on a result of `saturate`: (I, J generators) until
        # sat_exponent is first read, then the exponent
        self._sat = None
        # (grading, numerator) of a Hilbert series of S/I known a priori
        self._series = None

    @property
    def sat_exponent(self):
        """Least k with I : J^k = I : J^infinity when this ideal is the
        result of saturate(I, J), else None.  Computed on first read."""
        if isinstance(self._sat, tuple):
            I, J_gens = self._sat
            self._sat = _sat_exponent(I, self, J_gens)
        return self._sat

    def __repr__(self):
        return "IdealHandle(%d gens in %s)" % (len(self.gens), ",".join(self.ctx.var_names))


def ideal(ctx, gens):
    return IdealHandle(ctx, list(gens))


def _basis_ideal(ctx, basis):
    """The ideal generated by `basis`, a minimal Groebner basis in the
    ring order as normalized packed term dicts in the ring's packing,
    sorted by lead, with that basis cached."""
    out = IdealHandle(ctx, [Poly(ctx, _divided(t, t[max(t)]), _clean=True) for t in basis])
    out.gb_cache[ctx.order] = tuple(basis)
    return out


def _homogeneous(polys):
    """True when every packed term dict in `polys` is homogeneous in the
    standard grading (all variables of degree 1)."""
    return all(len({m & _MASK for m in t}) == 1 for t in polys)


def _basis(I):
    """The minimal Groebner basis of I in the ring order, as normalized
    term dicts in the ring's packing sorted by lead, cached in
    `I.gb_cache`; driven by the Hilbert series stated with
    `seed_hilbert_series`, if any."""
    ctx = I.ctx
    got = I.gb_cache.get(ctx.order)
    if got is not None:
        return got
    p = ctx.field.characteristic
    seeds = [_integral(g.terms, p)[0] for g in I.gens]
    basis = _buchberger(seeds, ctx.packing, ctx.field, _budget(), I._series)
    I.gb_cache[ctx.order] = tuple(basis)
    return I.gb_cache[ctx.order]


def groebner_basis(I):
    """Reduced Groebner basis of I in the ring order.

    Generators are sorted by increasing leading monomial and are monic.
    This is the one place tails are reduced: each call reduces those of
    the cached basis and caches the result in its place, so a second
    call makes no reduction step and returns the same list.
    """
    ctx = I.ctx
    basis = tuple(_reduce_tails(_basis(I), ctx.packing.guard, ctx.field.characteristic, _budget()))
    I.gb_cache[ctx.order] = basis
    return [Poly(ctx, _divided(t, t[max(t)]), _clean=True) for t in basis]


def seed_hilbert_series(I, grading, numerator):
    """Record the Hilbert series N(z) / prod_v (1 - z^w_v) of S/I, known
    a priori, for positive variable weights `grading` in which the
    generators of I are homogeneous; N is a {degree: coefficient} map.
    Every basis of I computed afterwards is driven by it.  `grading`
    must be one int weight of at least 1 per variable."""
    grading = tuple(grading)
    if len(grading) != I.ctx.nvars or not all(type(w) is int and w >= 1 for w in grading):
        raise RingError("grading %r is not one positive int weight per variable" % (grading,))
    I._series = (grading, dict(numerator))


def normal_form(f, I):
    """Remainder of f modulo a Groebner basis of I, any one giving the
    same: the canonical coset representative in the ring order."""
    if f.ctx != I.ctx:
        raise RingError("polynomial and ideal live in different rings")
    basis = _basis(I)
    if not basis:
        return f
    p = I.ctx.field.characteristic
    rows = [_row(t, 0) for t in basis]
    work, d = _integral(dict(f.terms), p)
    rem, _, scale = _reduce(work, rows, I.ctx.packing.guard, p, _budget())
    # rem is scale * d * NF(f)
    return Poly(I.ctx, _divided(rem, scale * d), _clean=True)


def ideal_contains(I, f):
    return not normal_form(f, I)


def ideal_equal(I, J):
    """Equality via reduced bases in the common ring order."""
    if I.ctx != J.ctx:
        raise RingError("ideals live in different rings")
    a = groebner_basis(I)
    b = groebner_basis(J)
    return [g.terms for g in a] == [g.terms for g in b]


def eliminate(I, k):
    """Intersect with the subring spanned by all but the first k variables.

    The ring's order must be a block order whose leading blocks hold
    exactly the first k variables (a lex ring eliminates any prefix);
    any other ring raises RingError, and a caller builds its ideal in
    such a ring.  The generators free of those variables in the cached
    basis form a minimal basis of the elimination ideal in the order of
    the remaining blocks, which the result caches and takes as its
    generators.

    They stay packed.  The leading blocks fill the k top order fields of
    a packed monomial, each field at most its block's degree, so an
    element is free of them exactly when its lead is below field
    2n - k + 1.  Dropping their k exponent fields and k order fields, and
    keeping the degree field, then moves a monomial into the packing of
    the subring.
    """
    ctx = I.ctx
    n = ctx.nvars
    if not 0 < k < n:
        raise RingError("cannot eliminate %d of %d variables" % (k, n))
    sizes = _block_sizes(ctx.order, n)
    ends = list(accumulate(sizes))
    if k not in ends:
        raise RingError(
            "eliminating the first %d variables needs leading blocks that hold exactly "
            "them; the ring's blocks are %r" % (k, sizes)
        )
    basis = _basis(I)
    # the blocks after those of the first k variables
    sub_order = ("blocks", sizes[ends.index(k) + 1 :])
    sub_ctx = RingCtx(ctx.var_names[k:], ctx.field, sub_order, n_params=min(ctx.n_params, n - k))
    top, shift = 1 << _WIDTH * (2 * n - k + 1), _WIDTH * k
    kept = [
        {(m >> shift) | (m & _MASK): c for m, c in t.items()} for t in basis if max(t) < top
    ]
    return _basis_ideal(sub_ctx, kept)


def _with_aux_var(ctx):
    """(aux, t, lift): `ctx` with a fresh variable t in a leading block of
    its own before the blocks of `ctx`, t as a polynomial, and the map of
    polynomials of `ctx` into `aux`.  `eliminate(I, 1)` eliminates t and
    lands in `ctx` itself."""
    t = fresh_names("t", 1, set(ctx.var_names))[0]
    sizes = (1,) + _block_sizes(ctx.order, ctx.nvars)
    aux = RingCtx((t,) + ctx.var_names, ctx.field, ("blocks", sizes), n_params=ctx.n_params)
    return aux, Poly.var(aux, 0), lambda f: f.map_vars(aux, range(1, ctx.nvars + 1))


def intersect(I, J):
    """I cap J through the single-variable trick: eliminate t from
    t*I + (1-t)*J."""
    if I.ctx != J.ctx:
        raise RingError("ideals live in different rings")
    ctx = I.ctx
    if not I.gens or not J.gens:
        return IdealHandle(ctx, [])
    aux, t, lift = _with_aux_var(ctx)
    one = Poly.constant(aux, 1)
    gens = [t * lift(f) for f in I.gens]
    gens += [(one - t) * lift(g) for g in J.gens]
    return eliminate(IdealHandle(aux, gens), 1)


def _saturate_by(I, g):
    """(I : g^infinity) by Rabinowitsch: eliminate t from I + (1 - t*g)."""
    aux, t, lift = _with_aux_var(I.ctx)
    gens = [lift(f) for f in I.gens]
    gens.append(Poly.constant(aux, 1) - t * lift(g))
    return eliminate(IdealHandle(aux, gens), 1)


def _sat_exponent(I, S, J_gens):
    """Least k with J^k * S inside I, where S = I : J^infinity.

    I : J^k equals S exactly when J^k * S lies in I, so this is the
    number of strict steps in the chain I, I : J, I : J^2, ...  Only the
    remainders modulo I matter, and a spanning set of them is enough: a
    linear combination of remainders is again a remainder, so
    `_gauss_jordan` cuts them down to a basis of their span.
    """
    ctx = I.ctx
    p = ctx.field.characteristic
    rows = [_row(t, 0) for t in _basis(I)]
    b = _budget()
    cur = [_integral(g.terms, p)[0] for g in S.gens]
    k = 0
    while True:
        rems = (_reduce(dict(t), rows, ctx.packing.guard, p, b)[0] for t in cur)
        cur = _gauss_jordan([r for r in rems if r], p, b)
        if not cur:
            return k
        k += 1
        prods = (Poly(ctx, _divided(h, h[max(h)]), _clean=True) * g for h in cur for g in J_gens)
        cur = [_integral(f.terms, p)[0] for f in prods]


def _is_irrelevant_ideal(ctx, gens):
    """True when `gens` are scalar multiples of all the variables of a
    grevlex ring."""
    if ctx.order != "grevlex":
        return False
    mons = set()
    for g in gens:
        if len(g.terms) != 1:
            return False
        (mon,) = g.terms
        if mon & _MASK != 1:
            return False
        mons.add(mon)
    return len(mons) == ctx.nvars > 0


def _finite_colength(leads_I, leads_S, n):
    """True when S/I has finite length, for ideals I inside S of
    k[x_0..x_{n-1}] with these lead monomials: exactly when the two Hilbert
    series differ by a polynomial, that is when (1-t)^n divides the
    difference of their numerators."""
    from .hilbert import _order_at_one, weighted_numerator

    ones = (1,) * n
    diff = weighted_numerator(leads_I, ones)
    for e, c in weighted_numerator(leads_S, ones).items():
        diff[e] = diff.get(e, 0) - c
    diff = {e: c for e, c in diff.items() if c}
    return not diff or _order_at_one(diff)[0] >= n


def _saturate_by_variables(I):
    """I : m^infinity for m the ideal of all the variables of a grevlex
    ring, or None when the shortcut does not apply.

    For homogeneous f the last variable divides the grevlex lead of f only
    when it divides f, so stripping its powers from a Groebner basis of I
    gives a basis of S = I : x_last^infinity (Bayer-Stillman).  Since
    I : m^infinity lies between I and S, the two are equal exactly when
    S/I has finite length.
    """
    ctx = I.ctx
    if not _homogeneous(g.terms for g in I.gens):
        return None
    pk, gb = ctx.packing, _basis(I)
    shift, unit = pk.shifts[-1], pk.units[-1]
    stripped = []
    for t in gb:
        a = min((m >> shift) & _MASK for m in t)
        stripped.append({m - a * unit: c for m, c in t.items()} if a else t)
    # keep the lead-minimal elements; a divisor's lead is never larger
    stripped.sort(key=max)
    minimal = [stripped[i] for i in _minimal_packed([max(t) for t in stripped], pk.guard)]
    if not _finite_colength(
        [pk.unpack(max(t)) for t in gb], [pk.unpack(max(t)) for t in minimal], ctx.nvars
    ):
        return None
    return _basis_ideal(ctx, minimal)


def saturate(I, J):
    """(I : J^infinity).

    For homogeneous I and J the ideal of all the variables of a grevlex
    ring, one basis of I usually suffices (see `_saturate_by_variables`).
    Otherwise, and whenever that shortcut fails its Hilbert series check,
    the result is the intersection over the generators g of J of
    (I : g^infinity), each computed by Rabinowitsch.

    The least k with I : J^k = I : J^infinity is the result's
    `sat_exponent`, computed when first read.  Homogeneous input stays
    homogeneous, which the blowup and fiber routines rely on.
    """
    if I.ctx != J.ctx:
        raise RingError("ideals live in different rings")
    gens = list(J.gens)
    out = _saturate_by_variables(I) if _is_irrelevant_ideal(I.ctx, gens) else None
    if out is None and not gens:
        out = IdealHandle(I.ctx, [Poly.constant(I.ctx, 1)])
    elif out is None:
        out = _saturate_by(I, gens[0])
        for g in gens[1:]:
            out = intersect(out, _saturate_by(I, g))
    out._sat = (I, gens)
    return out


def serialize_ideal(I):
    """Ring header line followed by one generator per line."""
    lines = [format_ring_header(I.ctx)]
    for g in I.gens:
        lines.append(format_poly(g))
    return "\n".join(lines) + "\n"


def parse_generators(text):
    """(ring, generators) of an ideal file, zero generators kept; blank
    lines and # comments are skipped."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise RingError("empty ideal file")
    ctx = parse_ring_header(lines[0])
    return ctx, [parse_poly(ln, ctx) for ln in lines[1:]]


def parse_ideal(text):
    """Inverse of serialize_ideal."""
    return IdealHandle(*parse_generators(text))
