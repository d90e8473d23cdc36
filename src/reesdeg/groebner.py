"""Buchberger engine and ideal arithmetic built on it.

The basis computation uses the Gebauer-Moeller pair update together with
sugar-order pair selection, and counts every single division step against
a per-call budget so that runaway eliminations fail loudly instead of
hanging.  Pairs sit in a heap keyed by (sugar, lcm, i, j) and ties are
impossible, so identical inputs produce identical bases, reduction traces
and budgets.

Inside the engine a monomial is one Python int (Singular-style packed
exponent vectors).  Fields of `_WIDTH` bits, least significant first,
hold the total degree, the exponents e_0..e_{n-1}, and on top the order
key as n nonnegative linear forms: (deg, S_{n-2}, ..., S_0) with prefix
sums S_k = e_0 + ... + e_k for grevlex, per block for block orders, the
plain exponents for lex.  Integer comparison is then the monomial order,
`+` multiplies, and `b` divides `a` exactly when `(a - b) & guard` is 0,
in which case `a - b` is the quotient.  Every field stays below
`EXP_BOUND` (2^23), which leaves the field's top bit, the guard bit,
free: sums never spill into the next field, a failed subtraction always
borrows into a guard bit, and a monomial whose degree reaches the bound
raises `RingError` instead of wrapping.  Sugar reads the degree field.
Polynomials are packed on entry to `groebner_basis`, `normal_form`, the
saturation exponent and the S-pair closure check, and unpacked on exit.

Elimination always goes through a block order (grevlex inside each
block).  Intersections adjoin one leading auxiliary variable and
eliminate it: I cap J from t*I + (1-t)*J.  Saturation of a homogeneous
ideal by the irrelevant ideal m = (x_0..x_n) of a grevlex ring reads
I : x_n^infinity off the reduced basis of I (Bayer-Stillman) and keeps
it when the Hilbert series shows it equals I : m^infinity.  Every other
saturation intersects the saturations by the generators of J, each by
Rabinowitsch: eliminate t from I + (1 - t*g).
"""

from dataclasses import replace
from functools import lru_cache
from heapq import heapify, heappop, heappush
from itertools import zip_longest

from .ring import (
    Poly,
    RingCtx,
    RingError,
    fresh_names,
    monomial_lcm,
)

DEFAULT_BUDGET = 1_000_000

# exponents and total degrees of every monomial the engine builds stay
# below this; a packed field is one bit wider, the guard bit
EXP_BOUND = 1 << 23
_WIDTH = 24
_MASK = EXP_BOUND - 1

# flipped on by the test suite: re-checks the Buchberger criterion on
# every basis before it is cached
VERIFY_BASES = False


class BudgetExceeded(RuntimeError):
    """A Groebner computation ran past its reduction-step budget."""

    def __init__(self, budget):
        super().__init__(
            "Groebner computation exceeded its budget of %d reduction steps" % budget
        )
        self.budget = budget


class _Budget:
    __slots__ = ("left", "limit")

    def __init__(self, limit):
        self.limit = limit
        self.left = limit


def _charge(budget, n=1):
    budget.left -= n
    if budget.left < 0:
        raise BudgetExceeded(budget.limit)


def _overflow():
    return RingError("monomial degree reaches the packed exponent bound %d" % EXP_BOUND)


def _order_fields(order, n):
    """The order key as index ranges: each field sums e_i over a range,
    most significant field first."""
    if order == "lex":
        return [range(i, i + 1) for i in range(n)]
    sizes = (n,) if order == "grevlex" else order[1]
    fields = []
    lo = 0
    for size in sizes:
        hi = lo + size
        fields.append(range(lo, hi))
        fields.extend(range(lo, k + 1) for k in range(hi - 2, lo - 1, -1))
        lo = hi
    return fields


class _Packing:
    """Monomial encoding for one monomial order on n variables."""

    __slots__ = ("units", "shifts", "guard")

    def __init__(self, order, n):
        # field 0 is the degree, field 1 + i the exponent e_i, and the
        # order fields fill 2n down to n + 1
        units = [1 + (1 << _WIDTH * (1 + i)) for i in range(n)]
        for f, rng in enumerate(_order_fields(order, n)):
            for i in rng:
                units[i] += 1 << _WIDTH * (2 * n - f)
        self.units = tuple(units)
        self.shifts = tuple(_WIDTH * (1 + i) for i in range(n))
        self.guard = sum(EXP_BOUND << _WIDTH * k for k in range(2 * n + 1))

    def pack(self, mon):
        if sum(mon) >= EXP_BOUND:
            raise _overflow()
        v = 0
        for e, u in zip(mon, self.units):
            if e:
                v += e * u
        return v

    def unpack(self, m):
        return tuple((m >> s) & _MASK for s in self.shifts)

    def pack_terms(self, terms):
        pack = self.pack
        return {pack(m): c for m, c in terms.items()}

    def unpack_terms(self, terms):
        unpack = self.unpack
        return {unpack(m): c for m, c in terms.items()}

    def lcm(self, a, b):
        return self.pack(monomial_lcm(self.unpack(a), self.unpack(b)))

    def divides(self, b, a):
        # a - b borrows, and so sets a guard bit, exactly where b is larger
        return not (a - b) & self.guard


@lru_cache(maxsize=64)
def _packing(order, n):
    return _Packing(order, n)


def _reduce(work, rows, guard, p, budget, sugar=-1):
    """Fully reduce the packed term dict `work` against monic rows.

    Rows are (lead, tail terms, sugar); the first row whose lead divides
    a monomial reduces it.  Returns the remainder dict and the propagated
    sugar degree.  Monomials come off a heap of negated packed ints
    strictly top down, so every monomial is visited once.
    """
    rem = {}
    heap = [-m for m in work]
    heapify(heap)
    while heap:
        m = -heappop(heap)
        c = work.pop(m, None)
        if c is None:
            continue
        for row in rows:
            shift = m - row[0]
            if not shift & guard:
                break
        else:
            rem[m] = c
            continue
        budget.left -= 1
        if budget.left < 0:
            raise BudgetExceeded(budget.limit)
        _, tail, gsug = row
        if sugar >= 0:
            s = gsug + (shift & _MASK)
            if s > sugar:
                sugar = s
        for m2, c2 in tail:
            mm = m2 + shift
            prev = work.get(mm)
            if prev is None:
                if mm & EXP_BOUND:
                    raise _overflow()
                v = -c * c2
                work[mm] = v % p if p else v
                heappush(heap, -mm)
            else:
                v = prev - c * c2
                if p:
                    v %= p
                if v:
                    work[mm] = v
                else:
                    del work[mm]
    return rem, sugar


def _monic(terms, fld):
    c = terms[max(terms)]
    if c == 1:
        return dict(terms)
    inv = fld.inv(c)
    p = fld.characteristic
    if p:
        return {m: (v * inv) % p for m, v in terms.items()}
    return {m: v * inv for m, v in terms.items()}


def _row(terms, sugar):
    lead = max(terms)
    return (lead, tuple((m, c) for m, c in terms.items() if m != lead), sugar)


def _spoly(ti, ui, tj, uj, p):
    """ui*ti - uj*tj for monic packed term dicts and packed cofactors."""
    s = {m + ui: c for m, c in ti.items()}
    for m, c in tj.items():
        mm = m + uj
        val = s.get(mm, 0) - c
        if p:
            val %= p
        if val:
            s[mm] = val
        else:
            s.pop(mm, None)
    for m in s:
        if m & EXP_BOUND:
            raise _overflow()
    return s


def _buchberger(seeds, pk, fld, budget):
    """Reduced Groebner basis of the packed seed term dicts, packed."""
    p = fld.characteristic
    guard = pk.guard
    start = [_monic(t, fld) for t in seeds if t]
    if not start:
        return []
    start.sort(key=max)

    rows = []      # every basis row ever created: (lead, tail, sugar)
    terms_of = []  # parallel: full term dicts
    G = []         # active row indices
    P = []         # heap of pairs (sugar, lcm, i, j)

    divides = pk.divides

    def pair_entry(i, j, lcm):
        d = lcm & _MASK
        si = rows[i][2] + d - (rows[i][0] & _MASK)
        sj = rows[j][2] + d - (rows[j][0] & _MASK)
        return (si if si > sj else sj, lcm, i, j)

    def update(h):
        # Gebauer-Moeller: prune new pairs against each other, drop old
        # pairs whose lcm strictly factors through the new lead, retire
        # basis rows whose lead became divisible.
        nonlocal P, G
        lth = rows[h][0]
        C = sorted((pk.lcm(rows[g][0], lth), g) for g in G)
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
            if not (
                divides(lth, e[1])
                and pk.lcm(rows[e[2]][0], lth) != e[1]
                and pk.lcm(rows[e[3]][0], lth) != e[1]
            )
        ]
        keep.extend(pair_entry(g, h, lcm) for lcm, g in D if lcm != rows[g][0] + lth)
        heapify(keep)
        P = keep
        G = [g for g in G if not divides(lth, rows[g][0])] + [h]

    def add(rem, sugar):
        # returns False once the unit ideal is reached
        if not rem:
            return True
        if max(rem) == 0:
            return False
        terms = _monic(rem, fld)
        rows.append(_row(terms, sugar))
        terms_of.append(terms)
        update(len(rows) - 1)
        return True

    unit = [{0: fld.one}]
    for t in start:
        if max(t) == 0:
            return unit
        basis_rows = [rows[g] for g in G]
        sug = max(m & _MASK for m in t)
        if not add(*_reduce(dict(t), basis_rows, guard, p, budget, sugar=sug)):
            return unit

    while P:
        _, lcm, i, j = heappop(P)
        _charge(budget)
        u = lcm - rows[i][0]
        v = lcm - rows[j][0]
        s = _spoly(terms_of[i], u, terms_of[j], v, p)
        if not s:
            continue
        si = rows[i][2] + (u & _MASK)
        sj = rows[j][2] + (v & _MASK)
        basis_rows = [rows[g] for g in G]
        if not add(*_reduce(s, basis_rows, guard, p, budget, sugar=max(si, sj))):
            return unit

    # G is already minimal: new leads are never divisible by active ones
    # and update retires rows the other way around.
    return _reduce_tails([terms_of[g] for g in G], guard, p, budget)


def _reduce_tails(basis, guard, p, budget):
    """The reduced basis, sorted by lead, from the monic packed term dicts
    of a minimal Groebner basis: one pass reducing each tail against the
    other elements."""
    rows = [_row(t, 0) for t in basis]
    out = []
    for i in sorted(range(len(basis)), key=lambda i: rows[i][0]):
        rem, _ = _reduce(dict(basis[i]), rows[:i] + rows[i + 1:], guard, p, budget)
        out.append(rem)
    return out


def _spair_closure_ok(basis_dicts, ctx):
    """Buchberger criterion: every S-polynomial reduces to zero."""
    check = _Budget(10 * DEFAULT_BUDGET)
    pk = _packing(ctx.order, ctx.nvars)
    p = ctx.field.characteristic
    packed = [pk.pack_terms(t) for t in basis_dicts]
    rows = [_row(t, 0) for t in packed]
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            lcm = pk.lcm(rows[i][0], rows[j][0])
            s = _spoly(packed[i], lcm - rows[i][0], packed[j], lcm - rows[j][0], p)
            rem, _ = _reduce(s, rows, pk.guard, p, check)
            if rem:
                return False
    return True


class IdealHandle:
    """An ideal in a fixed ring with a per-order cache of reduced bases."""

    __slots__ = ("ctx", "gens", "gb_cache", "_sat")

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
        # on a result of `saturate`: (I, J generators, budget) until
        # sat_exponent is first read, then the exponent
        self._sat = None

    @property
    def sat_exponent(self):
        """Least k with I : J^k = I : J^infinity when this ideal is the
        result of saturate(I, J), else None.  Computed on first read."""
        if isinstance(self._sat, tuple):
            I, J_gens, budget = self._sat
            self._sat = _sat_exponent(I, self, J_gens, budget)
        return self._sat

    def __repr__(self):
        return "IdealHandle(%d gens in %s)" % (len(self.gens), ",".join(self.ctx.var_names))


def ideal(ctx, gens):
    return IdealHandle(ctx, list(gens))


def _order_key(ctx, order):
    normalized = replace(ctx, order=order).order if order is not None else ctx.order
    return normalized


def groebner_basis(I, order=None, budget=None):
    """Reduced Groebner basis of I under `order` (default: the ring order).

    The basis is cached on the handle per order; generators are sorted by
    increasing leading monomial and are monic.
    """
    okey = _order_key(I.ctx, order)
    cached = I.gb_cache.get(okey)
    if cached is not None:
        return list(cached)
    work_ctx = I.ctx if okey == I.ctx.order else replace(I.ctx, order=okey)
    b = _Budget(DEFAULT_BUDGET if budget is None else budget)
    pk = _packing(okey, I.ctx.nvars)
    basis = _buchberger([pk.pack_terms(g.terms) for g in I.gens], pk, I.ctx.field, b)
    basis_dicts = [pk.unpack_terms(t) for t in basis]
    if VERIFY_BASES and not _spair_closure_ok(basis_dicts, work_ctx):
        raise AssertionError("computed basis fails the Buchberger criterion")
    out = tuple(Poly(I.ctx, t, _clean=True) for t in basis_dicts)
    I.gb_cache[okey] = out
    return list(out)


def seed_gb_cache(I, order, basis):
    """Record an externally known reduced basis (e.g. from elimination)."""
    okey = _order_key(I.ctx, order)
    I.gb_cache[okey] = tuple(basis)


def normal_form(f, I, order=None, budget=None):
    """Remainder of f modulo the reduced basis of I: the canonical coset
    representative under the chosen order."""
    if f.ctx != I.ctx:
        raise RingError("polynomial and ideal live in different rings")
    gb = groebner_basis(I, order=order, budget=budget)
    if not gb:
        return f
    pk = _packing(_order_key(I.ctx, order), I.ctx.nvars)
    rows = [_row(pk.pack_terms(g.terms), 0) for g in gb]
    b = _Budget(DEFAULT_BUDGET if budget is None else budget)
    rem, _ = _reduce(pk.pack_terms(f.terms), rows, pk.guard, I.ctx.field.characteristic, b)
    return Poly(I.ctx, pk.unpack_terms(rem), _clean=True)


def ideal_contains(I, f, budget=None):
    return not normal_form(f, I, budget=budget)


def ideal_equal(I, J, budget=None):
    """Equality via reduced bases in the common ring order."""
    if I.ctx != J.ctx:
        raise RingError("ideals live in different rings")
    a = groebner_basis(I, budget=budget)
    b = groebner_basis(J, budget=budget)
    return [g.terms for g in a] == [g.terms for g in b]


def _restricted_order(order, k):
    if order in ("grevlex", "lex"):
        return order
    sizes = order[1]
    if sizes[0] == k:
        rest = sizes[1:]
        return "grevlex" if len(rest) == 1 else ("blocks", rest)
    return "grevlex"


def elimination_order(ctx, k):
    """The block order `eliminate` runs on: the first k variables in a
    leading block (the ring's own order when it already has one)."""
    if isinstance(ctx.order, tuple) and ctx.order[1][0] == k:
        return ctx.order
    return ("blocks", (k, ctx.nvars - k))


def eliminate(I, k, budget=None):
    """Intersect with the subring spanned by all but the first k variables.

    Runs a block-order basis putting the first k variables in their own
    leading block and keeps the generators free of them; those form a
    reduced basis of the elimination ideal in the restricted order.
    """
    ctx = I.ctx
    n = ctx.nvars
    if not 0 < k < n:
        raise RingError("cannot eliminate %d of %d variables" % (k, n))
    elim_order = elimination_order(ctx, k)
    gb = groebner_basis(I, order=elim_order, budget=budget)
    sub_order = _restricted_order(_order_key(ctx, elim_order), k)
    sub_ctx = RingCtx(
        ctx.var_names[k:],
        ctx.field,
        sub_order,
        weights=ctx.weights[k:],
        n_params=min(ctx.n_params, n - k),
    )
    index_map = [None] * k + list(range(n - k))
    kept = []
    for g in gb:
        if all(all(e == 0 for e in m[:k]) for m in g.terms):
            kept.append(g.map_vars(sub_ctx, index_map))
    out = IdealHandle(sub_ctx, kept)
    seed_gb_cache(out, sub_order, kept)
    return out


def _with_aux_var(ctx, weight=(0, 0)):
    """`ctx` with one fresh variable of bidegree `weight` in a leading
    block of its own."""
    t = fresh_names("t", 1, set(ctx.var_names))[0]
    order = ctx.order
    if order in ("grevlex", "lex"):
        sizes = (1, ctx.nvars)
    else:
        sizes = (1,) + order[1]
    return RingCtx(
        (t,) + ctx.var_names,
        ctx.field,
        ("blocks", sizes),
        weights=(weight,) + ctx.weights,
        n_params=ctx.n_params,
    )


def _drop_aux_var(gens, aux, ctx, budget):
    """Eliminate the leading variable of `aux` from the ideal of `gens`
    and return the result as an ideal of `ctx`."""
    elim = eliminate(IdealHandle(aux, gens), 1, budget=budget)
    back = [g.map_vars(ctx, list(range(ctx.nvars))) for g in elim.gens]
    out = IdealHandle(ctx, back)
    if ctx.order == elim.ctx.order:
        seed_gb_cache(out, ctx.order, tuple(back))
    return out


def intersect(I, J, budget=None):
    """I cap J through the single-variable trick: eliminate t from
    t*I + (1-t)*J."""
    if I.ctx != J.ctx:
        raise RingError("ideals live in different rings")
    ctx = I.ctx
    if not I.gens or not J.gens:
        return IdealHandle(ctx, [])
    aux = _with_aux_var(ctx)
    shift = [i + 1 for i in range(ctx.nvars)]
    t = Poly.var(aux, 0)
    one = Poly.constant(aux, 1)
    gens = [t * f.map_vars(aux, shift) for f in I.gens]
    gens += [(one - t) * g.map_vars(aux, shift) for g in J.gens]
    return _drop_aux_var(gens, aux, ctx, budget)


def _saturate_by(I, g, budget):
    """(I : g^infinity) by Rabinowitsch: eliminate t from I + (1 - t*g)."""
    ctx = I.ctx
    aux = _with_aux_var(ctx)
    shift = [i + 1 for i in range(ctx.nvars)]
    t = Poly.var(aux, 0)
    gens = [f.map_vars(aux, shift) for f in I.gens]
    gens.append(Poly.constant(aux, 1) - t * g.map_vars(aux, shift))
    return _drop_aux_var(gens, aux, ctx, budget)


def _independent_remainders(polys, rows, pk, fld, budget):
    """Nonzero remainders of the term dicts `polys` modulo the packed
    basis rows, cut down to a linearly independent set with distinct
    leads."""
    p = fld.characteristic
    pivots = {}
    for terms in polys:
        rem, _ = _reduce(pk.pack_terms(terms), rows, pk.guard, p, budget)
        # a combination of remainders is again a remainder
        while rem:
            lead = max(rem)
            piv = pivots.get(lead)
            if piv is None:
                pivots[lead] = _monic(rem, fld)
                break
            c = rem[lead]
            for m, v in piv.items():
                val = rem.get(m, 0) - c * v
                if p:
                    val %= p
                if val:
                    rem[m] = val
                else:
                    rem.pop(m, None)
    return [pk.unpack_terms(t) for t in pivots.values()]


def _sat_exponent(I, S, J_gens, budget):
    """Least k with J^k * S inside I, where S = I : J^infinity.

    I : J^k equals S exactly when J^k * S lies in I, so this is the
    number of strict steps in the chain I, I : J, I : J^2, ...  Only the
    remainders modulo I matter, and a spanning set of them is enough.
    """
    ctx = I.ctx
    pk = _packing(ctx.order, ctx.nvars)
    rows = [_row(pk.pack_terms(g.terms), 0) for g in groebner_basis(I, budget=budget)]
    b = _Budget(DEFAULT_BUDGET if budget is None else budget)
    cur = [g.terms for g in S.gens]
    k = 0
    while True:
        cur = _independent_remainders(cur, rows, pk, ctx.field, b)
        if not cur:
            return k
        k += 1
        cur = [(Poly(ctx, h, _clean=True) * g).terms for h in cur for g in J_gens]


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
        if sum(mon) != 1:
            return False
        mons.add(mon)
    return len(mons) == ctx.nvars > 0


def _finite_colength(leads_I, leads_S, n):
    """True when S/I has finite length, for ideals I inside S of
    k[x_0..x_{n-1}] with these lead monomials: exactly when the two Hilbert
    series differ by a polynomial, that is when (1-t)^n divides the
    difference of their numerators."""
    from .hilbert import _deflate, hilbert_numerator

    a = hilbert_numerator(leads_I, n)
    b = hilbert_numerator(leads_S, n)
    diff = [x - y for x, y in zip_longest(a, b, fillvalue=0)]
    return not any(diff) or _deflate(diff)[0] >= n


def _saturate_by_variables(I, budget):
    """I : m^infinity for m the ideal of all the variables of a grevlex
    ring, or None when the shortcut does not apply.

    For homogeneous f the last variable divides the grevlex lead of f only
    when it divides f, so stripping its powers from the reduced basis of I
    gives a basis of S = I : x_last^infinity (Bayer-Stillman).  Since
    I : m^infinity lies between I and S, the two are equal exactly when
    S/I has finite length.
    """
    ctx = I.ctx
    if any(len({sum(m) for m in g.terms}) > 1 for g in I.gens):
        return None
    pk = _packing(ctx.order, ctx.nvars)
    gb = [pk.pack_terms(g.terms) for g in groebner_basis(I, budget=budget)]
    shift, unit = pk.shifts[-1], pk.units[-1]
    stripped = []
    for t in gb:
        a = min((m >> shift) & _MASK for m in t)
        stripped.append({m - a * unit: c for m, c in t.items()} if a else t)
    # keep the lead-minimal elements; a divisor's lead is never larger
    stripped.sort(key=max)
    minimal, leads = [], []
    for t in stripped:
        lead = max(t)
        if not any(pk.divides(u, lead) for u in leads):
            minimal.append(t)
            leads.append(lead)
    if not _finite_colength(
        [pk.unpack(max(t)) for t in gb], [pk.unpack(u) for u in leads], ctx.nvars
    ):
        return None
    b = _Budget(DEFAULT_BUDGET if budget is None else budget)
    basis = [
        Poly(ctx, pk.unpack_terms(t), _clean=True)
        for t in _reduce_tails(minimal, pk.guard, ctx.field.characteristic, b)
    ]
    if VERIFY_BASES and not _spair_closure_ok([g.terms for g in basis], ctx):
        raise AssertionError("stripped basis fails the Buchberger criterion")
    out = IdealHandle(ctx, basis)
    seed_gb_cache(out, ctx.order, basis)
    return out


def saturate(I, J, budget=None):
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
    out = _saturate_by_variables(I, budget) if _is_irrelevant_ideal(I.ctx, gens) else None
    if out is None and not gens:
        out = IdealHandle(I.ctx, [Poly.constant(I.ctx, 1)])
    elif out is None:
        out = _saturate_by(I, gens[0], budget)
        for g in gens[1:]:
            out = intersect(out, _saturate_by(I, g, budget), budget=budget)
    out._sat = (I, gens, budget)
    return out


def serialize_ideal(I):
    """Ring header line followed by one generator per line."""
    from .ring import format_ring_header, format_poly

    lines = [format_ring_header(I.ctx)]
    for g in I.gens:
        lines.append(format_poly(g))
    return "\n".join(lines) + "\n"


def parse_ideal(text):
    """Inverse of serialize_ideal; blank lines and # comments are skipped."""
    from .ring import parse_ring_header, parse_poly

    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise RingError("empty ideal file")
    ctx = parse_ring_header(lines[0])
    return IdealHandle(ctx, [parse_poly(ln, ctx) for ln in lines[1:]])
