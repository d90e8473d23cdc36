"""Buchberger engine and ideal arithmetic built on it.

The basis computation uses the Gebauer-Moeller pair update together with
sugar-order pair selection, and counts every single division step against
a per-call budget so that runaway eliminations fail loudly instead of
hanging.  All pair bookkeeping is list based with explicit sort keys, so
identical inputs produce identical bases, reduction traces and budgets.

Elimination always goes through a block order (grevlex inside each
block).  Intersections and saturations adjoin one leading auxiliary
variable and eliminate it: I cap J from t*I + (1-t)*J, and I : g^infinity
from I + (1 - t*g) (Rabinowitsch).  Saturation by an ideal intersects the
saturations by its generators.  Colons divide out an intersection.
"""

from dataclasses import replace
from heapq import heappush, heappop

from .ring import (
    Poly,
    RingCtx,
    RingError,
    fresh_names,
    monomial_div,
    monomial_lcm,
    monomial_mul,
    poly_exact_div,
)

DEFAULT_BUDGET = 1_000_000

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


def _reduce_dict(work, basis, ctx, budget, sugar=-1):
    """Fully reduce a term dict against monic basis rows.

    `basis` rows are (lead monomial, tail terms, sugar).  Returns the
    remainder dict and the propagated sugar degree.  Monomials are
    processed strictly top down, so every monomial is visited once.
    """
    fld = ctx.field
    p = fld.characteristic
    negkey = ctx.negkey
    rem = {}
    heap = []
    for m in work:
        heappush(heap, (negkey(m), m))
    while heap:
        m = heappop(heap)[1]
        c = work.pop(m, None)
        if c is None or not c:
            continue
        hit = None
        for row in basis:
            ltm = row[0]
            ok = True
            for a, b in zip(ltm, m):
                if a > b:
                    ok = False
                    break
            if ok:
                hit = row
                break
        if hit is None:
            rem[m] = c
            continue
        _charge(budget)
        ltm, tail, gsug = hit
        shift = tuple(x - y for x, y in zip(m, ltm))
        if sugar >= 0:
            s = gsug + sum(shift)
            if s > sugar:
                sugar = s
        for m2, c2 in tail:
            mm = tuple(x + y for x, y in zip(m2, shift))
            prev = work.get(mm)
            if prev is None:
                v = -c * c2
                if p:
                    v %= p
                if v:
                    work[mm] = v
                    heappush(heap, (negkey(mm), mm))
            else:
                v = prev - c * c2
                if p:
                    v %= p
                if v:
                    work[mm] = v
                else:
                    del work[mm]
    return rem, sugar


def _monic_dict(terms, ctx):
    fld = ctx.field
    lead = max(terms, key=ctx.key)
    inv = fld.inv(terms[lead])
    if inv == fld.one:
        return dict(terms)
    p = fld.characteristic
    if p:
        return {m: (c * inv) % p for m, c in terms.items()}
    return {m: c * inv for m, c in terms.items()}


def _row(terms, ctx, sugar):
    lead = max(terms, key=ctx.key)
    key = ctx.key
    tail = sorted(
        ((m, c) for m, c in terms.items() if m != lead),
        key=lambda t: key(t[0]),
        reverse=True,
    )
    return (lead, tuple(tail), sugar)


def _disjoint(a, b):
    return all(x == 0 or y == 0 for x, y in zip(a, b))


def _buchberger(seeds, ctx, budget):
    """Reduced Groebner basis of the seed term dicts, as term dicts."""
    fld = ctx.field
    key = ctx.key
    zero_mon = (0,) * len(ctx.var_names)

    start = []
    for t in seeds:
        if t:
            start.append(_monic_dict(t, ctx))
    if not start:
        return []
    start.sort(key=lambda t: key(max(t, key=key)))

    rows = []      # every basis row ever created
    terms_of = []  # parallel: full term dicts
    G = []         # active row indices
    P = []         # pairs (sel_key, lcm, i, j)

    def pair_entry(i, j):
        lcm = monomial_lcm(rows[i][0], rows[j][0])
        si = rows[i][2] + sum(lcm) - sum(rows[i][0])
        sj = rows[j][2] + sum(lcm) - sum(rows[j][0])
        sug = si if si > sj else sj
        return ((sug, key(lcm), i, j), lcm, i, j)

    def update(h):
        # Gebauer-Moeller: prune new pairs against each other, drop old
        # pairs whose lcm strictly factors through the new lead, retire
        # basis rows whose lead became divisible.
        nonlocal P, G
        lth = rows[h][0]
        C = []
        for g in G:
            lcm = monomial_lcm(rows[g][0], lth)
            C.append((key(lcm), g, lcm))
        C.sort()
        D = []
        while C:
            klcm, g, lcm = C.pop(0)
            useful = _disjoint(rows[g][0], lth) or not any(
                monomial_div(lcm, other[2]) is not None for other in C + D
            )
            if useful:
                D.append((klcm, g, lcm))
        E = [(g, lcm) for _, g, lcm in D if not _disjoint(rows[g][0], lth)]

        keepP = []
        for entry in P:
            _, lcm, i, j = entry
            if (
                monomial_div(lcm, lth) is not None
                and monomial_lcm(rows[i][0], lth) != lcm
                and monomial_lcm(rows[j][0], lth) != lcm
            ):
                continue
            keepP.append(entry)
        for g, lcm in E:
            keepP.append(pair_entry(g, h))
        P = keepP
        G = [g for g in G if monomial_div(rows[g][0], lth) is None] + [h]

    def add_row(terms, sugar):
        rows.append(_row(terms, ctx, sugar))
        terms_of.append(terms)
        return len(rows) - 1

    for t in start:
        if max(t, key=key) == zero_mon:
            return [{zero_mon: fld.one}]
        work = dict(t)
        basis_rows = [rows[g] for g in G]
        rem, sug = _reduce_dict(work, basis_rows, ctx, budget, sugar=max(map(sum, t)))
        if not rem:
            continue
        if max(rem, key=key) == zero_mon:
            return [{zero_mon: fld.one}]
        update(add_row(_monic_dict(rem, ctx), sug))

    while P:
        best = min(P)
        P.remove(best)
        _, lcm, i, j = best
        _charge(budget)
        u = tuple(x - y for x, y in zip(lcm, rows[i][0]))
        v = tuple(x - y for x, y in zip(lcm, rows[j][0]))
        p = fld.characteristic
        s = {}
        for m, c in terms_of[i].items():
            s[monomial_mul(m, u)] = c
        for m, c in terms_of[j].items():
            mm = monomial_mul(m, v)
            val = s.get(mm, 0) - c
            if p:
                val %= p
            if val:
                s[mm] = val
            else:
                s.pop(mm, None)
        if not s:
            continue
        sug0 = max(rows[i][2] + sum(u), rows[j][2] + sum(v))
        basis_rows = [rows[g] for g in G]
        rem, sug = _reduce_dict(s, basis_rows, ctx, budget, sugar=sug0)
        if not rem:
            continue
        if max(rem, key=key) == zero_mon:
            return [{zero_mon: fld.one}]
        update(add_row(_monic_dict(rem, ctx), sug))

    # G is already minimal: new leads are never divisible by active ones
    # and update retires rows the other way around.  Tail reduction
    # against the final leads finishes the reduced basis in one pass.
    final = []
    for g in sorted(G, key=lambda g: key(rows[g][0])):
        others = [rows[h] for h in G if h != g]
        rem, _ = _reduce_dict(dict(terms_of[g]), others, ctx, budget)
        final.append(_monic_dict(rem, ctx))
    return final


def _spair_closure_ok(basis_dicts, ctx):
    """Buchberger criterion: every S-polynomial reduces to zero."""
    check = _Budget(10 * DEFAULT_BUDGET)
    rows = [_row(t, ctx, max(map(sum, t))) for t in basis_dicts]
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            lcm = monomial_lcm(rows[i][0], rows[j][0])
            u = tuple(x - y for x, y in zip(lcm, rows[i][0]))
            v = tuple(x - y for x, y in zip(lcm, rows[j][0]))
            s = {}
            p = ctx.field.characteristic
            for m, c in basis_dicts[i].items():
                s[monomial_mul(m, u)] = c
            for m, c in basis_dicts[j].items():
                mm = monomial_mul(m, v)
                val = s.get(mm, 0) - c
                if p:
                    val %= p
                if val:
                    s[mm] = val
                else:
                    s.pop(mm, None)
            rem, _ = _reduce_dict(s, rows, ctx, check)
            if rem:
                return False
    return True


class IdealHandle:
    """An ideal in a fixed ring with a per-order cache of reduced bases."""

    __slots__ = ("ctx", "gens", "gb_cache", "sat_exponent")

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
        self.sat_exponent = None

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
    basis_dicts = _buchberger([g.terms for g in I.gens], work_ctx, b)
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
    okey = _order_key(I.ctx, order)
    work_ctx = I.ctx if okey == I.ctx.order else replace(I.ctx, order=okey)
    rows = [_row(g.terms, work_ctx, 0) for g in gb]
    b = _Budget(DEFAULT_BUDGET if budget is None else budget)
    rem, _ = _reduce_dict(dict(f.terms), rows, work_ctx, b)
    return Poly(I.ctx, rem, _clean=True)


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
    if isinstance(ctx.order, tuple) and ctx.order[1][0] == k:
        elim_order = ctx.order
    else:
        elim_order = ("blocks", (k, n - k))
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


def _with_aux_var(ctx):
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
        weights=((0, 0),) + ctx.weights,
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


def colon(I, g, budget=None):
    """(I : g) for a single polynomial g, via (I cap (g)) / g."""
    if not isinstance(g, Poly) or g.ctx != I.ctx:
        raise RingError("colon divisor must live in the ideal's ring")
    if not g:
        return IdealHandle(I.ctx, [Poly.constant(I.ctx, 1)])
    cap = intersect(I, IdealHandle(I.ctx, [g]), budget=budget)
    return IdealHandle(I.ctx, [poly_exact_div(f, g) for f in cap.gens])


def colon_ideal(I, J, budget=None):
    """(I : J) as the intersection of the single-generator colons."""
    gens = [g for g in J.gens if g]
    if not gens:
        return IdealHandle(I.ctx, [Poly.constant(I.ctx, 1)])
    out = colon(I, gens[0], budget=budget)
    for g in gens[1:]:
        out = intersect(out, colon(I, g, budget=budget), budget=budget)
    return out


def _saturate_by(I, g, budget):
    """(I : g^infinity) by Rabinowitsch: eliminate t from I + (1 - t*g)."""
    ctx = I.ctx
    aux = _with_aux_var(ctx)
    shift = [i + 1 for i in range(ctx.nvars)]
    t = Poly.var(aux, 0)
    gens = [f.map_vars(aux, shift) for f in I.gens]
    gens.append(Poly.constant(aux, 1) - t * g.map_vars(aux, shift))
    return _drop_aux_var(gens, aux, ctx, budget)


def _independent_remainders(polys, rows, ctx, budget):
    """Nonzero remainders of the term dicts `polys` modulo the basis
    rows, cut down to a linearly independent set with distinct leads."""
    p = ctx.field.characteristic
    key = ctx.key
    pivots = {}
    for terms in polys:
        rem, _ = _reduce_dict(dict(terms), rows, ctx, budget)
        # a combination of remainders is again a remainder
        while rem:
            lead = max(rem, key=key)
            piv = pivots.get(lead)
            if piv is None:
                pivots[lead] = _monic_dict(rem, ctx)
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
    return list(pivots.values())


def _sat_exponent(I, S, J_gens, budget):
    """Least k with J^k * S inside I, where S = I : J^infinity.

    I : J^k equals S exactly when J^k * S lies in I, so this is the
    number of strict steps in the chain I, I : J, I : J^2, ...  Only the
    remainders modulo I matter, and a spanning set of them is enough.
    """
    ctx = I.ctx
    rows = [_row(g.terms, ctx, 0) for g in groebner_basis(I, budget=budget)]
    b = _Budget(DEFAULT_BUDGET if budget is None else budget)
    cur = [g.terms for g in S.gens]
    k = 0
    while True:
        cur = _independent_remainders(cur, rows, ctx, b)
        if not cur:
            return k
        k += 1
        cur = [(Poly(ctx, h, _clean=True) * g).terms for h in cur for g in J_gens]


def saturate(I, J, budget=None):
    """(I : J^infinity) as the intersection over the generators g of J
    of (I : g^infinity), each computed by Rabinowitsch.

    The least k with I : J^k = I : J^infinity is recorded on the result
    as `sat_exponent`.  Homogeneous input stays homogeneous, which the
    blowup and fiber routines rely on.
    """
    if I.ctx != J.ctx:
        raise RingError("ideals live in different rings")
    gens = list(J.gens)
    if not gens:
        out = IdealHandle(I.ctx, [Poly.constant(I.ctx, 1)])
    else:
        out = _saturate_by(I, gens[0], budget)
        for g in gens[1:]:
            out = intersect(out, _saturate_by(I, g, budget), budget=budget)
    out.sat_exponent = _sat_exponent(I, out, gens, budget)
    return out


def interreduce(polys, budget=None):
    """Autoreduce a list of polynomials: monic, no lead divisibility, each
    fully reduced against the others.  Not necessarily a Groebner basis."""
    ctx = None
    work = []
    for pl in polys:
        if pl:
            ctx = pl.ctx
            work.append(_monic_dict(pl.terms, pl.ctx))
    if not work:
        return []
    b = _Budget(DEFAULT_BUDGET if budget is None else budget)
    key = ctx.key
    changed = True
    while changed:
        changed = False
        work.sort(key=lambda t: key(max(t, key=key)))
        for idx in range(len(work)):
            others = [_row(t, ctx, 0) for j, t in enumerate(work) if j != idx and t]
            if not others:
                continue
            rem, _ = _reduce_dict(dict(work[idx]), others, ctx, b)
            if rem != work[idx]:
                changed = True
                work[idx] = _monic_dict(rem, ctx) if rem else {}
        work = [t for t in work if t]
    work.sort(key=lambda t: key(max(t, key=key)))
    return [Poly(ctx, t, _clean=True) for t in work]


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
