"""An engine-independent certificate for the Groebner bases of reesdeg.

`certify` checks that a basis the engine claims is a minimal Groebner
basis of its generators, `certify_reduction` that a tails pass over
such a basis gave the reduced basis, and `certify_rees` that the rows of
a Rees basis lie in the Rees ideal.  Nothing here reads
`reesdeg.groebner`: S-polynomials and remainders are computed in this
module, so a fault in the engine's own S-polynomials or reductions
cannot hide itself (a certifying algorithm: McConnell, Mehlhorn, Naeher
and Schweitzer, "Certifying algorithms", Computer Science Review 2011).

Monomials are the ring's packed ints (`RingCtx.packing`), whose encoding
`TestPackedEncoding` checks against tuple arithmetic: `+` multiplies, b
divides a exactly when `(a - b) & guard` is 0, and an lcm is packed from
the maximum of the unpacked exponent tuples.  Coefficients are ints:
mod p over F_p, where every basis row is made monic first, so a
remainder is exact without multipliers; over Q, where every row and
dividend is scaled to coprime integers and a remainder is fraction-free,
a nonzero integer multiple of the remainder over Q, which is zero
exactly when that one is.  Fraction arithmetic cost several times more.
"""

from heapq import heapify, heappop, heappush
from math import gcd, lcm

from reesdeg.ring import Poly


def _elements(terms, p):
    """A packed term dict with its coefficients as field elements, zeros
    dropped, over F_p; over Q, the dict times the one positive rational
    that makes its coefficients coprime integers."""
    if p:
        out = {m: c % p for m, c in terms.items()}
        return {m: c for m, c in out.items() if c}
    den = lcm(*(c.denominator for c in terms.values()))
    out = {m: int(c * den) for m, c in terms.items() if c}
    g = gcd(*out.values())
    return {m: c // g for m, c in out.items()}


def _monic(terms, p):
    """The row `_elements` gives, made monic over F_p."""
    t = _elements(terms, p)
    if p:
        inv = pow(t[max(t)], -1, p)
        return {m: c * inv % p for m, c in t.items()}
    return t


def remainder(f, rows, guard, p):
    """The remainder of f, a packed term dict of `_elements`, on division
    by `rows`, `_monic` packed term dicts: from the top down, each
    monomial that the lead of a row divides is cancelled by the first
    such row.  Over Q the remainder is fraction-free: to cancel c*m by a
    row of lead coefficient a, f and the remainder so far are multiplied
    by a/g, g = gcd(a, c), before (c/g) times the shifted row is taken
    off, so the result is a nonzero integer multiple of the remainder."""
    f = dict(f)
    heap = [-m for m in f]
    heapify(heap)
    leads = [max(g) for g in rows]
    rem = {}
    while heap:
        m = -heappop(heap)
        c = f.pop(m)
        if not c:
            continue
        for lead, g in zip(leads, rows):
            if not (m - lead) & guard:
                break
        else:
            rem[m] = c
            continue
        shift = m - lead
        if not p and g[lead] != 1:
            a = g[lead]
            h = gcd(a, c)
            a, c = a // h, c // h
            if a != 1:
                f = {k: a * v for k, v in f.items()}
                rem = {k: a * v for k, v in rem.items()}
        for k, v in g.items():
            if k != lead:
                k += shift
                if k not in f:
                    f[k] = 0
                    heappush(heap, -k)
                f[k] = (f[k] - c * v) % p if p else f[k] - c * v
    return rem


def s_polynomial(a, b, lcm, p):
    """(lcm / lead a) * a - (lcm / lead b) * b for `_monic` packed term
    dicts over F_p; over Q, where leads need not be 1, the integer
    multiple (B/g)*(lcm / lead a)*a - (A/g)*(lcm / lead b)*b, with A and
    B the lead coefficients of a and b and g = gcd(A, B)."""
    ua, ub = lcm - max(a), lcm - max(b)
    sa, sb = 1, 1
    if not p:
        A, B = a[max(a)], b[max(b)]
        g = gcd(A, B)
        sa, sb = B // g, A // g
    s = {m + ua: sa * c for m, c in a.items()}
    for m, c in b.items():
        k = m + ub
        v = s.get(k, 0) - sb * c
        s[k] = v % p if p else v
    return {m: c for m, c in s.items() if c}


def certify(basis, pk, p, gens=()):
    """Raise AssertionError unless `basis`, packed term dicts in the
    packing `pk` over F_p (over Q when p is 0), is a minimal Groebner
    basis: no lead divides another (minimal), every S-pair that the
    product criterion does not skip reduces to 0 (closed), and each of
    `gens`, packed term dicts, reduces to 0 (generating)."""
    guard = pk.guard
    rows = sorted((_monic(t, p) for t in basis), key=max)
    leads = [max(g) for g in rows]
    # a divisor of a lead is not larger than it
    for i, a in enumerate(leads):
        if any(not (a - b) & guard for b in leads[:i]):
            raise AssertionError("certificate: basis is not minimal, a lead divides another")
    exps = [pk.unpack(m) for m in leads]
    for i in range(len(rows)):
        for j in range(i):
            lcm = pk.pack(tuple(map(max, exps[i], exps[j])))
            if lcm != leads[i] + leads[j] and remainder(
                s_polynomial(rows[i], rows[j], lcm, p), rows, guard, p
            ):
                raise AssertionError("certificate: basis is not closed, an S-pair is left")
    for g in gens:
        if remainder(_elements(g, p), rows, guard, p):
            raise AssertionError("certificate: basis is not generating, a generator is left")


def is_reduced(basis, guard):
    """True when no term of a row of `basis`, packed term dicts, other
    than its lead is divisible by the lead of a row."""
    leads = [max(t) for t in basis]
    return not any(
        not (m - lead) & guard
        for t, own in zip(basis, leads)
        for m in t
        if m != own
        for lead in leads
    )


def certify_reduction(reduced, minimal, guard, p):
    """Raise AssertionError unless `reduced` is the reduced basis of the
    ideal whose minimal Groebner basis is `minimal`, both packed term
    dicts: the same leads, every row in the ideal (it reduces to 0 by
    `minimal`), and no term other than a lead divisible by a lead
    (reduced).  A set of elements of the ideal with the leads of a
    Groebner basis of it is one too."""
    if sorted(max(t) for t in reduced) != sorted(max(t) for t in minimal):
        raise AssertionError("certificate: the tails pass changed the leads")
    rows = [_monic(t, p) for t in minimal]
    if any(remainder(_elements(t, p), rows, guard, p) for t in reduced):
        raise AssertionError("certificate: a row of the tails pass is not in the ideal")
    if not is_reduced(reduced, guard):
        raise AssertionError("certificate: basis is not reduced")


def certify_rees(forms, rees):
    """Raise AssertionError unless every generator of `rees`, an ideal of
    k[x, y (, params)] such as the Rees ideal of the forms g_0..g_s of
    k[x (, params)], vanishes under y_i -> g_i."""
    ctx = forms[0].ctx
    nx, ny = ctx.nvars - ctx.n_params, len(forms)
    unpack = rees.ctx.packing.unpack
    powers = {}

    def power(i, e):
        if (i, e) not in powers:
            powers[i, e] = forms[i].pow(e)
        return powers[i, e]

    for f in rees.gens:
        image = Poly.zero(ctx)
        for m, c in f.terms.items():
            e = unpack(m)
            term = Poly.from_mon(ctx, e[:nx] + e[nx + ny :], c)
            for i, k in enumerate(e[nx : nx + ny]):
                if k:
                    term = term * power(i, k)
            image = image + term
        if image:
            raise AssertionError("certificate: a Rees row does not vanish under y -> g: %s" % f)
