"""Hilbert series, Krull dimension and degree of homogeneous quotients.

Everything reduces to the lead ideal: the Hilbert series of R/I equals
that of R/LT(I), and the numerator N(t) of a monomial ideal follows the
pivot recursion N(I) = N(I + (x)) + t * N(I : x) on a pivot variable.
Dimension is the pole order of N(t)/(1-t)^n at t = 1, degree the value
of the deflated numerator there; for dimension zero that value is the
vector-space length of the quotient.
"""

from dataclasses import dataclass, replace
from functools import lru_cache
from math import comb

from .groebner import groebner_basis
from .ring import RingError, monomial_divides, monomials_of_degree


def minimalize_monomials(mons):
    """Minimal generating set of the monomial ideal spanned by `mons`."""
    mons = sorted(set(tuple(m) for m in mons), key=lambda m: (sum(m), m))
    out = []
    for m in mons:
        if not any(monomial_divides(g, m) for g in out):
            out.append(m)
    return out


def _poly_add(a, b):
    n = max(len(a), len(b))
    return tuple(
        (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)
    )


def _poly_shift(a, k):
    return (0,) * k + tuple(a)


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return tuple(out)


def _trim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return tuple(a) if a else (0,)


# process-wide, so dim_degree and hilbert_function share numerators within
# a command; bounded, so a long session cannot grow it without limit
@lru_cache(maxsize=4096)
def _numerator(gens, nvars):
    if not gens:
        return (1,)
    if any(sum(m) == 0 for m in gens):
        return (0,)
    if all(sum(1 for e in m if e) == 1 for m in gens):
        out = (1,)
        for m in gens:
            out = _poly_mul(out, (1,) + (0,) * (sum(m) - 1) + (-1,))
        return out
    # pivot: the most frequent variable among those present in a mixed
    # generator, ties to the lowest index
    mixed_vars = set()
    for m in gens:
        if sum(1 for e in m if e) > 1:
            mixed_vars.update(i for i, e in enumerate(m) if e)
    counts = [0] * nvars
    for m in gens:
        for i, e in enumerate(m):
            if e and i in mixed_vars:
                counts[i] += 1
    pivot = max(range(nvars), key=lambda i: (counts[i], -i))
    unit = tuple(1 if i == pivot else 0 for i in range(nvars))
    left = tuple(minimalize_monomials(list(gens) + [unit]))
    right = tuple(
        minimalize_monomials(
            tuple(e - 1 if i == pivot and e else e for i, e in enumerate(m))
            for m in gens
        )
    )
    return _trim(_poly_add(_numerator(left, nvars), _poly_shift(_numerator(right, nvars), 1)))


def hilbert_numerator(mons, nvars):
    """Coefficients of N(t) with HS(R/I) = N(t) / (1-t)^nvars."""
    gens = tuple(minimalize_monomials(mons))
    return _numerator(gens, nvars)


def count_standard_monomials(mons, nvars, k):
    """Brute-force count of degree-k monomials outside the monomial ideal."""
    gens = minimalize_monomials(mons)
    total = 0
    for m in monomials_of_degree(nvars, k):
        if not any(monomial_divides(g, m) for g in gens):
            total += 1
    return total


def _check_standard_homogeneous(polys, ctx):
    if any(sum(w) != 1 for w in ctx.weights):
        raise RingError("dimension computations need all variables in degree 1")
    for g in polys:
        degs = {sum(m) for m in g.terms}
        if len(degs) > 1:
            raise RingError("ideal is not homogeneous: %s" % g)


def lead_ideal(I, order=None):
    """Minimal generators of the lead-term ideal under the given order."""
    gb = groebner_basis(I, order=order)
    key = (I.ctx if order is None else replace(I.ctx, order=order)).key
    return minimalize_monomials([max(g.terms, key=key) for g in gb])


@dataclass(frozen=True)
class HilbertSummary:
    """Dimension data of a homogeneous quotient R/I.

    `dim` is the Krull dimension of the quotient ring (None for the unit
    ideal, whose quotient is zero), `proj_dim_of_scheme` is dim - 1, and
    `degree` is the normalized leading Hilbert coefficient; in dimension
    zero it is the length of the quotient.
    """

    dim: object
    proj_dim_of_scheme: object
    degree: object
    series_numerator: tuple


def _deflate(numer):
    """Split N(t) = (1-t)^u * Q(t) with Q(1) != 0; returns (u, Q)."""
    u = 0
    cur = list(numer)
    while sum(cur) == 0 and any(cur):
        nxt = []
        acc = 0
        for c in cur[:-1]:
            acc += c
            nxt.append(acc)
        cur = nxt if nxt else [0]
        u += 1
    return u, tuple(cur)


def monomial_dim_degree(mons, nvars):
    """HilbertSummary of k[x_1..x_nvars] modulo the ideal of `mons`."""
    numer = hilbert_numerator(mons, nvars)
    if numer == (0,):
        return HilbertSummary(None, None, None, numer)
    u, q = _deflate(numer)
    dim = nvars - u
    return HilbertSummary(dim, dim - 1, sum(q), numer)


def dim_degree(I):
    """HilbertSummary of R/I for a homogeneous ideal I."""
    gb = groebner_basis(I)
    _check_standard_homogeneous(gb, I.ctx)
    return monomial_dim_degree([g.lm() for g in gb], I.ctx.nvars)


def hilbert_function(I, k):
    """dim_k of R/I as a graded vector space, from the series numerator."""
    if k < 0:
        return 0
    gb = groebner_basis(I)
    _check_standard_homogeneous(gb, I.ctx)
    n = I.ctx.nvars
    return _hilbert_value(hilbert_numerator([g.lm() for g in gb], n), n, k)


def _hilbert_value(numer, nvars, k):
    """Coefficient of t^k in N(t) / (1-t)^nvars: the Hilbert function at
    k of the quotient with series numerator N."""
    return sum(
        c * comb(k - j + nvars - 1, nvars - 1)
        for j, c in enumerate(numer)
        if j <= k and c
    )
