"""Hilbert series, Krull dimension and degree of graded quotients.

Everything reduces to the lead ideal: the Hilbert series of R/I equals
that of R/LT(I).  Variables carry positive integer weights w_v, all 1 in
the standard grading, and the series of R/I is N(z) / prod_v (1 - z^w_v).
The numerator N of a monomial ideal follows the pivot recursion
N(I) = N(I + (x^a)) + z^(a*w_x) * N(I : x^a) on a pivot power x^a, with
a the least positive exponent of x among the generators, so the
recursion depth does not grow with the exponents; pairwise coprime
generators end it with the product of their factors (1 - z^deg).
Numerators are sparse {degree: coefficient} maps: (1 - z^(d+1)) costs
two entries.  Dimension
is the pole order of N(z)/(1-z)^n at z = 1, degree the value of the
deflated numerator there; for dimension zero that value is the
vector-space length of the quotient.
"""

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from operator import lshift, mul

from .groebner import _basis, _homogeneous, groebner_basis
from .ring import RingError, _minimal_packed, monomial_divides, monomials_of_degree


def _by_degree(m):
    return sum(m), m


def minimalize_monomials(mons):
    """Minimal generating set of the monomial ideal spanned by `mons`,
    sorted by (degree, exponents).

    Exponent tuples are packed into ints with one spare guard bit per
    field, so b divides a exactly when a - b sets no guard bit.  The
    fields are only as wide as the largest exponent needs, not the
    engine's 24 bits: the pivot recursion of `_numerator` calls this on
    every node, and the wide packing made `sfib-hf` of (x0^2,x1^2,x2^2)
    at power 40 about a quarter slower.
    """
    mons = sorted(set(map(tuple, mons)), key=_by_degree)
    if not mons:
        return []
    width = max(max(m, default=0) for m in mons).bit_length() + 1
    shifts = range(0, width * len(mons[0]), width)
    guard = sum(1 << (s + width - 1) for s in shifts)
    # a divisor has no larger degree, so it comes first
    packed = [sum(map(lshift, m, shifts)) for m in mons]
    return [mons[i] for i in _minimal_packed(packed, guard)]


def _add_shifted(acc, numer, shift):
    """acc += z^shift * numer on sparse numerators, in place."""
    for e, c in numer.items():
        v = acc.get(e + shift, 0) + c
        if v:
            acc[e + shift] = v
        else:
            del acc[e + shift]


# process-wide, so dim_degree and hilbert_function share numerators within
# a command; bounded, so a long session cannot grow it without limit.
# Results are shared through the cache and never modified.
@lru_cache(maxsize=4096)
def _numerator(gens, weights):
    # gens: a generating set sorted by (degree, exponents), so that a unit
    # comes first; pairwise coprime generators are minimal
    if not gens:
        return {0: 1}
    if not any(gens[0]):
        return {}
    # pivot: the variable in the most generators, ties to the lowest
    # index; its power: the least positive exponent it has
    counts = Counter(i for m in gens for i, e in enumerate(m) if e)
    pivot = min(counts, key=lambda i: (-counts[i], i))
    if counts[pivot] == 1:
        # pairwise coprime generators: a complete intersection
        out = {0: 1}
        for m in gens:
            nxt = dict(out)
            _add_shifted(nxt, {e: -c for e, c in out.items()}, sum(map(mul, m, weights)))
            out = nxt
        return out
    a = min(m[pivot] for m in gens if m[pivot])
    power = tuple(a if i == pivot else 0 for i in range(len(weights)))
    # x^a divides every generator that has the pivot in it
    left = tuple(sorted([power] + [m for m in gens if not m[pivot]], key=_by_degree))
    right = tuple(
        minimalize_monomials(
            m[:pivot] + (max(m[pivot] - a, 0),) + m[pivot + 1:] for m in gens
        )
    )
    out = dict(_numerator(left, weights))
    _add_shifted(out, _numerator(right, weights), a * weights[pivot])
    return out


def weighted_numerator(mons, weights):
    """Sparse N(z), a {degree: coefficient} map, with the Hilbert series
    of R/I equal to N(z) / prod_v (1 - z^w_v) for the monomial ideal I of
    `mons` and positive variable weights `weights`.

    The recursion holds for any generating set, so `mons` is only sorted
    by (degree, exponents), not minimalized: the leads of a basis are
    minimal already.
    """
    gens = tuple(sorted(set(map(tuple, mons)), key=_by_degree))
    return dict(_numerator(gens, tuple(weights)))


def hilbert_numerator(mons, nvars):
    """Coefficients of N(t) with HS(R/I) = N(t) / (1-t)^nvars."""
    numer = weighted_numerator(mons, (1,) * nvars)
    out = [0] * (max(numer, default=0) + 1)
    for e, c in numer.items():
        out[e] = c
    return tuple(out)


@lru_cache(maxsize=4096)
def _monomial_count(groups, m):
    """Number of monomials of weighted degree m in variables grouped as
    sorted (weight, how many) pairs; the heaviest group is summed over."""
    if not groups:
        return int(m == 0)
    (w, n), rest = groups[-1], groups[:-1]
    if not rest:
        return comb(m // w + n - 1, n - 1) if m % w == 0 else 0
    return sum(
        comb(j + n - 1, n - 1) * _monomial_count(rest, m - j * w)
        for j in range(m // w + 1)
    )


@lru_cache(maxsize=64)
def _weight_groups(weights):
    return tuple(sorted(Counter(weights).items()))


def hilbert_value(numer, weights, k):
    """Coefficient of z^k in N(z) / prod_v (1 - z^w_v): the Hilbert
    function at k of the quotient with sparse series numerator N."""
    groups = _weight_groups(tuple(weights))
    return sum(c * _monomial_count(groups, k - e) for e, c in numer.items() if e <= k)


def count_standard_monomials(mons, nvars, k):
    """Brute-force count of degree-k monomials outside the monomial ideal."""
    gens = minimalize_monomials(mons)
    total = 0
    for m in monomials_of_degree(nvars, k):
        if not any(monomial_divides(g, m) for g in gens):
            total += 1
    return total


def _standard_leads(I):
    """Leads of a minimal Groebner basis of I in the ring order, read off
    the cached packed basis, whose tails are never read; I must be
    homogeneous in the standard grading, so its ring has no parameters,
    the only variables not of degree 1."""
    if I.ctx.n_params:
        raise RingError("dimension computations need all variables in degree 1")
    basis = _basis(I)
    if not _homogeneous(basis):
        # inhomogeneous generators can leave inhomogeneous tails in a
        # minimal basis of a homogeneous ideal; its reduced basis has none
        for g in groebner_basis(I):
            if not _homogeneous([g.terms]):
                raise RingError("ideal is not homogeneous: %s" % g)
    unpack = I.ctx.packing.unpack
    return [unpack(max(t)) for t in basis]


def lead_ideal(I):
    """Minimal generators of the lead-term ideal in the ring order,
    sorted by (degree, exponents): the leads of a minimal Groebner basis,
    which are those of the reduced one.  For another order, build I in a
    ring with that order."""
    unpack = I.ctx.packing.unpack
    return sorted((unpack(max(t)) for t in _basis(I)), key=_by_degree)


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


def _order_at_one(numer):
    """(u, Q(1)) for a nonzero sparse N(z) = (1-z)^u * Q(z) with
    Q(1) != 0: the Taylor coefficients of N at z = 1 are the sums of
    c * C(e, j) over its terms c*z^e."""
    j = 0
    while True:
        a = sum(c * comb(e, j) for e, c in numer.items())
        if a:
            return j, (-1) ** j * a
        j += 1


def monomial_dim_degree(mons, nvars):
    """HilbertSummary of k[x_1..x_nvars] modulo the ideal of `mons`."""
    numer = weighted_numerator(mons, (1,) * nvars)
    if not numer:
        return HilbertSummary(None, None, None)
    u, q = _order_at_one(numer)
    dim = nvars - u
    return HilbertSummary(dim, dim - 1, q)


def dim_degree(I):
    """HilbertSummary of R/I for a homogeneous ideal I."""
    return monomial_dim_degree(_standard_leads(I), I.ctx.nvars)


def hilbert_function(I, k):
    """dim_k of R/I as a graded vector space, from the series numerator."""
    if k < 0:
        return 0
    ones = (1,) * I.ctx.nvars
    return hilbert_value(weighted_numerator(_standard_leads(I), ones), ones, k)
