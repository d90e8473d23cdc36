"""Exact multivariate polynomial arithmetic over QQ and prime fields.

Polynomials are sparse dicts mapping packed monomials to coefficients.
In characteristic 0 a coefficient is a Python int when it is integral
and a `fractions.Fraction` only when it is not, so integral input
computes on plain ints from parsing on; in characteristic p it is an int
in the range [0, p).  Results of arithmetic are not brought back to that
form: a Fraction of denominator 1 arises only from fractional input, and
it compares, hashes and prints like the equal int.  A `RingCtx` fixes the
variable names, the coefficient field, the monomial order and the number
of trailing parameters, exactly what its header line states, and is
shared by every polynomial of the ring.  A bigrading is a split of the
coordinates into a first group x and the rest y: `Poly.bidegree(nx)`
reads it off the first nx variables, and parameters have degree 0.

Supported orders: graded reverse lexicographic, lexicographic, and block
orders (grevlex inside each block, blocks compared left to right), which
is what every elimination step in the package runs on.  An order is its
block sizes (`_block_sizes`), and a ring stores one spelling of each:
"grevlex" for one block, "lex" for two or more blocks of one variable,
and ("blocks", sizes) otherwise.

There is one monomial representation: a monomial packs into one Python
int (Singular-style packed exponent vectors; Bachmann and Schoenemann,
"Monomial representations for Groebner bases computations", ISSAC 1998).
`RingCtx.packing` is the packing of the ring's order and `RingCtx.key`
packs an exponent tuple in it; `Poly.terms` is keyed by these ints, and
so is every term the Buchberger engine hands back, so `Poly` and the
engine share monomials without conversion.
Exponent tuples appear only at the edges: the `Poly` constructor,
`lt`/`lm`, and the methods that read exponents (`evaluate`, `map_vars`,
`substitute_tail`, and `bidegree` of a split or parameter ring).
Parsing sums each term's packed monomial from the packing's per-variable
units, and printing reads each exponent field off the packed int.
Fields of `_WIDTH` bits, least significant first, hold the degree,
the exponents e_0..e_{n-1}, and on top the order key as n
nonnegative linear forms: per block of the order, the block's degree
and then the prefix sums S_{hi-2}, ...,
S_lo of its variables (grevlex is one block, lex n blocks of one
variable).  Integer comparison is then the monomial order, `+`
multiplies, and `b` divides `a` exactly when `(a - b) & guard` is 0, in
which case `a - b` is the quotient.  Every field stays below `EXP_BOUND`
(2^23), which leaves the field's top bit, the guard bit, free: sums
never spill into the next field, a failed subtraction always borrows
into a guard bit, and a product whose degree reaches the bound sets the
degree field's guard bit and raises `RingError` instead of wrapping.  The
degree field always holds the total degree, inside Buchberger runs too.
"""

import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement
from functools import lru_cache

MAX_PRIME = 2**31 - 1
DEFAULT_PRIME = 32003

# exponents and total degrees of every packed monomial stay below this;
# a packed field is one bit wider, the guard bit
EXP_BOUND = 1 << 23
_WIDTH = 24
_MASK = EXP_BOUND - 1


class RingError(ValueError):
    """Malformed ring data: bad order, bad coefficient, parse failure."""


def _is_prime(p):
    """Whether p is prime, by deterministic Miller-Rabin with bases 2, 3,
    5 and 7, which is exact for every p below 3 215 031 751, the least
    strong pseudoprime to all four (above MAX_PRIME, so exact on every
    field and every prime the package draws)."""
    if p < 2:
        return False
    for q in (2, 3, 5, 7):
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Coefficient field: characteristic 0 means QQ, p means GF(p)."""

    characteristic: int = 0

    def __post_init__(self):
        p = self.characteristic
        if p == 0:
            return
        if p > MAX_PRIME:
            raise RingError("prime %d exceeds the machine word bound %d" % (p, MAX_PRIME))
        if not _is_prime(p):
            raise RingError("characteristic %d is not prime" % p)

    def norm(self, c):
        """Coerce ints, Fractions and field elements to canonical form:
        over Q an int when integral and a Fraction otherwise, over F_p
        an int in [0, p)."""
        p = self.characteristic
        if p:
            if isinstance(c, Fraction):
                if c.denominator % p == 0:
                    raise RingError("denominator of %s vanishes mod %d" % (c, p))
                return (c.numerator * pow(c.denominator, -1, p)) % p
            return int(c) % p
        if type(c) is int:
            return c
        c = Fraction(c)
        return c.numerator if c.denominator == 1 else c

    def add(self, a, b):
        p = self.characteristic
        return (a + b) % p if p else a + b

    def sub(self, a, b):
        p = self.characteristic
        return (a - b) % p if p else a - b

    def mul(self, a, b):
        p = self.characteristic
        return (a * b) % p if p else a * b

    def neg(self, a):
        p = self.characteristic
        return (-a) % p if p else -a

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero field element")
        p = self.characteristic
        return pow(a, -1, p) if p else self.norm(Fraction(1, a))

    def pow(self, a, e):
        p = self.characteristic
        return pow(a, e, p) if p else a**e

    zero = 0
    one = 1


def _block_sizes(order, n):
    """The block sizes of any spelling of a monomial order on n variables:
    "grevlex" is one block, "lex" n blocks of one variable, ("block", k)
    the blocks (k, n - k) and ("blocks", sizes) the blocks `sizes`."""
    if order == "grevlex":
        return (n,)
    if order == "lex":
        return (1,) * n
    if isinstance(order, tuple) and len(order) == 2 and order[0] == "block":
        k = order[1]
        if not 0 < k < n:
            raise RingError("block size %r out of range for %d variables" % (k, n))
        return (k, n - k)
    if isinstance(order, tuple) and len(order) == 2 and order[0] == "blocks":
        sizes = tuple(order[1])
        if any(s <= 0 for s in sizes) or sum(sizes) != n:
            raise RingError("block sizes %r do not partition %d variables" % (sizes, n))
        return sizes
    raise RingError("unknown monomial order %r" % (order,))


def _normalize_order(order, n):
    """The one spelling of `order`: "grevlex" for one block, "lex" for
    two or more blocks of one variable, else ("blocks", sizes)."""
    sizes = _block_sizes(order, n)
    if len(sizes) <= 1:
        return "grevlex"
    return "lex" if max(sizes) == 1 else ("blocks", sizes)


def _overflow():
    return RingError("monomial degree reaches the packed exponent bound %d" % EXP_BOUND)


def _order_fields(order, n):
    """The order key as index ranges: each field sums e_i over a range,
    most significant field first.  A block of k variables has k fields,
    the first of them its degree; lex is n blocks of one variable."""
    fields = []
    lo = 0
    for size in _block_sizes(order, n):
        hi = lo + size
        fields.append(range(lo, hi))
        fields.extend(range(lo, k + 1) for k in range(hi - 2, lo - 1, -1))
        lo = hi
    return fields


class _Packing:
    """Monomial encoding for one normalized monomial order on n
    variables.  The degree field is the total degree.  There is no packed
    lcm: callers keep exponent tuples and pack their elementwise maximum.
    Make one with `_packing`.
    """

    __slots__ = ("units", "shifts", "guard")

    def __init__(self, order, n):
        # field 0 is the degree, field 1 + i the exponent e_i, and the
        # order fields fill 2n down to n + 1; every exponent and order
        # field is at most the degree
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

    def divides(self, b, a):
        # a - b borrows, and so sets a guard bit, exactly where b is larger
        return not (a - b) & self.guard


# the one shared packing of a normalized order on n variables; unbounded,
# so a packing is never rebuilt and packings compare with `is`
_packing = lru_cache(maxsize=None)(_Packing)


def _minimal_packed(packed, guard, charge=None):
    """Indices of the minimal elements of `packed`, guard-bit packed
    monomials listed so that every divisor of an element comes before it.
    Of equal monomials the first is kept.  `charge`, when given, is called
    after each element with the number of divisibility tests made for it."""
    out, kept = [], []
    for i, v in enumerate(packed):
        tests = len(kept)
        for u in kept:
            if not (v - u) & guard:
                tests = kept.index(u) + 1
                break
        else:
            out.append(i)
            kept.append(v)
        if charge:
            charge(tests)
    return out


# a variable name
_NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


@dataclass(frozen=True)
class RingCtx:
    """A polynomial ring: names, field, monomial order, parameter count,
    which is all `format_ring_header` states.

    The trailing `n_params` variables are deformation parameters rather
    than coordinates.  `order` is stored in its one spelling, so two
    spellings of one order give equal rings.  `packing` is the monomial
    packing of every `Poly` of the ring, shared by every ring of its
    order and size, and `key` packs an exponent tuple in it.
    """

    var_names: tuple
    field: FieldSpec = field(default_factory=FieldSpec)
    order: object = "grevlex"
    n_params: int = 0

    def __post_init__(self):
        names = tuple(self.var_names)
        if len(set(names)) != len(names):
            raise RingError("duplicate variable names in %r" % (names,))
        for nm in names:
            if not _NAME.fullmatch(nm):
                raise RingError("bad variable name %r" % nm)
        object.__setattr__(self, "var_names", names)
        if not 0 <= self.n_params <= len(names):
            raise RingError("%r parameters in a ring of %d variables" % (self.n_params, len(names)))
        object.__setattr__(self, "order", _normalize_order(self.order, len(names)))
        # the packing of every Poly of the ring, and the sort key of an
        # exponent tuple: larger key means larger monomial
        object.__setattr__(self, "packing", _packing(self.order, len(names)))
        object.__setattr__(self, "key", self.packing.pack)
        # what parse_poly and format_poly read: each name's index, and
        # each variable's exponent field as (shift, name)
        object.__setattr__(self, "_index_of", {nm: i for i, nm in enumerate(names)})
        object.__setattr__(self, "_exponents", tuple(zip(self.packing.shifts, names)))

    @property
    def nvars(self):
        return len(self.var_names)

    def index(self, name):
        try:
            return self._index_of[name]
        except KeyError:
            raise RingError("unknown variable %r" % name) from None


def monomial_divides(b, a):
    return all(x <= y for x, y in zip(b, a))


def monomials_of_degree(nvars, d):
    """All exponent tuples in `nvars` variables of total degree d."""
    if d < 0:
        return
    for combo in combinations_with_replacement(range(nvars), d):
        e = [0] * nvars
        for i in combo:
            e[i] += 1
        yield tuple(e)


# the one cache of packed monomials of one degree; bounded, like every
# process-wide cache but the packings above
@lru_cache(maxsize=256)
def _monomials(ctx, e):
    """The packed monomials of degree e of ctx, in the order of
    `monomials_of_degree`: for e = 1 the variables, x_k at k."""
    return tuple(ctx.key(u) for u in monomials_of_degree(ctx.nvars, e))


def _pack_checked(ctx, mon):
    """`ctx.key` of an exponent tuple, which must have one nonnegative
    exponent per variable."""
    mon = tuple(mon)
    if len(mon) != ctx.nvars or min(mon, default=0) < 0:
        raise RingError("monomial %r is not %d nonnegative exponents" % (mon, ctx.nvars))
    return ctx.key(mon)


def _product_sum(products, p):
    """Packed sum of the signed products (negate, a, b) of term dicts
    whose keys add when two terms multiply: packed monomials, or the
    powers of t of binary forms on a line.  Over F_p the products add up
    as plain ints, and each sum is reduced once; a nonzero term whose
    degree reaches the bound raises `RingError`."""
    acc = {}
    get = acc.get
    for negate, a, b in products:
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


class Poly:
    """Immutable sparse polynomial attached to a RingCtx: `terms` maps
    monomials packed by `ctx.key` to nonzero coefficients."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx, terms, _clean=False):
        """`terms` maps exponent tuples to coefficients; with `_clean` it
        is already a dict of packed monomials and nonzero field elements."""
        self.ctx = ctx
        if _clean:
            self.terms = terms
        else:
            f = ctx.field
            clean = {}
            for m, c in terms.items():
                m = _pack_checked(ctx, m)
                c = f.norm(c)
                if c:
                    clean[m] = c
            self.terms = clean

    @classmethod
    def zero(cls, ctx):
        return cls(ctx, {}, _clean=True)

    @classmethod
    def constant(cls, ctx, c):
        c = ctx.field.norm(c)
        if not c:
            return cls.zero(ctx)
        return cls(ctx, {0: c}, _clean=True)

    @classmethod
    def var(cls, ctx, i, e=1):
        mon = tuple(e if j == i else 0 for j in range(ctx.nvars))
        return cls(ctx, {_pack_checked(ctx, mon): ctx.field.one}, _clean=True)

    @classmethod
    def from_mon(cls, ctx, mon, c=None):
        m = _pack_checked(ctx, mon)
        c = ctx.field.one if c is None else ctx.field.norm(c)
        if not c:
            return cls.zero(ctx)
        return cls(ctx, {m: c}, _clean=True)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.ctx == other.ctx
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ctx.var_names, frozenset(self.terms.items())))

    def lt(self):
        """(exponent tuple, coefficient) of the leading term."""
        if not self.terms:
            raise ValueError("leading term of zero polynomial")
        m = max(self.terms)
        return self.ctx.packing.unpack(m), self.terms[m]

    def lm(self):
        return self.lt()[0]

    def lc(self):
        return self.lt()[1]

    def __add__(self, other):
        self._check(other)
        f = self.ctx.field
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = f.add(out.get(m, f.zero), c)
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return Poly(self.ctx, out, _clean=True)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        f = self.ctx.field
        return Poly(self.ctx, {m: f.neg(c) for m, c in self.terms.items()}, _clean=True)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return self.scale(other)
        self._check(other)
        product = _product_sum(((False, self.terms, other.terms),), self.ctx.field.characteristic)
        return Poly(self.ctx, product, _clean=True)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c):
        f = self.ctx.field
        c = f.norm(c)
        if not c:
            return Poly.zero(self.ctx)
        return Poly(self.ctx, {m: f.mul(v, c) for m, v in self.terms.items()}, _clean=True)

    def mul_term(self, mon, c):
        """self times c * x^mon, for an exponent tuple mon."""
        return self * Poly.from_mon(self.ctx, mon, c)

    def monic(self):
        if not self.terms:
            return self
        return self.scale(self.ctx.field.inv(self.lc()))

    def pow(self, e):
        if e < 0:
            raise ValueError("negative power of a polynomial")
        out = Poly.constant(self.ctx, 1)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base if e > 1 else base
            e >>= 1
        return out

    def bidegree(self, nx):
        """Common (degree in the first nx variables, degree in the other
        coordinates) of all terms, or None if not bihomogeneous; the
        parameters do not count.  Exponents are unpacked only when nx
        leaves out a variable."""
        ctx = self.ctx
        nc = ctx.nvars - ctx.n_params
        if not 0 <= nx <= nc:
            raise RingError("cannot split %d coordinates after %r" % (nc, nx))
        if nx == ctx.nvars:
            degs = {m & _MASK for m in self.terms}
            return (degs.pop(), 0) if len(degs) == 1 else None
        unpack = ctx.packing.unpack
        degs = set()
        for m in self.terms:
            e = unpack(m)
            degs.add((sum(e[:nx]), sum(e[nx:nc])))
            if len(degs) > 1:
                return None
        return degs.pop() if degs else None

    def evaluate(self, values):
        """Evaluate at a point given as one field element per variable."""
        if len(values) != self.ctx.nvars:
            raise ValueError("point arity does not match ring")
        f = self.ctx.field
        vals = [f.norm(v) for v in values]
        unpack = self.ctx.packing.unpack
        total = f.zero
        for m, c in self.terms.items():
            t = c
            for v, e in zip(vals, unpack(m)):
                if e:
                    t = f.mul(t, f.pow(v, e))
            total = f.add(total, t)
        return total

    def map_vars(self, new_ctx, index_map):
        """Renumber variables: old index i becomes index_map[i] in new_ctx.

        Entries equal to None assert the variable is absent from self.
        """
        out = {}
        f = new_ctx.field
        unpack, key = self.ctx.packing.unpack, new_ctx.key
        for m, c in self.terms.items():
            new = [0] * new_ctx.nvars
            for i, e in enumerate(unpack(m)):
                if not e:
                    continue
                j = index_map[i]
                if j is None:
                    raise RingError(
                        "variable %s present but not mapped" % self.ctx.var_names[i]
                    )
                new[j] = e
            c = f.norm(c)
            if c:
                out[key(new)] = c
        return Poly(new_ctx, out, _clean=True)

    def substitute_tail(self, new_ctx, values):
        """Assign field values to the trailing variables, keep the rest.

        `new_ctx` must consist of the leading variables of self.ctx and
        `values` must cover the remaining trailing ones.
        """
        k = new_ctx.nvars
        if k + len(values) != self.ctx.nvars:
            raise RingError("substitution arity mismatch")
        f = new_ctx.field
        vals = [f.norm(v) for v in values]
        unpack, key = self.ctx.packing.unpack, new_ctx.key
        out = {}
        for m, c in self.terms.items():
            m = unpack(m)
            t = f.norm(c)
            for v, e in zip(vals, m[k:]):
                if e:
                    t = f.mul(t, f.pow(v, e))
            if not t:
                continue
            head = key(m[:k])
            s = f.add(out.get(head, f.zero), t)
            if s:
                out[head] = s
            else:
                out.pop(head, None)
        return Poly(new_ctx, out, _clean=True)

    def _check(self, other):
        if self.ctx != other.ctx:
            raise RingError("polynomials from different rings")

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return "Poly(%s)" % format_poly(self)


def poly_exact_div(f, g):
    """Exact quotient f / g; raises RingError when g does not divide f."""
    if not g:
        raise ZeroDivisionError("division by the zero polynomial")
    ctx = f.ctx
    fld = ctx.field
    guard = ctx.packing.guard
    (gm, gc), *rest = sorted(g.terms.items(), reverse=True)
    ginv = fld.inv(gc)
    work = dict(f.terms)
    quot = {}
    while work:
        m = max(work)
        q = m - gm
        if q & guard:
            raise RingError("inexact polynomial division")
        c = fld.mul(work.pop(m), ginv)
        quot[q] = c
        for m2, c2 in rest:
            mm = m2 + q
            s = fld.sub(work.get(mm, fld.zero), fld.mul(c2, c))
            if s:
                work[mm] = s
            else:
                work.pop(mm, None)
    return Poly(ctx, quot, _clean=True)


# signs between terms, and one factor: n, n/m, x or x^e; numerals are
# ASCII digits, which `\d` would widen to every Unicode digit
_SIGNS = re.compile(r"([+-][\s+-]*)")
_FACTOR = re.compile(
    r"\s*(?:([0-9]+)\s*(?:/\s*([0-9]+))?|([A-Za-z_][A-Za-z_0-9]*)\s*(?:\^\s*([0-9]+))?)\s*"
)
# the groups of each factor text that matched _FACTOR, cleared when it
# holds _FACTOR_MEMO entries; factor texts such as `x0^2` recur from
# map to map, so most lookups hit.  A text that does not match is never
# kept, so every parse error comes from the regex
_factors = {}
_FACTOR_MEMO = 1024


def parse_poly(text, ctx):
    """Parse polynomial text into a Poly.

    The grammar: a polynomial is terms joined by runs of `+` and `-`
    (the first term may also carry a sign run); a term is factors
    joined by `*`; a factor is an integer n, a fraction n/m, a variable
    x or a power x^e with e a nonnegative integer, every numeral in ASCII
    digits.  Whitespace may stand
    between any two tokens, but nothing stands for a product: `2 x0`,
    `2x0` and `x0 x1` are errors, as is any other text.  Blank text is
    the zero polynomial.  In finite characteristic fractions are
    resolved by modular inversion.  Each term's packed monomial is summed
    factor by factor from the packing's units, and its total degree is
    checked against EXP_BOUND once the coefficient is known to be nonzero.
    """
    if not text.strip():
        return Poly.zero(ctx)
    fld = ctx.field
    units = ctx.packing.units
    p = fld.characteristic
    terms = {}
    pieces = _SIGNS.split("+" + text)
    for signs, term in zip(pieces[1::2], pieces[2::2]):
        coeff = -1 if signs.count("-") % 2 else 1
        mon = deg = 0
        for factor in term.split("*"):
            groups = _factors.get(factor)
            if groups is None:
                m = _FACTOR.fullmatch(factor)
                if m is None:
                    raise RingError("parse error at %r in %r" % (factor.strip(), text))
                if len(_factors) >= _FACTOR_MEMO:
                    _factors.clear()
                groups = _factors[factor] = m.groups()
            num, den, name, e = groups
            if name:
                e = int(e) if e else 1
                mon += e * units[ctx.index(name)]
                deg += e
            elif den and not int(den):
                raise RingError("zero denominator in %r" % text)
            else:
                coeff *= Fraction(int(num), int(den)) if den else int(num)
        # an int coefficient is reduced mod p here, any other by norm
        c = coeff % p if p and type(coeff) is int else fld.norm(coeff)
        if c:
            if deg >= EXP_BOUND:
                raise _overflow()
            if mon in terms:
                c += terms[mon]
                if p:
                    c %= p
                if not c:
                    del terms[mon]
                    continue
            terms[mon] = c
    return Poly(ctx, terms, _clean=True)


def format_poly(p):
    """Render terms in decreasing order; parse_poly round-trips the output.
    Each exponent is read straight off the packed monomial, and the scan
    of a term stops once its exponents add up to its degree."""
    if not p:
        return "0"
    one = p.ctx.field.one
    exponents = p.ctx._exponents
    parts = []
    for mon in sorted(p.terms, reverse=True):
        c = p.terms[mon]
        vars_part = []
        left = mon & _MASK
        for shift, name in exponents:
            if not left:
                break
            e = (mon >> shift) & _MASK
            if e == 1:
                vars_part.append(name)
            elif e:
                vars_part.append("%s^%d" % (name, e))
            left -= e
        # coefficients mod p are never negative
        neg = c < 0
        mag = -c if neg else c
        body = "*".join(vars_part)
        if not vars_part or mag != one:
            body = str(mag) + ("*" + body if body else "")
        if not parts:
            parts.append(("-" if neg else "") + body)
        else:
            parts.append((" - " if neg else " + ") + body)
    return "".join(parts)


def _order_token(order):
    if order in ("grevlex", "lex"):
        return order
    # elim:k reads back as the two blocks (k, n - k) and states no other
    if len(order[1]) != 2:
        raise RingError("a ring header cannot state the block order %r" % (order,))
    return "elim:%d" % order[1][0]


def format_ring_header(ctx):
    coords = ctx.var_names[: ctx.nvars - ctx.n_params]
    head = "ring " + " ".join(coords)
    if ctx.n_params:
        head += " params " + " ".join(ctx.var_names[ctx.nvars - ctx.n_params :])
    head += " over %d" % ctx.field.characteristic
    head += " order " + _order_token(ctx.order)
    return head


def parse_ring_header(line):
    """Parse `ring x y z [params a b] over p [order grevlex|lex|elim:k]`."""
    toks = line.split()
    if not toks or toks[0] != "ring":
        raise RingError("ring header must start with 'ring': %r" % line)
    i = 1
    names = []
    while i < len(toks) and toks[i] not in ("over", "params"):
        names.append(toks[i])
        i += 1
    params = []
    if i < len(toks) and toks[i] == "params":
        i += 1
        while i < len(toks) and toks[i] != "over":
            params.append(toks[i])
            i += 1
        if not params:
            raise RingError("'params' names no parameters in ring header: %r" % line)
    if i >= len(toks) or toks[i] != "over":
        raise RingError("missing 'over <char>' in ring header: %r" % line)
    i += 1
    if i >= len(toks):
        raise RingError("missing characteristic in ring header: %r" % line)
    # int() would also read "3_2003" and non-ASCII digits
    if not re.fullmatch(r"[0-9]+", toks[i]):
        raise RingError("bad characteristic %r" % toks[i])
    char = int(toks[i])
    i += 1
    order = "grevlex"
    if i < len(toks):
        if toks[i] != "order" or i + 1 >= len(toks):
            raise RingError("trailing tokens in ring header: %r" % line)
        tok = toks[i + 1]
        if tok in ("grevlex", "lex"):
            order = tok
        elif re.fullmatch(r"elim:[0-9]+", tok):
            order = ("block", int(tok[len("elim:") :]))
        else:
            raise RingError("unknown order token %r in ring header: %r" % (tok, line))
        i += 2
    if i != len(toks):
        raise RingError("trailing tokens in ring header: %r" % line)
    if not names:
        raise RingError("ring header declares no variables: %r" % line)
    return RingCtx(
        tuple(names) + tuple(params),
        FieldSpec(char),
        order,
        n_params=len(params),
    )


def fresh_names(base, count, taken):
    """`count` names starting from base0 that avoid the taken set."""
    prefix = base
    while any(("%s%d" % (prefix, i)) in taken for i in range(count)):
        prefix = "_" + prefix
    return tuple("%s%d" % (prefix, i) for i in range(count))
