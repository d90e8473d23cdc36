"""A tuple-keyed reference polynomial for checking `reesdeg.ring.Poly`.

Terms map exponent tuples to field elements, and every operation is the
textbook one on tuples, with the monomial order written out as a sort
key, so nothing here shares the packed encoding that `Poly` uses.  Only
the field arithmetic of `FieldSpec` is reused, and the tuple monomial
helpers are the reference for packed monomial arithmetic too.
"""

from operator import add


def monomial_mul(a, b):
    return tuple(map(add, a, b))


def monomial_div(a, b):
    """a / b, or None when b does not divide a."""
    if any(x < y for x, y in zip(a, b)):
        return None
    return tuple(x - y for x, y in zip(a, b))


def monomial_lcm(a, b):
    return tuple(map(max, a, b))


def order_key(order, mon):
    """Sort key of an exponent tuple: larger key, larger monomial, for a
    normalized order ("grevlex", "lex" or ("blocks", sizes)): grevlex
    compares degrees, then the last differing exponent, smaller first."""
    if order == "lex":
        return tuple(mon)
    sizes = (len(mon),) if order == "grevlex" else order[1]
    key, lo = [], 0
    for size in sizes:
        block = mon[lo : lo + size]
        key.append((sum(block), tuple(-e for e in reversed(block))))
        lo += size
    return tuple(key)


class RefPoly:
    def __init__(self, ctx, terms):
        f = ctx.field
        self.ctx = ctx
        self.terms = {}
        for m, c in terms.items():
            c = f.norm(c)
            if c:
                self.terms[tuple(m)] = c

    @classmethod
    def of(cls, poly):
        """The reference copy of a `Poly`, its monomials unpacked."""
        unpack = poly.ctx.packing.unpack
        return cls(poly.ctx, {unpack(m): c for m, c in poly.terms.items()})

    def __eq__(self, other):
        return self.ctx == other.ctx and self.terms == other.terms

    def __repr__(self):
        return "RefPoly(%r)" % self.terms

    def _combine(self, pairs):
        f = self.ctx.field
        out = {}
        for m, c in pairs:
            out[m] = f.add(out.get(m, f.zero), c)
        return RefPoly(self.ctx, out)

    def __add__(self, other):
        return self._combine(list(self.terms.items()) + list(other.terms.items()))

    def __neg__(self):
        f = self.ctx.field
        return RefPoly(self.ctx, {m: f.neg(c) for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        f = self.ctx.field
        return self._combine(
            (monomial_mul(m1, m2), f.mul(c1, c2))
            for m1, c1 in self.terms.items()
            for m2, c2 in other.terms.items()
        )

    def scale(self, c):
        f = self.ctx.field
        c = f.norm(c)
        return RefPoly(self.ctx, {m: f.mul(v, c) for m, v in self.terms.items()})

    def pow(self, e):
        out = RefPoly(self.ctx, {(0,) * self.ctx.nvars: 1})
        for _ in range(e):
            out = out * self
        return out

    def lt(self):
        m = max(self.terms, key=lambda m: order_key(self.ctx.order, m))
        return m, self.terms[m]

    def bidegree(self, nx):
        """(degree in the first nx variables, degree in the other
        coordinates) of every term, or None when the terms disagree."""
        nc = self.ctx.nvars - self.ctx.n_params
        degs = {(sum(m[:nx]), sum(m[nx:nc])) for m in self.terms}
        return degs.pop() if len(degs) == 1 else None

    def evaluate(self, values):
        f = self.ctx.field
        total = f.zero
        for m, c in self.terms.items():
            for v, e in zip(values, m):
                c = f.mul(c, f.pow(f.norm(v), e))
            total = f.add(total, c)
        return total

    def map_vars(self, new_ctx, index_map):
        out = {}
        for m, c in self.terms.items():
            new = [0] * new_ctx.nvars
            for i, e in enumerate(m):
                if e:
                    new[index_map[i]] = e
            out[tuple(new)] = c
        return RefPoly(new_ctx, out)

    def substitute_tail(self, new_ctx, values):
        k = new_ctx.nvars
        f = self.ctx.field
        pairs = []
        for m, c in self.terms.items():
            for v, e in zip(values, m[k:]):
                c = f.mul(c, f.pow(f.norm(v), e))
            pairs.append((m[:k], c))
        out = {}
        for m, c in pairs:
            out[m] = f.add(out.get(m, f.zero), c)
        return RefPoly(new_ctx, out)
