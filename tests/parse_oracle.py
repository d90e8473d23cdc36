"""The token-by-token polynomial parser that `reesdeg.ring.parse_poly`
replaced, kept as the reference it is tested against.

Each term fills a list of exponents, one entry per variable, found by
name with `RingCtx.index`, and packs it with `RingCtx.key` once the term
ends; every factor is matched by the regex.  The parser in `src/` sums
the packed monomial factor by factor and memoizes the matches, and must
return the same `Poly`, or raise `RingError` with the same message, on
every input.
"""

import re
from fractions import Fraction

from reesdeg.ring import Poly, RingError

_SIGNS = re.compile(r"([+-][\s+-]*)")
_FACTOR = re.compile(
    r"\s*(?:([0-9]+)\s*(?:/\s*([0-9]+))?|([A-Za-z_][A-Za-z_0-9]*)\s*(?:\^\s*([0-9]+))?)\s*"
)


def parse_poly(text, ctx):
    if not text.strip():
        return Poly.zero(ctx)
    fld = ctx.field
    terms = {}
    pieces = _SIGNS.split("+" + text)
    for signs, term in zip(pieces[1::2], pieces[2::2]):
        coeff = -1 if signs.count("-") % 2 else 1
        exps = [0] * ctx.nvars
        for factor in term.split("*"):
            m = _FACTOR.fullmatch(factor)
            if m is None:
                raise RingError("parse error at %r in %r" % (factor.strip(), text))
            num, den, name, e = m.groups()
            if name:
                exps[ctx.index(name)] += int(e or 1)
            elif den and not int(den):
                raise RingError("zero denominator in %r" % text)
            else:
                coeff *= Fraction(int(num), int(den)) if den else int(num)
        c = fld.norm(coeff)
        if c:
            mon = ctx.key(exps)
            s = fld.add(terms.get(mon, fld.zero), c)
            if s:
                terms[mon] = s
            else:
                del terms[mon]
    return Poly(ctx, terms, _clean=True)
