"""Differential oracle: reduced bases and eliminations checked against
sympy on hypothesis-generated ideals over Q and F_32003.

sympy is a test-only extra; the module is skipped where it is missing.
"""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

sympy = pytest.importorskip("sympy")

from conftest import in_order  # noqa: E402
from reesdeg.groebner import eliminate, groebner_basis, ideal, ideal_equal  # noqa: E402
from reesdeg.ring import FieldSpec, Poly, RingCtx  # noqa: E402

# derandomized, and generators of degree at most 3: sympy's lex bases of
# denser ideals can take minutes
ORACLE = settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


@st.composite
def ideals(draw):
    prime = draw(st.sampled_from((0, 32003)))
    n = draw(st.integers(2, 3))
    ctx = RingCtx(tuple("x%d" % i for i in range(n)), FieldSpec(prime))
    mon = st.lists(st.integers(0, 2), min_size=n, max_size=n).map(tuple).filter(
        lambda m: sum(m) <= 3
    )
    if prime == 0:
        # rationals of either sign, so the engine's integer rows over Q
        # have leads other than 1
        coeff = st.fractions(-5, 5, max_denominator=1000)
    else:
        coeff = st.integers(0, prime - 1)
    gens = draw(
        st.lists(st.dictionaries(mon, coeff, min_size=1, max_size=4), min_size=2, max_size=3)
    )
    I = ideal(ctx, [Poly(ctx, t) for t in gens])
    assume(I.gens)
    return I


def sympy_basis(I, order):
    """sympy's reduced basis of I as (exponent tuple -> Fraction) dicts."""
    syms = sympy.symbols(I.ctx.var_names)
    exprs = [
        sympy.Poly.from_dict(
            {I.ctx.packing.unpack(m): sympy.Rational(Fraction(c).numerator, Fraction(c).denominator)
             for m, c in g.terms.items()},
            *syms,
            domain=sympy.QQ,
        ).as_expr()
        for g in I.gens
    ]
    p = I.ctx.field.characteristic
    if p:
        G = sympy.groebner(exprs, *syms, order=order, modulus=p)
    else:
        G = sympy.groebner(exprs, *syms, order=order, domain=sympy.QQ)
    out = []
    for f in G.polys:
        terms = {}
        for m, c in f.terms():
            r = f.domain.to_sympy(c)
            terms[m] = Fraction(int(r.p), int(r.q))
        out.append(terms)
    return out


class TestSympyOracle:
    @ORACLE
    @given(ideals())
    def test_reduced_grevlex_basis(self, I):
        ctx = I.ctx
        theirs = [Poly(ctx, t).monic() for t in sympy_basis(I, "grevlex")]
        theirs.sort(key=lambda f: ctx.key(f.lm()))
        assert [g.terms for g in groebner_basis(I)] == [f.terms for f in theirs]

    @ORACLE
    @given(ideals(), st.integers(1, 2))
    def test_elimination_matches_lex_basis(self, I, k):
        assume(k < I.ctx.nvars)
        ours = eliminate(in_order(I, ("block", k)), k)
        kept = [
            Poly(ours.ctx, {m[k:]: c for m, c in t.items()})
            for t in sympy_basis(I, "lex")
            if all(not any(m[:k]) for m in t)
        ]
        assert ideal_equal(ours, ideal(ours.ctx, kept))
