"""`Poly` stores packed monomials; every operation must agree with the
tuple-keyed reference polynomial of tests/reference_poly.py over F_7,
F_32003 and Q, in grevlex, lex and block rings."""

from hypothesis import given, settings, strategies as st

from reference_poly import RefPoly
from reesdeg.ring import FieldSpec, Poly, RingCtx, format_poly, parse_poly

FIELDS = (FieldSpec(7), FieldSpec(32003), FieldSpec(0))


@st.composite
def rings(draw):
    n = draw(st.integers(2, 4))
    order = draw(st.sampled_from(["grevlex", "lex", "block"]))
    if order == "block":
        order = ("block", draw(st.integers(1, n - 1)))
    names = tuple("x%d" % i for i in range(n))
    return RingCtx(names, draw(st.sampled_from(FIELDS)), order, n_params=draw(st.integers(0, 1)))


def coeffs(ctx):
    p = ctx.field.characteristic
    if p:
        return st.integers(0, p - 1)
    return st.fractions(min_value=-20, max_value=20, max_denominator=9)


def term_dicts(ctx):
    mon = st.tuples(*[st.integers(0, 3)] * ctx.nvars)
    return st.dictionaries(mon, coeffs(ctx), max_size=5)


def field_values(ctx, n):
    return st.lists(coeffs(ctx), min_size=n, max_size=n)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_arithmetic_matches_reference(data):
    ctx = data.draw(rings())
    a, b = data.draw(term_dicts(ctx)), data.draw(term_dicts(ctx))
    f, g = Poly(ctx, a), Poly(ctx, b)
    ra, rb = RefPoly(ctx, a), RefPoly(ctx, b)
    assert RefPoly.of(f) == ra
    assert RefPoly.of(f + g) == ra + rb
    assert RefPoly.of(f - g) == ra - rb
    assert RefPoly.of(f * g) == ra * rb
    c = data.draw(coeffs(ctx))
    assert RefPoly.of(f.scale(c)) == ra.scale(c)
    mon = data.draw(st.tuples(*[st.integers(0, 2)] * ctx.nvars))
    assert RefPoly.of(f.mul_term(mon, c)) == ra * RefPoly(ctx, {mon: c})
    e = data.draw(st.integers(0, 3))
    assert RefPoly.of(f.pow(e)) == ra.pow(e)
    if f:
        assert f.lt() == ra.lt()
    # a bigrading is a split of the coordinates: x before it, y after
    nx = data.draw(st.integers(0, ctx.nvars - ctx.n_params))
    assert f.bidegree(nx) == ra.bidegree(nx)
    point = data.draw(field_values(ctx, ctx.nvars))
    assert f.evaluate(point) == ra.evaluate(point)
    assert parse_poly(format_poly(f), ctx) == f


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_variable_maps_match_reference(data):
    ctx = data.draw(rings())
    a = data.draw(term_dicts(ctx))
    f, ra = Poly(ctx, a), RefPoly(ctx, a)
    n = ctx.nvars
    # into a ring with one more variable, the old ones permuted
    wide = RingCtx(ctx.var_names + ("w",), ctx.field, data.draw(st.sampled_from(["grevlex", "lex"])))
    index_map = data.draw(st.permutations(range(n + 1)))[:n]
    assert RefPoly.of(f.map_vars(wide, index_map)) == ra.map_vars(wide, index_map)
    k = data.draw(st.integers(1, n - 1))
    head = RingCtx(ctx.var_names[:k], ctx.field, "grevlex")
    values = data.draw(field_values(ctx, n - k))
    assert RefPoly.of(f.substitute_tail(head, values)) == ra.substitute_tail(head, values)
