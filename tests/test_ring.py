import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_poly
import parse_oracle
import reesdeg.ring as ring
from reference_poly import monomial_div, monomial_lcm
from reesdeg.ring import (
    EXP_BOUND,
    MAX_PRIME,
    FieldSpec,
    Poly,
    RingCtx,
    RingError,
    format_poly,
    format_ring_header,
    fresh_names,
    monomials_of_degree,
    parse_poly,
    parse_ring_header,
    poly_exact_div,
    _is_prime,
)

QQ = FieldSpec(0)
FP = FieldSpec(32003)


def ctx3(field=QQ, order="grevlex"):
    return RingCtx(("x0", "x1", "x2"), field, order=order)


class TestFieldSpec:
    def test_rational_norm(self):
        assert QQ.norm(3) == Fraction(3)
        assert QQ.norm(Fraction(2, 4)) == Fraction(1, 2)

    def test_prime_norm_wraps(self):
        f = FieldSpec(7)
        assert f.norm(9) == 2
        assert f.norm(-1) == 6
        assert f.norm(Fraction(1, 2)) == f.mul(1, f.inv(2))

    def test_inverse(self):
        f = FieldSpec(7)
        for a in range(1, 7):
            assert f.mul(a, f.inv(a)) == 1
        assert QQ.inv(Fraction(3, 5)) == Fraction(5, 3)

    def test_integral_rationals_are_ints(self):
        assert type(QQ.norm(Fraction(4, 2))) is int
        assert type(QQ.norm(3)) is int
        assert type(QQ.norm(Fraction(1, 2))) is Fraction
        assert QQ.zero == FP.zero == 0 and QQ.one == FP.one == 1

    def test_rational_inverse_is_exact(self):
        assert QQ.inv(2) == Fraction(1, 2)
        assert type(QQ.inv(2)) is Fraction
        assert QQ.inv(Fraction(1, 3)) == 3
        assert type(QQ.inv(Fraction(1, 3))) is int
        assert QQ.inv(-1) == -1

    def test_bad_characteristic(self):
        with pytest.raises(RingError):
            FieldSpec(6)
        with pytest.raises(RingError):
            FieldSpec(2**31 - 1 + 2)

    def test_primality_is_exact(self):
        def trial_division(n):
            return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))

        for n in list(range(200_000)) + list(range(MAX_PRIME - 2000, MAX_PRIME + 1)):
            assert _is_prime(n) == trial_division(n), n
        # strong pseudoprimes to base 2
        assert not any(_is_prime(n) for n in (2047, 3277, 4033, 4681))
        assert _is_prime(MAX_PRIME) and FieldSpec(MAX_PRIME).characteristic == MAX_PRIME

    def test_zero_inverse(self):
        with pytest.raises(ZeroDivisionError):
            FieldSpec(7).inv(0)
        with pytest.raises(ZeroDivisionError):
            QQ.inv(0)


class TestOrders:
    def test_grevlex_degree_two_ranking(self):
        # Oracle: enumerate every degree-2 monomial and sort by the order key.
        ctx = ctx3()
        mons = list(monomials_of_degree(3, 2))
        ranked = sorted(mons, key=ctx.key, reverse=True)
        names = ["*".join([("x%d" % i)] * e if e > 1 else ["x%d" % i] * e)
                 for m in ranked for i, e in enumerate(m) if e]
        # x0^2 > x0*x1 > x1^2 > x0*x2 > x1*x2 > x2^2
        assert ranked == [
            (2, 0, 0), (1, 1, 0), (0, 2, 0),
            (1, 0, 1), (0, 1, 1), (0, 0, 2),
        ]
        assert names  # silence lint on the readable spelling above

    def test_grevlex_degree_first(self):
        ctx = ctx3()
        assert ctx.key((0, 0, 2)) > ctx.key((1, 0, 0))

    def test_lex_ignores_degree(self):
        ctx = ctx3(order="lex")
        assert ctx.key((1, 0, 0)) > ctx.key((0, 5, 5))

    def test_block_order_eliminates_front(self):
        ctx = ctx3(order=("block", 1))
        # any monomial containing x0 beats any x0-free monomial
        assert ctx.key((1, 0, 0)) > ctx.key((0, 9, 9))
        # within the x0-free block the comparison is grevlex
        assert ctx.key((0, 2, 0)) > ctx.key((0, 1, 1))

    def test_monomial_compare_consistent(self):
        ctx = ctx3()
        assert ctx.key((1, 1, 0)) > ctx.key((0, 2, 0))
        assert ctx.key((0, 0, 1)) == ctx.key((0, 0, 1))

    @pytest.mark.parametrize(
        "n, spellings",
        [
            (1, ["grevlex", "lex", ("blocks", (1,))]),
            (2, ["lex", ("blocks", (1, 1)), ("block", 1)]),
            (3, ["lex", ("blocks", (1, 1, 1))]),
            (3, ["grevlex", ("blocks", (3,))]),
            (3, [("block", 1), ("blocks", (1, 2))]),
            (4, [("block", 2), ("blocks", (2, 2))]),
        ],
    )
    def test_every_spelling_is_one_ring(self, n, spellings):
        # an order is its block sizes: its spellings give one ring, with
        # one shared packing
        names = tuple("x%d" % i for i in range(n))
        rings = [RingCtx(names, FP, order) for order in spellings]
        assert all(r == rings[0] for r in rings[1:])
        assert all(r.packing is rings[0].packing for r in rings[1:])


class TestMonomials:
    def test_div_and_lcm(self):
        assert monomial_div((3, 1, 0), (1, 1, 0)) == (2, 0, 0)
        assert monomial_div((1, 0, 0), (0, 1, 0)) is None
        assert monomial_lcm((2, 0, 1), (1, 3, 0)) == (2, 3, 1)

    def test_monomials_of_degree_count(self):
        for n in (1, 2, 3):
            for d in range(5):
                mons = list(monomials_of_degree(n, d))
                assert len(mons) == math.comb(d + n - 1, n - 1)
                assert len(set(mons)) == len(mons)
                assert all(sum(m) == d for m in mons)


class TestPolyArithmetic:
    def test_zero_terms_dropped(self):
        ctx = ctx3()
        f = Poly(ctx, {(1, 0, 0): 1, (0, 1, 0): 0})
        assert f.terms == {ctx.key((1, 0, 0)): Fraction(1)}

    def test_malformed_monomials_raise(self):
        ctx = ctx3()
        for terms in ({(1, 0): 1}, {(1, 0, 0): 1, (0, 0, 0, 5): 2}, {(-1, 0, 0): 1}):
            with pytest.raises(RingError, match="3 nonnegative exponents"):
                Poly(ctx, terms)
        with pytest.raises(RingError):
            Poly.from_mon(ctx, (0, 2, -1))
        with pytest.raises(RingError):
            Poly.var(ctx, 0).mul_term((1, 1), 1)

    def test_int_and_fraction_coefficients_agree(self):
        # a Fraction of denominator 1 only comes from fractional input;
        # it compares, hashes and prints like the int
        ctx = ctx3()
        m = ctx.key((1, 0, 0))
        f = Poly(ctx, {m: 3, 0: -2}, _clean=True)
        g = Poly(ctx, {m: Fraction(3), 0: Fraction(-2)}, _clean=True)
        assert f == g and hash(f) == hash(g)
        assert format_poly(f) == format_poly(g) == "3*x0 - 2"
        assert Poly(ctx, {(1, 0, 0): Fraction(6, 2)}).terms == {m: 3}

    def test_add_cancels(self):
        ctx = ctx3()
        x = Poly.var(ctx, 0)
        assert not (x - x)
        assert (x + x).terms == {ctx.key((1, 0, 0)): Fraction(2)}

    def test_product_example(self):
        ctx = ctx3()
        f = parse_poly("x0 + x1", ctx)
        g = parse_poly("x0 - x1", ctx)
        assert f * g == parse_poly("x0^2 - x1^2", ctx)

    def test_char_p_wraps_in_product(self):
        ctx = ctx3(FieldSpec(7))
        f = parse_poly("3*x0", ctx)
        assert (f * f) == parse_poly("2*x0^2", ctx)

    def test_pow(self):
        ctx = ctx3()
        f = parse_poly("x0 + x1", ctx)
        assert f.pow(3) == parse_poly("x0^3 + 3*x0^2*x1 + 3*x0*x1^2 + x1^3", ctx)
        assert f.pow(0) == Poly.constant(ctx, 1)

    def test_lt_is_max(self):
        ctx = ctx3()
        f = parse_poly("x2^2 + x0*x1", ctx)
        assert f.lm() == (1, 1, 0)

    def test_evaluate(self):
        ctx = ctx3()
        f = parse_poly("x0^2 + 2*x1*x2", ctx)
        assert f.evaluate([1, 2, 3]) == Fraction(13)

    def test_is_homogeneous(self):
        ctx = ctx3()
        assert parse_poly("x0^2 + x1*x2", ctx).bidegree(3) is not None
        assert parse_poly("x0^2 + x1", ctx).bidegree(3) is None
        # the zero polynomial has no bidegree
        assert Poly.zero(ctx).bidegree(3) is None
        with pytest.raises(RingError, match="cannot split"):
            Poly.zero(ctx).bidegree(4)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**30), st.sampled_from([0, 7, 32003]))
    def test_ring_laws_random(self, seed, char):
        import random

        rng = random.Random(seed)
        ctx = ctx3(FieldSpec(char))
        f = random_poly(ctx, rng)
        g = random_poly(ctx, rng)
        h = random_poly(ctx, rng)
        assert f + g == g + f
        assert (f + g) + h == f + (g + h)
        assert f * g == g * f
        assert f * (g + h) == f * g + f * h
        assert f + Poly.zero(ctx) == f
        assert f * Poly.constant(ctx, 1) == f


class TestExactDivision:
    def test_divides(self):
        ctx = ctx3()
        f = parse_poly("x0^2 - x1^2", ctx)
        g = parse_poly("x0 - x1", ctx)
        assert poly_exact_div(f, g) == parse_poly("x0 + x1", ctx)

    def test_zero_numerator(self):
        ctx = ctx3()
        g = parse_poly("x0 - x1", ctx)
        assert not poly_exact_div(Poly.zero(ctx), g)

    def test_remainder_raises(self):
        ctx = ctx3()
        with pytest.raises(RingError):
            poly_exact_div(parse_poly("x0^2 + 1", ctx), parse_poly("x0 - x1", ctx))

    def test_random_products_divide_back(self):
        import random

        rng = random.Random(5)
        for _ in range(40):
            ctx = ctx3(FieldSpec(rng.choice([0, 7, 32003])))
            f = random_poly(ctx, rng)
            g = random_poly(ctx, rng)
            if not g:
                continue
            assert poly_exact_div(f * g, g) == f


class TestParseFormat:
    def test_known_strings(self):
        ctx = ctx3()
        cases = [
            "x0^2 - x1*x2",
            "2*x0^3 + x1 - 5",
            "-x0 + 1/2*x1",
            "x2",
            "0",
            "7",
            "--x0",
            "1 / 2 * x0",
            "x0^0",
            "",
        ]
        for text in cases:
            f = parse_poly(text, ctx)
            assert parse_poly(format_poly(f), ctx) == f

    def test_fp_normalized_output(self):
        ctx = ctx3(FP)
        f = parse_poly("-x0 - 16001*x1", ctx)
        assert format_poly(f) == "32002*x0 + 16002*x1"

    def test_parenthesis_free_grammar_rejects_garbage(self):
        ctx = ctx3()
        for bad in ("x0 +", "y3", "x0^^2", "x0**2", "(x0)", "x0 x1", "2x0", "x0^2 x1", "2 3"):
            with pytest.raises(RingError):
                parse_poly(bad, ctx)

    def test_separators_and_signs_read_as_written(self):
        ctx = ctx3()
        for text, same in [
            ("--x0", "x0"),
            ("+ - x0", "-x0"),
            ("1 / 2 * x0", "1/2*x0"),
            ("x0 ^ 2 * x0", "x0^3"),
            ("x0^0", "1"),
            ("", "0"),
            ("x0 - x0 + 2*x1", "2*x1"),
        ]:
            assert parse_poly(text, ctx) == parse_poly(same, ctx)

    def test_round_trip_random(self):
        import random

        rng = random.Random(11)
        for _ in range(60):
            ctx = ctx3(FieldSpec(rng.choice([0, 7, 32003])))
            f = random_poly(ctx, rng)
            assert parse_poly(format_poly(f), ctx) == f

    def test_negative_int_coefficients_print_as_differences(self):
        ctx = ctx3()
        f = parse_poly("-2*x0^2 - 3*x1 + 1/2*x2 - 1", ctx)
        assert format_poly(f) == "-2*x0^2 - 3*x1 + 1/2*x2 - 1"
        assert [type(c) for c in f.terms.values()] == [int, int, Fraction, int]

    @settings(max_examples=200, deadline=None)
    @given(
        st.dictionaries(
            st.tuples(*[st.integers(0, 3)] * 3),
            st.one_of(st.integers(-10**6, 10**6), st.fractions(max_denominator=10**4)),
            max_size=5,
        )
    )
    def test_round_trip_rational(self, terms):
        ctx = ctx3()
        f = Poly(ctx, terms)
        g = parse_poly(format_poly(f), ctx)
        assert g == f
        # integral coefficients come back as ints
        assert all(type(c) is int or c.denominator > 1 for c in g.terms.values())

    def test_format_orders_terms_descending(self):
        ctx = ctx3()
        f = parse_poly("x2 + x0^2 + x1*x2", ctx)
        assert format_poly(f) == "x0^2 + x1*x2 + x2"



@st.composite
def parse_rings(draw):
    """A ring of one to three coordinates and up to two parameters over
    F_2, F_7, F_32003 or Q, in grevlex, lex or an elimination order."""
    coords = ["x%d" % i for i in range(draw(st.integers(1, 3)))]
    params = ["a", "b"][: draw(st.integers(0, 2))]
    n = len(coords) + len(params)
    orders = ["grevlex", "lex"] + [("block", k) for k in range(1, n)]
    return RingCtx(
        tuple(coords + params),
        FieldSpec(draw(st.sampled_from([2, 7, 32003, 0]))),
        draw(st.sampled_from(orders)),
        n_params=len(params),
    )


# numerals, including ones that reach the exponent bound and one that
# names no ASCII digit
_NUMERALS = ["0", "1", "2", "3", "7", "12", "32003", "640033",
             str(EXP_BOUND - 1), str(EXP_BOUND), str(EXP_BOUND + 1), "\u00b2", "\u0663"]
_STRAYS = ["#", ".", "(", ")", "x0x1", "^", "*", "/", "+", "-", "2x0", "\u00e9", "\t", "\n"]


@st.composite
def parse_texts(draw, ctx):
    """Polynomial text from the grammar of `parse_poly`, as tokens joined
    by whitespace, then mutated: tokens dropped, doubled or replaced by
    stray characters, unknown names, zero denominators."""
    names = list(ctx.var_names) + ["y", "z9"] * draw(st.booleans())
    numeral = st.sampled_from(_NUMERALS[:6]) | st.sampled_from(_NUMERALS)
    factor = st.one_of(
        numeral.map(lambda n: [n]),
        st.tuples(numeral, numeral).map(lambda nd: [nd[0], "/", nd[1]]),
        st.sampled_from(names).map(lambda x: [x]),
        st.tuples(st.sampled_from(names), numeral).map(lambda xe: [xe[0], "^", xe[1]]),
    )
    tokens = []
    for k in range(draw(st.integers(1, 4))):
        signs = draw(st.lists(st.sampled_from("+-"), min_size=0 if k == 0 else 1, max_size=3))
        tokens += signs
        for j, f in enumerate(draw(st.lists(factor, min_size=1, max_size=4))):
            tokens += (["*"] if j else []) + f
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(tokens)))
        kind = draw(st.sampled_from(["drop", "double", "stray"]))
        if kind == "drop" and i < len(tokens):
            del tokens[i]
        elif kind == "double" and i < len(tokens):
            tokens.insert(i, tokens[i])
        elif kind == "stray":
            tokens.insert(i, draw(st.sampled_from(_STRAYS)))
    spaces = st.sampled_from(["", "", " ", "  ", "\t"])
    return "".join(draw(spaces) + t for t in tokens) + draw(spaces)


def _parse_outcome(parse, text, ctx):
    try:
        f = parse(text, ctx)
    except ValueError as exc:
        return type(exc), str(exc)
    return f.ctx, list(f.terms.items())


class TestParseOracle:
    """`parse_poly` against the token-by-token parser it replaced."""

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_same_poly_or_same_error(self, data):
        ctx = data.draw(parse_rings())
        text = data.draw(parse_texts(ctx))
        got = _parse_outcome(parse_poly, text, ctx)
        assert got == _parse_outcome(parse_oracle.parse_poly, text, ctx)
        if got[0] is ctx:
            f = parse_poly(text, ctx)
            assert parse_poly(format_poly(f), ctx) == f

    @pytest.mark.parametrize(
        "text",
        ["x0*x0^2", "x0^%d" % (EXP_BOUND - 1), "x0^%d*x1" % (EXP_BOUND - 1),
         "0*x0^%d" % EXP_BOUND, "x0^\u00b2", "1/0*x0", "x0 + 3/0", "2 *", "* x0",
         "x0^%d*x0" % (EXP_BOUND - 1), "32003*x1^%d" % EXP_BOUND, "3/7*x1", "1/2",
         "x0^ 2 ^3", "y", "z*y", "-+- x1 ^ 2", "x0 - x0", "1/2*x0 + 1/2*x0"],
    )
    @pytest.mark.parametrize("field", [2, 7, 32003, 0])
    def test_listed_inputs(self, text, field):
        ctx = RingCtx(("x0", "x1"), FieldSpec(field))
        assert _parse_outcome(parse_poly, text, ctx) == _parse_outcome(
            parse_oracle.parse_poly, text, ctx
        )

    def test_memo_is_bounded(self):
        ctx = ctx3()
        for k in range(2 * ring._FACTOR_MEMO + 1):
            assert parse_poly("%d*x0" % k, ctx) == Poly.from_mon(ctx, (1, 0, 0), k)
        assert 0 < len(ring._factors) <= ring._FACTOR_MEMO


class TestRingHeader:
    def test_round_trip_plain(self):
        ctx = ctx3(FP)
        line = format_ring_header(ctx)
        assert parse_ring_header(line) == ctx

    def test_round_trip_params_and_orders(self):
        # every order a header names: grevlex, lex and each two-block order
        for field in (QQ, FP):
            for params in ((), ("a",), ("a", "b")):
                for n in (1, 2, 3):
                    names = tuple("x%d" % i for i in range(n)) + params
                    orders = ["grevlex", "lex"] + [("block", k) for k in range(1, len(names))]
                    for order in orders:
                        ctx = RingCtx(names, field, order=order, n_params=len(params))
                        assert parse_ring_header(format_ring_header(ctx)) == ctx

    @pytest.mark.parametrize(
        "names, sizes, n_params",
        # the ring `groebner._with_aux_var` makes over a parametric ring:
        # (t | x y | a)
        [(("t", "x", "y", "a"), (1, 2, 1), 1)],
    )
    def test_order_without_a_token_raises(self, names, sizes, n_params):
        ctx = RingCtx(names, FP, order=("blocks", sizes), n_params=n_params)
        with pytest.raises(RingError, match="cannot state the block order"):
            format_ring_header(ctx)

    def test_one_block_states_grevlex(self):
        ctx = RingCtx(("x0", "x1", "x2"), FP, order=("blocks", (3,)))
        assert ctx.order == "grevlex"
        assert format_ring_header(ctx) == "ring x0 x1 x2 over 32003 order grevlex"

    @pytest.mark.parametrize("n_params", [-1, 3, 5])
    def test_parameter_count_out_of_range_raises(self, n_params):
        # a header could not state it: "ring x y params  over 7" does not
        # parse back
        with pytest.raises(RingError, match="parameters in a ring of 2 variables"):
            RingCtx(("x", "y"), FP, n_params=n_params)
        assert RingCtx(("x", "y"), FP, n_params=2).n_params == 2

    def test_parse_example(self):
        ctx = parse_ring_header("ring x0 x1 x2 over 32003 order grevlex")
        assert ctx.var_names == ("x0", "x1", "x2")
        assert ctx.field.characteristic == 32003

    def test_bad_header(self):
        with pytest.raises(RingError):
            parse_ring_header("ring over 7")
        with pytest.raises(RingError):
            parse_ring_header("x0 x1 over 7")
        for line in ("ring x y params over 7", "ring x y over 7 order elim:x"):
            with pytest.raises(RingError, match=re.escape(repr(line))):
                parse_ring_header(line)


class TestSubstitution:
    def test_substitute_tail_params(self):
        full = RingCtx(("x", "y", "a"), QQ, n_params=1)
        small = RingCtx(("x", "y"), QQ)
        f = parse_poly("a*x^2 + y^2 + a", full)
        g = f.substitute_tail(small, [3])
        assert g == parse_poly("3*x^2 + y^2 + 3", small)

    def test_map_vars_embedding(self):
        small = RingCtx(("x", "y"), QQ)
        big = RingCtx(("t", "x", "y"), QQ)
        f = parse_poly("x^2 - y", small)
        g = f.map_vars(big, [1, 2])
        assert g == parse_poly("x^2 - y", big)


def test_fresh_names_avoid_collisions():
    names = fresh_names("y", 3, {"y0", "x0"})
    assert len(names) == 3
    assert "y0" not in names
    assert len(set(names)) == 3
