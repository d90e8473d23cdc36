import random

import pytest
from hypothesis import given, settings, strategies as st

import reesdeg.groebner as gb_mod
from colon_oracle import colon, colon_chain_saturate, colon_ideal
from conftest import (
    count_buchberger_runs,
    nonzero_random_form,
    rand_coeff,
    random_form,
    random_poly,
    record_shortcut,
    small_ctx,
)
from reesdeg.blowup import fiber_cone_ideal, rees_ideal
from reesdeg.families import FamilySpec, make_family
from reesdeg.groebner import (
    EXP_BOUND,
    BudgetExceeded,
    _packing,
    _spair_closure_ok,
    _with_aux_var,
    eliminate,
    groebner_basis,
    ideal,
    ideal_contains,
    ideal_equal,
    intersect,
    normal_form,
    parse_ideal,
    saturate,
    serialize_ideal,
)
from reesdeg.ring import (
    FieldSpec,
    Poly,
    RingCtx,
    RingError,
    monomial_div,
    monomial_divides,
    monomial_mul,
    monomials_of_degree,
    parse_poly,
)

QQ = FieldSpec(0)
FP = FieldSpec(32003)


def random_saturation_case(rng, field):
    """A homogeneous ideal I with components along V(J), and J.

    J is principal, two forms, or the maximal ideal; I's generators are
    random forms times random powers of J's generators, plus one plain
    random form, so that I : J^infinity is usually bigger than I.
    """
    n = rng.randint(2, 3)
    ctx = RingCtx(tuple("x%d" % i for i in range(n)), field)
    kind = rng.choice(("principal", "pair", "maximal"))
    if kind == "principal":
        jgens = [nonzero_random_form(ctx, rng, rng.randint(1, 2))]
    elif kind == "pair":
        jgens = [nonzero_random_form(ctx, rng, 1) for _ in range(2)]
    else:
        jgens = [Poly.var(ctx, i) for i in range(n)]
    gens = [nonzero_random_form(ctx, rng, rng.randint(1, 2))]
    for _ in range(rng.randint(1, 2)):
        f = nonzero_random_form(ctx, rng, 1)
        for g in jgens:
            f = f * g.pow(rng.randint(0, 2))
        gens.append(f)
    return ideal(ctx, gens), ideal(ctx, jgens)


def mk(names, texts, field=QQ, order="grevlex"):
    ctx = RingCtx(tuple(names), field, order=order)
    return ctx, ideal(ctx, [parse_poly(t, ctx) for t in texts])


def assert_reduced(basis, ctx):
    """Structural check for a reduced basis: monic, pairwise lead-minimal,
    and no term of any element lies in the lead ideal of the others."""
    for i, g in enumerate(basis):
        assert g.lc() == ctx.field.one
        others = [h.lm() for j, h in enumerate(basis) if j != i]
        for mon in g.terms:
            assert not any(monomial_divides(lm, mon) for lm in others)


class TestBasics:
    def test_principal(self):
        ctx, I = mk(("x", "y"), ["2*x^2 - 2*y"])
        assert groebner_basis(I) == [parse_poly("x^2 - y", ctx)]

    def test_unit_ideal(self):
        ctx, I = mk(("x", "y"), ["x", "x + 1"])
        assert groebner_basis(I) == [Poly.constant(ctx, 1)]

    def test_zero_ideal(self):
        ctx, I = mk(("x", "y"), [])
        assert groebner_basis(I) == []
        assert normal_form(parse_poly("x + y", ctx), I) == parse_poly("x + y", ctx)

    def test_lex_pair(self):
        ctx, I = mk(("x", "y"), ["x*y - 1", "y^2 - 1"], order="lex")
        basis = groebner_basis(I)
        assert basis == [
            parse_poly("y^2 - 1", ctx),
            parse_poly("x - y", ctx),
        ] or basis == [
            parse_poly("x - y", ctx),
            parse_poly("y^2 - 1", ctx),
        ]
        assert_reduced(basis, ctx)

    def test_cached_and_deterministic(self):
        _, I = mk(("x", "y", "z"), ["x^2 - y*z", "x*y - z^2", "y^2 - x*z"])
        first = groebner_basis(I)
        assert groebner_basis(I) == first
        _, J = mk(("x", "y", "z"), ["x^2 - y*z", "x*y - z^2", "y^2 - x*z"])
        assert groebner_basis(J) == first

    def test_normal_form_linear(self):
        ctx, I = mk(("x", "y"), ["x^2 - y"])
        f = parse_poly("x^4 + x^2", ctx)
        assert normal_form(f, I) == parse_poly("y^2 + y", ctx)
        g = parse_poly("x^3", ctx)
        lhs = normal_form(f + g, I)
        assert lhs == normal_form(f, I) + normal_form(g, I)

    def test_membership(self):
        ctx, I = mk(("x", "y", "z"), ["x + y", "y + z"])
        assert ideal_contains(I, parse_poly("x - z", ctx))
        assert not ideal_contains(I, parse_poly("x", ctx))

    def test_ideal_equal_different_generators(self):
        ctx, I = mk(("x", "y"), ["x + y", "y"])
        _, J = mk(("x", "y"), ["x", "y"])
        assert ideal_equal(I, J)
        _, K = mk(("x", "y"), ["x"])
        assert not ideal_equal(I, K)

    def test_generator_validation(self):
        ctx = RingCtx(("x",), QQ)
        other = RingCtx(("y",), QQ)
        with pytest.raises(RingError):
            ideal(ctx, [parse_poly("y", other)])


class TestElimination:
    def test_cubic_curve(self):
        # parametrization y = x^2, z = x^3; eliminating x leaves y^3 - z^2
        ctx, I = mk(("x", "y", "z"), ["y - x^2", "z - x^3"])
        J = eliminate(I, 1)
        assert J.ctx.var_names == ("y", "z")
        assert groebner_basis(J) == [parse_poly("y^3 - z^2", J.ctx)]

    def test_eliminate_two(self):
        ctx, I = mk(("s", "t", "u"), ["u - s - t"])
        J = eliminate(I, 2)
        assert J.ctx.var_names == ("u",)
        assert groebner_basis(J) == []

    def test_twisted_cubic_from_parametrization(self):
        ctx, I = mk(
            ("s", "t", "y0", "y1", "y2", "y3"),
            ["y0 - s^3", "y1 - s^2*t", "y2 - s*t^2", "y3 - t^3"],
            order=("block", 2),
        )
        J = eliminate(I, 2)
        basis = groebner_basis(J)
        expect = [
            parse_poly(t, J.ctx)
            for t in ("y2^2 - y1*y3", "y1*y2 - y0*y3", "y1^2 - y0*y2")
        ]
        assert sorted(basis, key=str) == sorted(expect, key=str)


class TestIdealOperations:
    def test_intersect_coordinates(self):
        ctx, I = mk(("x", "y"), ["x"])
        _, J = mk(("x", "y"), ["y"])
        K = intersect(I, J)
        assert groebner_basis(K) == [parse_poly("x*y", ctx)]

    def test_intersect_contains_both_products(self):
        rng = random.Random(23)
        for _ in range(15):
            ctx = small_ctx(rng)
            I = ideal(ctx, [random_poly(ctx, rng, 2, 2) for _ in range(2)])
            J = ideal(ctx, [random_poly(ctx, rng, 2, 2) for _ in range(2)])
            K = intersect(I, J)
            for g in K.gens:
                assert ideal_contains(I, g)
                assert ideal_contains(J, g)
            for f in I.gens:
                for g in J.gens:
                    assert ideal_contains(K, f * g)

    def test_colon_single(self):
        ctx, I = mk(("x", "y"), ["x*y", "y^2"])
        Q = colon(I, parse_poly("y", ctx))
        _, expect = mk(("x", "y"), ["x", "y"])
        assert ideal_equal(Q, expect)

    def test_colon_ideal(self):
        ctx, I = mk(("x", "y"), ["x^2*y", "x*y^2"])
        _, J = mk(("x", "y"), ["x", "y"])
        Q = colon_ideal(I, J)
        _, expect = mk(("x", "y"), ["x*y"])
        assert ideal_equal(Q, expect)

    def test_saturate_monomial(self, monkeypatch):
        ctx, I = mk(("x", "y"), ["x^2*y", "x*y^2"])
        _, m = mk(("x", "y"), ["x", "y"])
        S = saturate(I, m)
        _, expect = mk(("x", "y"), ["x*y"])
        assert ideal_equal(S, expect)
        # the exponent reuses the basis of I that the saturation made
        runs = count_buchberger_runs(monkeypatch)
        assert S.sat_exponent == 1
        assert runs == []
        assert ideal(ctx, list(I.gens)).sat_exponent is None

    def test_saturate_already_saturated(self):
        ctx, I = mk(("x", "y"), ["x*y"])
        _, m = mk(("x", "y"), ["x", "y"])
        S = saturate(I, m)
        assert ideal_equal(S, I)
        assert S.sat_exponent == 0

    def test_saturation_oracle_rabinowitsch(self):
        # Independent route for I : g^infty over QQ: adjoin t, force t*g = 1,
        # and eliminate t.
        rng = random.Random(71)
        for _ in range(12):
            nv = rng.randint(2, 3)
            names = tuple("x%d" % i for i in range(nv))
            ctx = RingCtx(names, QQ)
            gens = [random_poly(ctx, rng, 2, 2) for _ in range(2)]
            g = nonzero_random_form(ctx, rng, rng.randint(1, 2))
            I = ideal(ctx, [f for f in gens if f])
            direct = saturate(I, ideal(ctx, [g]))

            tctx = RingCtx(("t",) + names, QQ, order=("block", 1))
            lift = [f.map_vars(tctx, list(range(1, nv + 1))) for f in I.gens]
            glift = g.map_vars(tctx, list(range(1, nv + 1)))
            tvar = Poly.var(tctx, 0)
            J = ideal(tctx, lift + [tvar * glift - Poly.constant(tctx, 1)])
            oracle = eliminate(J, 1)
            recast = ideal(ctx, [parse_poly(str(h), ctx) for h in oracle.gens])
            assert ideal_equal(direct, recast)

    @pytest.mark.parametrize("field", [FP, QQ], ids=["F_32003", "QQ"])
    def test_saturate_matches_colon_chain(self, field):
        rng = random.Random(1901 + field.characteristic)
        exponents = set()
        for _ in range(25):
            I, J = random_saturation_case(rng, field)
            S = saturate(I, J)
            oracle, k = colon_chain_saturate(I, J)
            assert ideal_equal(S, oracle)
            assert S.sat_exponent == k
            exponents.add(k)
        # the cases reach beyond already saturated ideals
        assert len(exponents) >= 3

    def test_saturate_edge_ideals(self):
        ctx, I = mk(("x", "y"), ["x^2*y", "x*y^2"])
        _, zero = mk(("x", "y"), [])
        _, unit = mk(("x", "y"), ["1"])
        _, m = mk(("x", "y"), ["x", "y"])
        for J in (zero, unit, m):
            S = saturate(I, J)
            oracle, k = colon_chain_saturate(I, J)
            assert ideal_equal(S, oracle)
            assert S.sat_exponent == k
        S = saturate(zero, m)
        assert groebner_basis(S) == [] and S.sat_exponent == 0
        S = saturate(unit, m)
        assert groebner_basis(S) == [Poly.constant(ctx, 1)] and S.sat_exponent == 0


def random_irrelevant_case(rng, field, on_plane):
    """A homogeneous ideal I of k[x0, x1, x2] whose saturation by the
    irrelevant ideal m is usually larger than I.

    Without `on_plane`, I = f1 * m^e1 + f2 * m^e2 for random forms f1, f2,
    so V(I) is the finite set V(f1, f2), on x2 = 0 only by chance.  With
    `on_plane`, the generators are random forms in P = (x2, l), for a
    linear form l in x0, x1, times random monomials, so V(P), a point on
    the hyperplane x2 = 0, lies on V(I) and I : x2^infinity is larger
    than I : m^infinity whenever it is a component.
    """
    ctx = RingCtx(("x0", "x1", "x2"), field)
    gens = []
    if on_plane:
        x2 = Poly.var(ctx, 2)
        c0, c1 = rand_coeff(ctx, rng, True), rand_coeff(ctx, rng, True)
        line = Poly(ctx, {(1, 0, 0): c0, (0, 1, 0): c1})
        for _ in range(rng.randint(2, 3)):
            d = rng.randint(0, 1)
            f = random_form(ctx, rng, d) * x2 + random_form(ctx, rng, d) * line
            mon = tuple(rng.randint(0, 1) for _ in range(3))
            gens.append(f * Poly.from_mon(ctx, mon))
    else:
        for _ in range(2):
            f = nonzero_random_form(ctx, rng, rng.randint(1, 2))
            mons = monomials_of_degree(3, rng.randint(0, 2))
            gens += [f * Poly.from_mon(ctx, mon) for mon in mons]
    return ideal(ctx, gens)


class TestSaturateByVariables:
    """saturate(I, m) by one grevlex basis (Bayer-Stillman) against the
    colon chain, with the Rabinowitsch fallback when V(I) meets x2 = 0."""

    @pytest.mark.parametrize(
        "field", [FP, QQ, FieldSpec(7)], ids=["F_32003", "QQ", "F_7"]
    )
    def test_matches_colon_chain(self, field, monkeypatch):
        monkeypatch.setattr(gb_mod, "VERIFY_BASES", True)
        taken = record_shortcut(monkeypatch)
        rng = random.Random(2207 + field.characteristic)
        cases = [(random_irrelevant_case(rng, field, i % 2), i % 2) for i in range(16)]
        # V(I) is the point (0:1:0) on x2 = 0: stripping x2 gives the unit
        # ideal, and only the fallback gets I : m^infinity = I
        _, point = mk(("x0", "x1", "x2"), ["x0^2", "x0*x2", "x2^2"], field=field)
        cases.append((point, True))
        outcomes = {True: [], False: []}
        for I, on_plane in cases:
            m = ideal(I.ctx, [Poly.var(I.ctx, j) for j in range(3)])
            del taken[:]
            S = saturate(I, m)
            oracle, k = colon_chain_saturate(I, m)
            # the seeded basis is the reduced one, generators included
            assert ideal_equal(S, oracle)
            assert list(S.gens) == groebner_basis(ideal(I.ctx, list(oracle.gens)))
            assert S.sat_exponent == k
            assert len(taken) == 1
            outcomes[bool(on_plane)].append(taken[0])
        assert True in outcomes[False]
        assert outcomes[True][-1] is False

    def test_shortcut_only_for_the_irrelevant_ideal(self, monkeypatch):
        taken = record_shortcut(monkeypatch)
        names = ("x0", "x1", "x2")
        _, I = mk(names, ["x0^2*x1", "x0*x1^2"])
        for texts in (["x0", "x1"], ["x0 + x1", "x1", "x2"], ["x0^2", "x1", "x2"]):
            _, J = mk(names, texts)
            assert ideal_equal(saturate(I, J), colon_chain_saturate(I, J)[0])
        _, lex_I = mk(names, ["x0^2*x1", "x0*x1^2"], order="lex")
        _, lex_m = mk(names, ["x0", "x1", "x2"], order="lex")
        saturate(lex_I, lex_m)
        assert taken == []
        # inhomogeneous input is turned away by the shortcut itself
        _, J = mk(names, ["x0", "x1", "x2"])
        _, inhom = mk(names, ["x0^2*x1 + x2", "x0*x1^2"])
        assert ideal_equal(saturate(inhom, J), colon_chain_saturate(inhom, J)[0])
        assert taken == [False]


class TestBudget:
    def test_budget_exceeded(self):
        _, I = mk(
            ("x", "y", "z"),
            ["x^3*y - z^2", "y^3*z - x^2", "z^3*x - y^2"],
        )
        with pytest.raises(BudgetExceeded):
            groebner_basis(I, budget=10)

    def test_budget_generous_enough(self):
        _, I = mk(("x", "y"), ["x^2 - y"])
        assert len(groebner_basis(I, budget=1000)) == 1


class TestClosureProperty:
    def test_random_bases_pass_buchberger_criterion(self):
        rng = random.Random(303)
        for _ in range(25):
            ctx = small_ctx(rng)
            gens = [random_poly(ctx, rng, 3, 3) for _ in range(rng.randint(1, 3))]
            I = ideal(ctx, [g for g in gens if g])
            basis = groebner_basis(I)
            assert _spair_closure_ok([g.terms for g in basis], ctx)
            assert_reduced(basis, ctx)

    def test_verify_flag_active(self, monkeypatch):
        monkeypatch.setattr(gb_mod, "VERIFY_BASES", True)
        _, I = mk(("x", "y", "z"), ["x^2 - y*z", "x*y - z^2"])
        basis = groebner_basis(I)
        assert basis


class TestSerialization:
    def test_round_trip(self):
        ctx, I = mk(("x", "y"), ["x^2 - y", "y^3"], field=FieldSpec(32003))
        text = serialize_ideal(I)
        J = parse_ideal(text)
        assert J.ctx == ctx
        assert list(J.gens) == list(I.gens)

    def test_comments_ignored(self):
        text = "# a comment\nring x y over 0 order grevlex\n# another\nx^2 - y\n"
        J = parse_ideal(text)
        assert len(J.gens) == 1

    def test_lead_term_containment_after_reduction(self):
        # every generator's lead must be reachable from the basis leads
        rng = random.Random(9)
        for _ in range(10):
            ctx = small_ctx(rng, chars=(0, 32003))
            gens = [random_poly(ctx, rng, 2, 3) for _ in range(2)]
            I = ideal(ctx, [g for g in gens if g])
            basis = groebner_basis(I)
            if basis and basis[0] == Poly.constant(ctx, 1):
                continue
            for g in I.gens:
                assert any(
                    monomial_div(g.lm(), h.lm()) is not None for h in basis
                )


@st.composite
def packed_rings(draw):
    """Rings under grevlex, lex, 2- and 3-block orders, and the weighted
    rings with a leading auxiliary variable that intersections and
    saturations run in."""
    kind = draw(st.sampled_from(("grevlex", "lex", "blocks2", "blocks3", "aux")))
    n = draw(st.integers(3 if kind == "blocks3" else 2 if kind == "blocks2" else 1, 6))
    order = "lex" if kind == "lex" else "grevlex"
    if kind == "blocks2" or (kind == "aux" and n >= 2 and draw(st.booleans())):
        k = draw(st.integers(1, n - 1))
        order = ("blocks", (k, n - k))
    elif kind == "blocks3":
        a = draw(st.integers(1, n - 2))
        b = draw(st.integers(1, n - 1 - a))
        order = ("blocks", (a, b, n - a - b))
    n_params = draw(st.integers(0, 1)) if kind == "aux" else 0
    ctx = RingCtx(tuple("x%d" % i for i in range(n)), FP, order, n_params=n_params)
    return _with_aux_var(ctx) if kind == "aux" else ctx


def exponents(ctx, hi=30):
    return st.lists(st.integers(0, hi), min_size=ctx.nvars, max_size=ctx.nvars).map(tuple)


class TestPackedEncoding:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_pack_matches_tuple_arithmetic(self, data):
        ctx = data.draw(packed_rings())
        pk = _packing(ctx.order, ctx.nvars)
        a = data.draw(exponents(ctx))
        b = data.draw(exponents(ctx))
        pa, pb = pk.pack(a), pk.pack(b)
        assert pk.unpack(pa) == a
        assert pa & (EXP_BOUND - 1) == sum(a)
        assert (pa < pb) == (ctx.key(a) < ctx.key(b))
        assert (pa == pb) == (a == b)
        assert pa + pb == pk.pack(monomial_mul(a, b))
        assert pk.divides(pb, pa) == monomial_divides(b, a)
        assert pk.lcm(pa, pb) == pk.pack(tuple(map(max, a, b)))
        if pk.divides(pb, pa):
            assert pk.unpack(pa - pb) == monomial_div(a, b)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_divides_near_the_bound(self, data):
        # large fields must not let a borrow escape the guard bits
        ctx = data.draw(packed_rings())
        pk = _packing(ctx.order, ctx.nvars)
        cap = (EXP_BOUND - 1) // ctx.nvars
        a = data.draw(exponents(ctx, cap))
        b = data.draw(exponents(ctx, cap))
        assert pk.divides(pk.pack(b), pk.pack(a)) == monomial_divides(b, a)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_overflow_raises(self, data):
        ctx = data.draw(packed_rings())
        pk = _packing(ctx.order, ctx.nvars)
        a = list(data.draw(exponents(ctx)))
        i = data.draw(st.integers(0, ctx.nvars - 1))
        a[i] += EXP_BOUND - sum(a) + data.draw(st.integers(0, 3))
        with pytest.raises(RingError, match=str(EXP_BOUND)):
            pk.pack(a)
        # a product that reaches the bound sets the degree field's guard
        # bit, which is what the reducer and S-polynomials test
        half = [0] * ctx.nvars
        half[i] = EXP_BOUND // 2
        ph = pk.pack(half)
        assert (ph + ph) & EXP_BOUND
        assert not (ph + ph - pk.pack([0] * i + [1] + [0] * (ctx.nvars - i - 1))) & EXP_BOUND

    def test_reduction_past_the_bound_raises(self):
        ctx, I = mk(("x", "y", "z"), ["x - y^2"], field=FP, order="lex")
        f = parse_poly("x*z^%d" % (EXP_BOUND - 2), ctx)
        with pytest.raises(RingError, match=str(EXP_BOUND)):
            normal_form(f, I)

    def test_lcm_past_the_bound_raises(self):
        _, I = mk(("x", "y"), ["x^%d*y - 1" % (EXP_BOUND - 2), "x*y^2 - 1"], field=FP)
        with pytest.raises(RingError, match=str(EXP_BOUND)):
            groebner_basis(I)


# (steps charged, basis size, total terms) of every Buchberger run made by
# rees_ideal and then fiber_cone_ideal.  Recorded with the tuple-monomial
# engine that the packed one replaced: the two run the same algorithm, so
# a change here is a change of algorithm, not of speed.
GOLDEN_STEPS = {
    "hb22": (FamilySpec("hilbert_burch", r=2, mu=(2, 2)), [(333, 13, 358), (151, 6, 250)]),
    "hb23": (FamilySpec("hilbert_burch", r=2, mu=(2, 3)), [(565, 16, 686), (390, 9, 710)]),
    "pfaffian5": (FamilySpec("pfaffian", r=4, D=1), [(3077, 22, 820), (3185, 19, 1114)]),
    "dejonquieres2": (FamilySpec("dejonquieres", m=2), [(88, 10, 60), (2, 2, 7)]),
    "hb12-Q": (FamilySpec("hilbert_burch", r=2, mu=(1, 2), prime=0), [(184, 9, 144), (61, 4, 77)]),
}


class TestGoldenSteps:
    @pytest.mark.parametrize("name", list(GOLDEN_STEPS))
    def test_step_counts_pinned(self, name, monkeypatch):
        spec, expected = GOLDEN_STEPS[name]
        forms = list(make_family(spec).forms)
        runs = []
        inner = gb_mod._buchberger

        def recording(*args):
            budget = next(a for a in args if isinstance(a, gb_mod._Budget))
            basis = inner(*args)
            runs.append(
                (budget.limit - budget.left, len(basis), sum(len(t) for t in basis))
            )
            return basis

        monkeypatch.setattr(gb_mod, "_buchberger", recording)
        fiber_cone_ideal(forms, rees=rees_ideal(forms))
        assert runs == expected
