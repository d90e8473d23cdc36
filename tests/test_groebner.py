import random
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

import certificate
import reesdeg.groebner as gb_mod
from colon_oracle import colon, colon_chain_saturate, colon_ideal
from conftest import (
    certify_bases,
    count_buchberger_runs,
    in_order,
    nonzero_random_form,
    rand_coeff,
    rand_rational,
    random_form,
    random_poly,
    record_shortcut,
    small_ctx,
)
from reference_poly import monomial_div, monomial_mul
from reesdeg.blowup import fiber_cone_ideal, graph_ideal, rees_ideal
from reesdeg.cli import main
from reesdeg.conditions import (
    PresentationMatrix,
    check_Gm,
    fitting_ideal,
    height,
    parse_matrix_file,
    serialize_matrix,
)
from reesdeg.families import FamilySpec, make_family, specialized_family
from reesdeg.groebner import (
    DEFAULT_BUDGET,
    EXP_BOUND,
    BudgetExceeded,
    IdealHandle,
    _degree_in,
    _spoly,
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
    seed_hilbert_series,
    serialize_ideal,
    step_budget,
)
from reesdeg.hilbert import dim_degree, lead_ideal, weighted_numerator
from reesdeg.ratmap import (
    base_locus,
    parse_map_file,
    rational_map,
    serialize_map,
    sfib_hilbert_function,
)
from reesdeg.ring import (
    FieldSpec,
    Poly,
    RingCtx,
    RingError,
    _Packing,
    _packing,
    monomial_divides,
    monomials_of_degree,
    parse_poly,
)

QQ = FieldSpec(0)
FP = FieldSpec(32003)


def random_saturation_case(rng, field, coeff=rand_coeff):
    """A homogeneous ideal I with components along V(J), and J.

    J is principal, two forms, or the maximal ideal; I's generators are
    random forms times random powers of J's generators, plus one plain
    random form, so that I : J^infinity is usually bigger than I.
    Coefficients are drawn by `coeff`.
    """
    n = rng.randint(2, 3)
    ctx = RingCtx(tuple("x%d" % i for i in range(n)), field)
    kind = rng.choice(("principal", "pair", "maximal"))
    if kind == "principal":
        jgens = [nonzero_random_form(ctx, rng, rng.randint(1, 2), coeff=coeff)]
    elif kind == "pair":
        jgens = [nonzero_random_form(ctx, rng, 1, coeff=coeff) for _ in range(2)]
    else:
        jgens = [Poly.var(ctx, i) for i in range(n)]
    gens = [nonzero_random_form(ctx, rng, rng.randint(1, 2), coeff=coeff)]
    for _ in range(rng.randint(1, 2)):
        f = nonzero_random_form(ctx, rng, 1, coeff=coeff)
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
        for mon in map(ctx.packing.unpack, g.terms):
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
        ctx, I = mk(("x", "y", "z"), ["y - x^2", "z - x^3"], order=("block", 1))
        J = eliminate(I, 1)
        assert J.ctx.var_names == ("y", "z")
        assert groebner_basis(J) == [parse_poly("y^3 - z^2", J.ctx)]

    def test_grevlex_ring_is_refused(self):
        # eliminate runs in the ring's own order and copies no ideal
        _, I = mk(("x", "y", "z"), ["y - x^2", "z - x^3"])
        with pytest.raises(RingError, match="leading blocks that hold exactly them"):
            eliminate(I, 1)
        assert I.gb_cache == {}

    def test_eliminate_two(self):
        ctx, I = mk(("s", "t", "u"), ["u - s - t"], order=("block", 2))
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
    def test_matches_colon_chain(self, field, verified_bases, monkeypatch):
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
            # the seeded basis is a minimal one, whose reduction is the oracle's
            assert ideal_equal(S, oracle)
            assert groebner_basis(S) == groebner_basis(ideal(I.ctx, list(oracle.gens)))
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
        with step_budget(10), pytest.raises(BudgetExceeded):
            groebner_basis(I)

    def test_budget_generous_enough(self):
        _, I = mk(("x", "y"), ["x^2 - y"])
        with step_budget(1000):
            assert len(groebner_basis(I)) == 1

    def test_calls_in_one_block_share_it(self):
        gens = ["x^2*y - z^2", "y^2*z - x^2", "z^2*x - y^2"]

        def basis():
            # a fresh handle each time, so no basis comes from a cache
            return groebner_basis(mk(("x", "y", "z"), gens)[1])

        with step_budget(DEFAULT_BUDGET):
            basis()
            steps = DEFAULT_BUDGET - gb_mod._budget().left
        assert steps > 1
        with step_budget(steps):
            basis()
        with step_budget(2 * steps):
            basis()
            basis()
        with step_budget(2 * steps - 1), pytest.raises(BudgetExceeded):
            basis()
            basis()

    def test_fresh_default_outside_a_block(self):
        assert gb_mod._budget() is not gb_mod._budget()
        assert gb_mod._budget().limit == DEFAULT_BUDGET
        with step_budget(5):
            assert gb_mod._budget() is gb_mod._budget()
        assert gb_mod._budget().limit == DEFAULT_BUDGET

    @pytest.mark.parametrize("limit", [0, -5])
    def test_limit_below_one_rejected(self, limit):
        with pytest.raises(ValueError):
            with step_budget(limit):
                pass


class TestClosureProperty:
    def test_random_bases_pass_buchberger_criterion(self):
        rng = random.Random(303)
        for _ in range(25):
            ctx = small_ctx(rng)
            gens = [random_poly(ctx, rng, 3, 3) for _ in range(rng.randint(1, 3))]
            I = ideal(ctx, [g for g in gens if g])
            basis = groebner_basis(I)
            p, gens = ctx.field.characteristic, [g.terms for g in I.gens]
            certificate.certify([g.terms for g in basis], ctx.packing, p, gens)
            assert_reduced(basis, ctx)

    def test_verified_bases_are_logged(self, verified_bases):
        ctx, I = mk(("x", "y", "z"), ["x^2 - y*z", "x*y - z^2"])
        leads = sorted(ctx.key(g.lm()) for g in groebner_basis(I))
        assert len(leads) == 3
        assert verified_bases == [("computed", leads), ("reduced", leads)]


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
    return _with_aux_var(ctx)[0] if kind == "aux" else ctx


def grevlex_key(exps):
    # later variables weigh against a monomial: ties broken by the last
    # coordinate in which the exponents differ, smaller exponent wins
    return (sum(exps),) + tuple(-e for e in reversed(exps))


def tuple_key(order, mon):
    """Reference sort key of a monomial, independent of the packing: the
    grevlex key, the exponents for lex, and the grevlex keys of the
    blocks joined together for a block order."""
    if order == "grevlex":
        return grevlex_key(mon)
    if order == "lex":
        return mon
    key, i = (), 0
    for size in order[1]:
        key += grevlex_key(mon[i : i + size])
        i += size
    return key


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
        assert (ctx.key(a), ctx.key(b)) == (pa, pb)
        assert pk.unpack(pa) == a
        assert pa & (EXP_BOUND - 1) == sum(a)
        assert (pa < pb) == (tuple_key(ctx.order, a) < tuple_key(ctx.order, b))
        assert (pa == pb) == (a == b)
        assert pa + pb == pk.pack(monomial_mul(a, b))
        assert pk.divides(pb, pa) == monomial_divides(b, a)
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

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_run_degree_is_the_weighted_degree(self, data):
        # a driven run reads the degree in its grading off the standard
        # packing, also where it passes EXP_BOUND
        ctx = data.draw(packed_rings())
        pk = _packing(ctx.order, ctx.nvars)
        weights = data.draw(st.lists(st.integers(1, 10**7), min_size=ctx.nvars, max_size=ctx.nvars))
        a = data.draw(exponents(ctx))
        assert _degree_in(pk, weights)(pk.pack(a)) == sum(map(mul, weights, a))
        assert _degree_in(pk, None)(pk.pack(a)) == sum(a)

    def test_lcm_past_the_bound_raises(self):
        _, I = mk(("x", "y"), ["x^%d*y - 1" % (EXP_BOUND - 2), "x*y^2 - 1"], field=FP)
        with pytest.raises(RingError, match=str(EXP_BOUND)):
            groebner_basis(I)


def assert_standard_packed(I):
    """Every packed monomial of a handle, generators and cached basis, is
    in the standard packing of its ring's order: the degree field is the
    total degree and the packing is the shared `_packing(order, n)`.  The
    cache holds the ring-order basis alone."""
    pk = I.ctx.packing
    assert pk is _packing(I.ctx.order, I.ctx.nvars)
    assert set(I.gb_cache) <= {I.ctx.order}
    dicts = [g.terms for g in I.gens]
    for basis in I.gb_cache.values():
        dicts += basis
    for t in dicts:
        for m in t:
            assert pk.pack(pk.unpack(m)) == m


class TestOnePacking:
    """`Poly` terms are the engine's seeds, and every basis leaves the
    engine in the standard packing of its order."""

    def test_poly_seeds_are_not_repacked(self, monkeypatch):
        ctx = RingCtx(("x", "y", "z"), FP)
        I = ideal(ctx, [parse_poly("x^2 + y*z", ctx)])
        # more shapes of ring than a bounded cache of packings would keep
        shapes = [RingCtx(tuple("v%d" % i for i in range(n)), FP, order)
                  for n in range(2, 40) for order in ("grevlex", "lex")]
        assert len({(r.order, r.nvars) for r in shapes}) > 64
        packed = []
        pack = _Packing.pack
        monkeypatch.setattr(_Packing, "pack", lambda pk, mon: packed.append(mon) or pack(pk, mon))
        # one generator forms no pair, so no lcm is packed either
        assert [str(g) for g in groebner_basis(I)] == ["x^2 + y*z"]
        assert I.gb_cache == {ctx.order: (I.gens[0].terms,)}
        assert packed == []

    @pytest.mark.parametrize("field", [FP, QQ], ids=["F_32003", "QQ"])
    def test_rees_ideal_moves_no_term(self, monkeypatch, field):
        # the graph ideal's ring order is its t-elimination order, so its
        # driven run takes the generators' own terms as seeds
        runs = record_runs(monkeypatch)
        ctx = RingCtx(("x0", "x1", "x2"), field)
        forms = [parse_poly(t, ctx) for t in ("x0^2", "x0*x1 + x2^2", "x1^2 - x0*x2", "x2^2")]
        rees = rees_ideal(forms)
        groebner_basis(rees)
        assert [max(run[0][0]) for run in runs] == [3]

    def test_bases_leave_the_engine_standard_packed(self, monkeypatch):
        handles = []
        inner = gb_mod._basis

        def spy(I):
            handles.append(I)
            return inner(I)

        monkeypatch.setattr(gb_mod, "_basis", spy)
        for field in (FP, QQ):
            ctx = RingCtx(("x0", "x1", "x2"), field)
            forms = [parse_poly(t, ctx) for t in ("x0^2", "x0*x1 + x2^2", "x1^2 - x0*x2", "x2^2")]
            rees = rees_ideal(forms)
            results = [rees, fiber_cone_ideal(forms, rees=rees)]
            maxi = ideal(ctx, [Poly.var(ctx, i) for i in range(3)])
            # Bayer-Stillman, then Rabinowitsch
            results.append(saturate(ideal(ctx, [f * Poly.var(ctx, 0) for f in forms]), maxi))
            results.append(saturate(ideal(ctx, forms), ideal(ctx, forms[:2])))
            M = PresentationMatrix(ctx, [[Poly.var(ctx, (i + j) % 3) for j in range(2)] for i in range(3)])
            height(fitting_ideal(M, 1))
            results.append(fitting_ideal(M, 1))
            results.append(eliminate(in_order(ideal(ctx, forms), ("block", 1)), 1))
            for I in results:
                groebner_basis(I)
            assert len(handles) > len(results)
            for I in handles + results:
                assert_standard_packed(I)
            # the fiber cone is read off the Rees basis, in no copy of its ring
            names = rees.ctx.var_names
            assert all(I.ctx.order == rees.ctx.order for I in handles if I.ctx.var_names == names)
            # the graph ideal's t-run was driven in other weights
            assert any(I._series and max(I._series[0]) > 1 for I in handles)


def record_runs(monkeypatch):
    """Patch the Buchberger core to log (target Hilbert series as a
    (grading, numerator) pair, steps charged, packed basis) of each run;
    returns the log."""
    runs = []
    inner = gb_mod._buchberger

    def recording(seeds, pk, fld, budget, hilbert=None):
        left = budget.left
        basis = inner(seeds, pk, fld, budget, hilbert)
        runs.append((hilbert, left - budget.left, basis))
        return basis

    monkeypatch.setattr(gb_mod, "_buchberger", recording)
    return runs


# (steps charged, basis size, total terms) of every Buchberger run made by
# rees_ideal and then fiber_cone_ideal: the one run of rees_ideal, since
# the fiber cone basis is the x-free part of the Rees basis.  A run
# returns a minimal basis whose tails are not interreduced: an S-pair
# remainder is top-reduced, its tail left as the S-polynomial and the
# reduction steps that fixed its lead made it.  So term counts are of
# that basis, steps include no tails pass, and the basis size, the
# number of leads, is the same as with fully reduced remainders.  Steps
# count reductions, reduced S-pairs, the pairs and basis rows each
# Gebauer-Moeller update examines, and the row operations and rows
# scanned of the Gauss-Jordan block that each degree of homogeneous seeds
# enters as.  The run, the t-elimination of the graph ideal, drops the
# S-pairs that its a priori weighted Hilbert series rules out.  A change
# here is a change of algorithm, not of speed.  The de Jonquieres family
# is specialized at a nonzero parameter value drawn from its seed.
GOLDEN_STEPS = {
    "hb22": (FamilySpec("hilbert_burch", r=2, mu=(2, 2)), [(188, 13, 377)]),
    "hb23": (FamilySpec("hilbert_burch", r=2, mu=(2, 3)), [(280, 16, 729)]),
    "pfaffian5": (FamilySpec("pfaffian", r=4, D=1), [(1124, 22, 806)]),
    "dejonquieres2": (FamilySpec("dejonquieres", m=2), [(87, 10, 62)]),
    "hb12-Q": (FamilySpec("hilbert_burch", r=2, mu=(1, 2), prime=0), [(103, 9, 148)]),
}

# The same triples for the Fitting ideal runs of check_Gm(matrix, m), one
# per ideal whose height takes a basis.  The Pfaffian matrix is
# alternating, so its heights are those of the ideals of 4- and
# 2-sub-Pfaffians, one per pair of minor sizes.  Its entries are linear
# forms that span S_1, so only the 4-Pfaffians take a run: their 5
# quadrics cannot fill the 15 pivots of S_2, so they stream nothing and
# seed the run themselves.  A Hilbert-Burch matrix takes none: two
# coprime maximal minors give Fitt_1 height 2, and its entries, raised to
# the top column degree, span; the minor oracle below still runs on them.
GOLDEN_FITTING_STEPS = {
    "pfaffian5": (FamilySpec("pfaffian", r=4, D=1), 5, [(177, 6, 72)]),
    "hb12": (FamilySpec("hilbert_burch", r=2, mu=(1, 2)), 3, []),
    "hb12-Q": (FamilySpec("hilbert_burch", r=2, mu=(1, 2), prime=0), 3, []),
}


class TestGoldenSteps:
    @pytest.mark.parametrize("name", list(GOLDEN_STEPS))
    def test_step_counts_pinned(self, name, monkeypatch):
        spec, expected = GOLDEN_STEPS[name]
        fam = make_family(spec)
        if fam.parametric:
            fam = specialized_family(fam, (random.Random(spec.seed).randrange(1, spec.prime),))
        forms = list(fam.forms)
        runs = record_runs(monkeypatch)
        fiber_cone_ideal(forms, rees=rees_ideal(forms))
        got = [(steps, len(b), sum(len(t) for t in b)) for _, steps, b in runs]
        assert got == expected

    @pytest.mark.parametrize("name", list(GOLDEN_FITTING_STEPS))
    def test_fitting_step_counts_pinned(self, name, monkeypatch):
        spec, m, expected = GOLDEN_FITTING_STEPS[name]
        matrix = make_family(spec).matrix
        runs = record_runs(monkeypatch)
        check_Gm(matrix, m)
        got = [(steps, len(b), sum(len(t) for t in b)) for _, steps, b in runs]
        assert got == expected

    @pytest.mark.parametrize("prime", [32003, 0], ids=["hb12", "hb12-Q"])
    def test_hilbert_burch_minor_oracle_steps_pinned(self, prime, monkeypatch):
        # the runs the heights of its Fitting ideals take on the
        # Hilbert-Burch matrix: its seeds are minors, most of them linearly
        # dependent, so these runs pin the seed block above all
        matrix = make_family(FamilySpec("hilbert_burch", r=2, mu=(1, 2), prime=prime)).matrix
        runs = record_runs(monkeypatch)
        for i in (1, 2):
            height(fitting_ideal(matrix, i))
        got = [(steps, len(b), sum(len(t) for t in b)) for _, steps, b in runs]
        assert got == [(35, 4, 34), (27, 3, 3)]

    def test_pfaffian_minor_oracle_steps_pinned(self, monkeypatch):
        # the runs the minor route made on the Pfaffian matrix, whose 4-,
        # 3- and 2-minors still pin the seed block through fitting_ideal
        matrix = make_family(FamilySpec("pfaffian", r=4, D=1)).matrix
        runs = record_runs(monkeypatch)
        for i in (1, 2, 3):
            height(fitting_ideal(matrix, i))
        got = [(steps, len(b), sum(len(t) for t in b)) for _, steps, b in runs]
        assert got == [(1373, 15, 840), (2967, 20, 270), (1516, 15, 15)]


# orders of a copy of a ring whose homogeneous ideal has a cached grevlex
# basis; the first is the one `eliminate(I, 2)` runs in
HILBERT_ORDERS = {
    "2-block": lambda n: ("blocks", (2, n - 2)),
    "3-block": lambda n: ("blocks", (1, 1, n - 2)),
    "lex": lambda n: "lex",
}


class TestOrderNames:
    def test_block_and_blocks_share_a_cached_basis(self, monkeypatch):
        names = ("x", "y", "z", "w")
        ctx, I = mk(names, ["x*y - z^2", "y*w - x^2", "z - w^3"], field=FP, order=("block", 2))
        assert ctx == RingCtx(names, FP, ("blocks", (2, 2)))
        runs = count_buchberger_runs(monkeypatch)
        groebner_basis(I)
        # ("blocks", (2, 2)) is the ring's order, so eliminate reads the
        # cached basis
        eliminate(I, 2)
        assert len(runs) == 1 and list(I.gb_cache) == [("blocks", (2, 2))]

    def test_lex_ring_eliminates_a_prefix_in_its_own_order(self, monkeypatch):
        # the cached lex basis eliminates any prefix of the variables, and
        # eliminate lands in a lex subring
        names = ("x", "y", "z", "w")
        ctx, I = mk(names, ["x*y - z^2", "y*w - x^2", "z - w^3"], field=FP, order="lex")
        runs = count_buchberger_runs(monkeypatch)
        J = eliminate(I, 2)
        assert len(runs) == 1
        assert J.ctx == RingCtx(("z", "w"), FP, "lex")
        assert list(I.gb_cache) == ["lex"]
        oracle = eliminate(in_order(I, ("block", 2)), 2)
        assert oracle.ctx.order == "grevlex"
        assert ideal_equal(J, in_order(oracle, "lex"))

    @pytest.mark.parametrize(
        "sizes, k, refused",
        [((1, 2, 1), 1, False), ((1, 2, 1), 3, False), ((1, 2, 1), 2, True), ((2, 2), 1, True)],
    )
    def test_block_prefixes_are_eliminated_in_the_ring_order(self, sizes, k, refused):
        # a ring whose leading blocks do not hold exactly the first k
        # variables is refused: eliminate copies no ideal into another order
        names = ("x", "y", "z", "w")
        ctx, I = mk(names, ["x*y - z^2", "y*w - x^2", "z - w^3"], field=FP, order=("blocks", sizes))
        if refused:
            with pytest.raises(RingError, match="leading blocks"):
                eliminate(I, k)
            assert I.gb_cache == {}
            return
        J = eliminate(I, k)
        oracle = eliminate(in_order(I, ("block", k)), k)
        assert ideal_equal(J, in_order(oracle, J.ctx.order))

    @pytest.mark.parametrize("op", [intersect, saturate])
    def test_lex_results_keep_their_basis(self, op, monkeypatch):
        # t, then the lex ring's own blocks, is lex on one variable more:
        # eliminating t lands in the lex ring with its basis cached
        names = ("x", "y", "z")
        ctx, I = mk(names, ["x*y - z^2", "y^2 - x*z", "x^3 - y*z^2"], field=FP, order="lex")
        _, J = mk(names, ["x - z", "y*z"], field=FP, order="lex")
        runs = count_buchberger_runs(monkeypatch)
        K = op(I, J)
        made = len(runs)
        assert K.ctx == ctx
        groebner_basis(K)
        assert len(runs) == made
        plain = op(in_order(I, "grevlex"), in_order(J, "grevlex"))
        assert ideal_equal(K, in_order(plain, "lex"))


class TestHilbertDriven:
    """A basis in a copy of a grevlex ring under another order, driven by
    the Hilbert series of the grevlex basis's leads stated on the copy,
    against the same basis computed from scratch; and the block run of
    `eliminate` in such a copy."""

    @pytest.mark.parametrize("order", list(HILBERT_ORDERS))
    @pytest.mark.parametrize(
        "field", [FP, FieldSpec(7), QQ], ids=["F_32003", "F_7", "QQ"]
    )
    def test_same_reduced_bases(self, field, order, verified_bases, monkeypatch):
        runs = record_runs(monkeypatch)
        rng = random.Random(1996 + field.characteristic + len(order))
        plain_steps = driven_steps = 0
        for _ in range(12):
            n = rng.randint(3, 4)
            ctx = RingCtx(tuple("x%d" % i for i in range(n)), field)
            gens = [
                nonzero_random_form(ctx, rng, rng.randint(1, 3), density=0.4)
                for _ in range(rng.randint(2, 3))
            ]
            o = HILBERT_ORDERS[order](n)
            del runs[:]
            plain = groebner_basis(in_order(ideal(ctx, gens), o))
            I = ideal(ctx, gens)
            ones = (1,) * n
            series = (ones, weighted_numerator([g.lm() for g in groebner_basis(I)], ones))
            seed_hilbert_series(I, *series)
            driven = groebner_basis(in_order(I, o, series=True))
            assert driven == plain
            (none, plain_run, _), _, (target, driven_run, _) = runs
            assert none is None
            assert target == series
            plain_steps += plain_run
            driven_steps += driven_run
        assert driven_steps < plain_steps

    @pytest.mark.parametrize(
        "field", [FP, FieldSpec(7), QQ], ids=["F_32003", "F_7", "QQ"]
    )
    def test_eliminate_runs_driven(self, field, verified_bases, monkeypatch):
        runs = record_runs(monkeypatch)
        rng = random.Random(1997 + field.characteristic)
        p = field.characteristic
        plain_steps = driven_steps = 0
        for _ in range(12):
            n = rng.randint(3, 4)
            k = rng.randint(1, n - 1)
            ctx = RingCtx(tuple("x%d" % i for i in range(n)), field)
            gens = [
                nonzero_random_form(ctx, rng, rng.randint(1, 3), density=0.4)
                for _ in range(rng.randint(2, 3))
            ]
            del runs[:]
            # no series stated: the block run is undriven
            plain_elim = eliminate(in_order(ideal(ctx, gens), ("block", k)), k)
            I = ideal(ctx, gens)
            ones = (1,) * n
            series = (ones, weighted_numerator([g.lm() for g in groebner_basis(I)], ones))
            seed_hilbert_series(I, *series)
            block = in_order(I, ("block", k), series=True)
            driven_elim = eliminate(block, k)
            (none, plain_run, plain), _, (target, driven_run, driven) = runs
            assert none is None
            assert target == series
            # the same reduced block basis, and so the same elimination ideal
            guard = block.ctx.packing.guard
            reduced = [gb_mod._reduce_tails(b, guard, p, gb_mod._budget()) for b in (plain, driven)]
            assert reduced[0] == reduced[1]
            assert groebner_basis(driven_elim) == groebner_basis(plain_elim)
            # the handle keeps its ring-order basis alone
            assert list(I.gb_cache) == [ctx.order]
            plain_steps += plain_run
            driven_steps += driven_run
        assert driven_steps < plain_steps

    def test_routing(self, monkeypatch):
        runs = record_runs(monkeypatch)
        # not homogeneous, then homogeneous with no series stated: the
        # block runs are undriven, and a cached block basis is reused
        _, I = mk(("x", "y", "z"), ["x^2 - y", "x*y - z^2"], order=("block", 1))
        groebner_basis(I)
        eliminate(I, 1)
        _, J = mk(("x", "y", "z"), ["x^2 - y*z", "x*y - z^2"], order=("block", 2))
        eliminate(J, 2)
        assert [run[0] for run in runs] == [None, None]
        # a series stated on the copy eliminate runs in drives its run,
        # and the grevlex handle it was copied from computes nothing
        _, K = mk(("x", "y"), ["x^2 - y"], field=FP)
        seed_hilbert_series(K, (1, 2), {0: 1, 2: -1})
        eliminate(in_order(K, ("block", 1), series=True), 1)
        assert runs[-1][0] == ((1, 2), {0: 1, 2: -1})
        assert K.gb_cache == {}


def random_graph_ideal(rng, field):
    """The graph ideal of 2-5 random forms of degree 1-3 in 2-4
    variables, with three forms at most in degree 3 (four cubics in
    three variables take seconds); returns it with the form degree."""
    n = rng.randint(2, 4)
    d = rng.randint(1, 3)
    k = rng.randint(2, 5 if d < 3 else 3)
    ctx = RingCtx(tuple("x%d" % i for i in range(n)), field)
    coeff = rand_rational if field.characteristic == 0 else rand_coeff
    forms = [nonzero_random_form(ctx, rng, d, density=0.4, coeff=coeff) for _ in range(k)]
    return graph_ideal(forms), d


class TestGraphSeries:
    """The t-elimination of the graph ideal (y_i - t*g_i), driven by the
    Hilbert series it has in the grading t, x -> 1, y -> d+1, against the
    same basis computed without it."""

    @pytest.mark.parametrize(
        "field", [FP, FieldSpec(7), QQ], ids=["F_32003", "F_7", "QQ"]
    )
    def test_same_reduced_bases(self, field, verified_bases, monkeypatch):
        runs = record_runs(monkeypatch)
        rng = random.Random(1301 + field.characteristic)
        plain_steps = driven_steps = 0
        for _ in range(12):
            graph, d = random_graph_ideal(rng, field)
            n = graph.ctx.nvars
            k = len(graph.gens)
            del runs[:]
            plain = groebner_basis(IdealHandle(graph.ctx, graph.gens))
            driven = groebner_basis(graph)
            assert driven == plain
            (none, plain_run, _), (target, driven_run, _) = runs
            assert none is None
            assert target[0] == (1,) * (n - k) + (d + 1,) * k
            plain_steps += plain_run
            driven_steps += driven_run
        assert driven_steps < plain_steps

    @pytest.mark.parametrize(
        "field", [FP, FieldSpec(7), QQ], ids=["F_32003", "F_7", "QQ"]
    )
    def test_series_matches_the_computed_leads(self, field):
        rng = random.Random(1302 + field.characteristic)
        for _ in range(12):
            graph, _ = random_graph_ideal(rng, field)
            grading, numer = graph._series
            plain = groebner_basis(IdealHandle(graph.ctx, graph.gens))
            assert weighted_numerator([g.lm() for g in plain], grading) == numer

    def test_parametric_forms_state_no_series(self):
        forms = list(make_family(FamilySpec("dejonquieres", m=2)).forms)
        assert graph_ideal(forms)._series is None

    def test_inhomogeneous_seed_with_a_target_raises(self):
        _, I = mk(("x", "y"), ["x^2 - y"], field=FP)
        seed_hilbert_series(I, (1, 1), {0: 1, 2: -1})
        with pytest.raises(AssertionError, match="homogeneous"):
            groebner_basis(I)
        # with y of weight 2 the same seed is homogeneous
        _, J = mk(("x", "y"), ["x^2 - y"], field=FP)
        seed_hilbert_series(J, (1, 2), {0: 1, 2: -1})
        key = J.ctx.key
        assert [g.terms for g in groebner_basis(J)] == [{key((2, 0)): 1, key((0, 1)): 32002}]

    @pytest.mark.parametrize("grading", [(1, 0), (1, 2, 3), (1,), (1, -1)])
    def test_grading_is_one_positive_weight_per_variable(self, grading):
        _, I = mk(("x", "y"), ["x^2 - y"], field=FP)
        with pytest.raises(RingError, match="weight per variable"):
            seed_hilbert_series(I, grading, {0: 1, 2: -1})
        assert I._series is None


def rational_ideal(rng, order=lambda n: "grevlex"):
    """A random homogeneous ideal of Q[x0..x2] or Q[x0, x1] whose
    coefficients are rationals of mixed sign with denominators up to 10^6, so that the
    integer rows inside the engine have leads other than 1."""
    n = rng.randint(2, 3)
    ctx = RingCtx(tuple("x%d" % i for i in range(n)), QQ, order=order(n))
    gens = [
        nonzero_random_form(ctx, rng, rng.randint(1, 3), density=0.5, coeff=rand_rational)
        for _ in range(rng.randint(2, 3))
    ]
    return ctx, gens


class TestRationalExactness:
    """Over Q the engine reduces with integer coefficients, scaling by
    lead coefficients instead of dividing; every answer must still be
    the exact one over Q."""

    @pytest.mark.parametrize("order", ["grevlex", "lex", "block"])
    def test_scaled_generators_give_the_same_basis(self, order, verified_bases):
        rng = random.Random(2003)
        orders = {"block": lambda n: ("blocks", (1, n - 1))}
        for _ in range(15):
            ctx, gens = rational_ideal(rng, orders.get(order, lambda n: order))
            basis = groebner_basis(ideal(ctx, gens))
            scaled = [g * Poly.constant(ctx, rand_rational(ctx, rng, True)) for g in gens]
            assert groebner_basis(ideal(ctx, scaled)) == basis
            assert_reduced(basis, ctx)

    def test_normal_form_is_exact(self, verified_bases):
        rng = random.Random(2011)
        for _ in range(15):
            ctx, gens = rational_ideal(rng)
            I = ideal(ctx, gens)
            leads = [g.lm() for g in groebner_basis(I)]
            f, g = (random_poly(ctx, rng, 3, 4, coeff=rand_rational) for _ in range(2))
            a, b = (Poly.constant(ctx, rand_rational(ctx, rng, True)) for _ in range(2))
            nf, ng = normal_form(f, I), normal_form(g, I)
            assert normal_form(a * f + b * g, I) == a * nf + b * ng
            assert ideal_contains(I, f - nf)
            assert normal_form(nf, I) == nf
            mons = map(ctx.packing.unpack, nf.terms)
            assert not any(monomial_divides(u, m) for m in mons for u in leads)

    def test_normal_form_divides_the_scale_out(self):
        # the basis is x - (3/2)*y, an integer row 2*x - 3*y inside the
        # engine: reducing x^2 scales the remainder by 2 twice
        ctx, I = mk(("x", "y"), ["-4*x + 6*y"])
        assert normal_form(parse_poly("x", ctx), I) == parse_poly("3/2*y", ctx)
        assert normal_form(parse_poly("x^2 + 1/3", ctx), I) == parse_poly("9/4*y^2 + 1/3", ctx)

    def test_sat_exponent_matches_colon_chain(self, verified_bases):
        rng = random.Random(2017)
        exponents = set()
        for _ in range(12):
            I, J = random_saturation_case(rng, QQ, coeff=rand_rational)
            S = saturate(I, J)
            oracle, k = colon_chain_saturate(I, J)
            assert ideal_equal(S, oracle)
            assert S.sat_exponent == k
            exponents.add(k)
        assert len(exponents) >= 2

    @pytest.mark.parametrize("p", [0, 32003])
    def test_spoly_uses_the_least_multipliers(self, p):
        pk = _packing("grevlex", 2)
        x, y = pk.pack((1, 0)), pk.pack((0, 1))
        # leads 6 and 4 over Q: 2*(6x + y) - 3*(4x - y) = 5y
        lead_cancelled = {y: 5} if p == 0 else {y: 2}
        ti, tj = ({x: 6, y: 1}, {x: 4, y: -1}) if p == 0 else ({x: 1, y: 1}, {x: 1, y: p - 1})
        assert _spoly(ti, 0, tj, 0, p) == lead_cancelled


def eager_remainder(f, basis):
    """The remainder of f modulo a monic basis by division on Polys,
    every coefficient reduced at once: a reference for `_reduce`."""
    ctx = f.ctx
    rem = Poly.zero(ctx)
    while f:
        m, c = f.lt()
        for g in basis:
            q = monomial_div(m, g.lm())
            if q is not None:
                f = f - g.mul_term(q, c)
                break
        else:
            rem = rem + Poly.from_mon(ctx, m, c)
            f = f - Poly.from_mon(ctx, m, c)
    return rem


@st.composite
def f7_ideals(draw):
    """A random ideal of F_7[x0..x2] and a polynomial to reduce modulo it."""
    ctx = RingCtx(("x0", "x1", "x2"), FieldSpec(7))
    mon = st.lists(st.integers(0, 2), min_size=3, max_size=3).map(tuple)
    poly = st.dictionaries(mon, st.integers(1, 6), min_size=1, max_size=5).map(
        lambda t: Poly(ctx, t)
    )
    gens = draw(st.lists(poly, min_size=1, max_size=3))
    return ideal(ctx, gens), draw(poly)


class TestDelayedModP:
    """Over F_p the reducer keeps unreduced integer sums and takes a
    coefficient mod p only when its monomial comes off the heap."""

    def test_sums_that_vanish_mod_p(self, monkeypatch):
        ctx, I = mk(("x", "y", "z"), ["x + 4*y", "y^2 + 3*z^2"], field=FieldSpec(7))
        text = "3*x^3 + 3*x*y*z + 5*y^2*z + 2*x*z^2 + 5*y*z^2 + 5*z^3 + 5*x*z + 6*y*z"
        f = parse_poly(text, ctx)
        basis = groebner_basis(I)
        sums = []
        reduce = gb_mod._reduce

        class Recorded(dict):
            def __setitem__(self, m, c):
                sums.append(c)
                super().__setitem__(m, c)

        monkeypatch.setattr(
            gb_mod, "_reduce", lambda work, *a, **k: reduce(Recorded(work), *a, **k)
        )
        with step_budget(100):
            nf = normal_form(f, I)
            # the count an eager mod p gives: delaying it changes no step
            assert 100 - gb_mod._ACTIVE_BUDGET.get().left == 7
        # three stored sums are nonzero multiples of 7, which vanish and
        # are skipped when their monomials come off the heap
        assert [c for c in sums if c % 7 == 0] == [-7, -7, -14]
        assert all(0 < c < 7 for c in nf.terms.values())
        assert nf == parse_poly("6*y*z^2 + 5*z^3", ctx) == eager_remainder(f, basis)
        sympy = pytest.importorskip("sympy")
        x, y, z = sympy.symbols("x y z")
        G = sympy.groebner([x + 4 * y, y**2 + 3 * z**2], x, y, z, order="grevlex", modulus=7)
        theirs = sympy.Poly(G.reduce(sympy.sympify(text.replace("^", "**")))[1], x, y, z)
        assert nf == Poly(ctx, {m: int(c) for m, c in theirs.terms()})

    @settings(max_examples=60, deadline=None)
    @given(f7_ideals())
    def test_remainders_match_eager_reduction(self, case):
        I, f = case
        with pytest.MonkeyPatch.context() as mp:
            certify_bases(mp)
            nf = normal_form(f, I)
            assert nf == eager_remainder(f, groebner_basis(I))
        assert all(0 < c < 7 for c in nf.terms.values())


class TestEngineCoefficientCounts:
    """Deterministic work counts of the Rees and fiber cone bases of
    Hilbert-Burch (2,3) over Q: the engine does its arithmetic on ints,
    so no Fraction operation runs inside `_basis`, which computes every
    packed basis."""

    def test_no_fraction_arithmetic(self, monkeypatch):
        forms = list(make_family(FamilySpec("hilbert_burch", r=2, mu=(2, 3), prime=0)).forms)
        ops = [0]
        inside = [False]
        for name in ("__add__", "__sub__", "__mul__", "__truediv__"):
            inner = getattr(Fraction, name)

            def counted(a, b, inner=inner):
                ops[0] += inside[0]
                return inner(a, b)

            monkeypatch.setattr(Fraction, name, counted)
        bases = []
        basis = gb_mod._basis

        def tracked(*args, **kwargs):
            inside[0] = True
            try:
                bases.append(basis(*args, **kwargs))
            finally:
                inside[0] = False
            return bases[-1]

        monkeypatch.setattr(gb_mod, "_basis", tracked)
        fiber_cone_ideal(forms, rees=rees_ideal(forms))
        # the t-run alone: the fiber cone is read off the Rees basis
        assert [len(b) for b in bases] == [16]
        assert ops[0] == 0
        # the counters see Fraction arithmetic inside _basis
        inside[0] = True
        Fraction(1, 2) + Fraction(1, 3) * Fraction(2)
        assert ops[0] == 2

    def test_integral_input_runs_no_fraction_arithmetic(self, monkeypatch):
        """Integral coefficients over Q are ints from parsing on, so no
        layer runs Fraction arithmetic on Hilbert-Burch (1,2).  With
        every coefficient a Fraction the same calls ran 59, 90, 6770, 52
        and 234 Fraction operations."""
        fam = make_family(FamilySpec("hilbert_burch", r=2, mu=(1, 2), prime=0))
        map_text = serialize_map(rational_map(list(fam.forms)))
        matrix_text = serialize_matrix(fam.matrix)
        ops = [0]
        for name in (
            "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
            "__truediv__", "__rtruediv__", "__floordiv__", "__mod__", "__neg__", "__pow__",
        ):
            inner = getattr(Fraction, name)

            def counted(*args, inner=inner):
                ops[0] += 1
                return inner(*args)

            monkeypatch.setattr(Fraction, name, counted)

        def count(call):
            ops[0] = 0
            out = call()
            return ops[0], out

        counts = {}
        counts["parse_map_file"], spec = count(lambda: parse_map_file(map_text))
        forms = list(spec.forms)
        counts["graph_ideal"], _ = count(lambda: graph_ideal(forms))
        counts["sfib_hilbert_function"], value = count(lambda: sfib_hilbert_function(spec, 3))
        counts["parse_matrix_file"], M = count(lambda: parse_matrix_file(matrix_text))
        counts["check_Gm"], cert = count(lambda: check_Gm(M, 3))
        assert counts == dict.fromkeys(counts, 0)
        assert value > 0 and cert.verdict
        # the counters see Fraction arithmetic
        Fraction(1, 2) - Fraction(1, 3)
        assert ops[0] == 1


class TestMonomialSeeds:
    """Monomial generators are a Groebner basis once minimalized; the
    engine returns them without forming a pair or reducing."""

    def test_power_of_squares(self, monkeypatch):
        ctx = RingCtx(("x0", "x1", "x2"), FP)
        mons = [(2 * a, 2 * b, 80 - 2 * a - 2 * b) for a in range(41) for b in range(41 - a)]
        # redundant generators: a repeat and a proper multiple
        gens = [Poly.from_mon(ctx, m) for m in mons + [mons[0], (81, 1, 0)]]
        calls = {"spoly": 0, "reduce": 0}
        spoly, reduce = gb_mod._spoly, gb_mod._reduce

        def counted_spoly(*args, **kwargs):
            calls["spoly"] += 1
            return spoly(*args, **kwargs)

        def counted_reduce(*args, **kwargs):
            calls["reduce"] += 1
            return reduce(*args, **kwargs)

        monkeypatch.setattr(gb_mod, "_spoly", counted_spoly)
        monkeypatch.setattr(gb_mod, "_reduce", counted_reduce)
        basis = groebner_basis(ideal(ctx, gens))
        assert len(basis) == 861
        assert calls == {"spoly": 0, "reduce": 0}
        assert sorted(g.lm() for g in basis) == sorted(mons)
        assert [ctx.key(g.lm()) for g in basis] == sorted(ctx.key(g.lm()) for g in basis)

    @pytest.mark.parametrize("field", [FP, QQ], ids=["F_32003", "QQ"])
    def test_minimal_generators(self, field):
        rng = random.Random(40 + field.characteristic)
        for _ in range(20):
            ctx = RingCtx(("x", "y", "z"), field)
            mons = [tuple(rng.randint(0, 3) for _ in range(3)) for _ in range(rng.randint(1, 8))]
            coeffs = [rand_coeff(ctx, rng, True) for _ in mons]
            basis = groebner_basis(ideal(ctx, [Poly(ctx, {m: c}) for m, c in zip(mons, coeffs)]))
            minimal = {
                m for m in mons
                if not any(monomial_divides(u, m) and u != m for u in mons)
            }
            assert [g.terms for g in basis] == [
                {ctx.key(m): field.one} for m in sorted(minimal, key=ctx.key)
            ]

    @pytest.mark.parametrize(
        "odd, steps", [(False, 2145), (True, 4356)], ids=["minimal", "with-multiples"]
    )
    def test_step_count_pinned(self, odd, steps):
        # the generators of (x0^2, x1^2, x2^2)^10, and with odd, one proper
        # multiple of each; the count was recorded before the divisibility
        # scan was shared with the Hilbert and saturation code
        ctx = RingCtx(("x0", "x1", "x2"), FP)
        mons = [(2 * a, 2 * b, 20 - 2 * a - 2 * b) for a in range(11) for b in range(11 - a)]
        if odd:
            mons += [(a + 1, b, c + 1) for a, b, c in mons]
        gens = [Poly.from_mon(ctx, m) for m in mons]
        with step_budget(steps):
            assert len(groebner_basis(ideal(ctx, gens))) == 66
        with pytest.raises(BudgetExceeded):
            with step_budget(steps - 1):
                groebner_basis(ideal(ctx, gens))

    def test_budget_counts_divisibility_tests(self):
        ctx = RingCtx(("x", "y"), FP)
        gens = [Poly.from_mon(ctx, (i, 6 - i)) for i in range(7)]
        with step_budget(21):
            assert len(groebner_basis(ideal(ctx, gens))) == 7
        with pytest.raises(BudgetExceeded):
            with step_budget(20):
                groebner_basis(ideal(ctx, gens))


@st.composite
def homogeneous_ideals(draw):
    """2-3 random forms of degree 1-3 in 3-4 variables over F_7, F_32003
    or Q, each with 1-4 terms."""
    field = draw(st.sampled_from([FieldSpec(7), FP, QQ]))
    n = draw(st.integers(3, 4))
    ctx = RingCtx(tuple("x%d" % i for i in range(n)), field)
    p = field.characteristic
    coeff = st.integers(1, p - 1) if p else st.integers(-9, 9).filter(bool)
    gens = []
    for _ in range(draw(st.integers(2, 3))):
        mons = list(monomials_of_degree(n, draw(st.integers(1, 3))))
        chosen = draw(st.lists(st.sampled_from(mons), min_size=1, max_size=4, unique=True))
        gens.append(Poly(ctx, {m: draw(coeff) for m in chosen}))
    return ideal(ctx, gens)


@st.composite
def planted_seeds(draw):
    """(ring, forms, the same forms with planted linear combinations of
    them mixed in): 1-4 forms of one degree 1-3 in 2-4 variables over F_7,
    F_32003 or Q, each with 1-5 terms; a combination may be a multiple or
    a repeat of one form."""
    field = draw(st.sampled_from([FieldSpec(7), FP, QQ]))
    n = draw(st.integers(2, 4))
    ctx = RingCtx(tuple("x%d" % i for i in range(n)), field)
    p = field.characteristic
    coeff = st.integers(1, p - 1) if p else st.integers(-9, 9).filter(bool)
    mons = list(monomials_of_degree(n, draw(st.integers(1, 3))))
    gens = []
    for _ in range(draw(st.integers(1, 4))):
        chosen = draw(st.lists(st.sampled_from(mons), min_size=1, max_size=5, unique=True))
        gens.append(Poly(ctx, {m: draw(coeff) for m in chosen}))
    mixed = list(gens)
    for _ in range(draw(st.integers(1, 4))):
        picked = draw(st.lists(st.sampled_from(gens), min_size=1, max_size=len(gens)))
        combo = Poly.zero(ctx)
        for g in picked:
            combo = combo + Poly.constant(ctx, draw(coeff)) * g
        mixed.insert(draw(st.integers(0, len(mixed))), combo)
    return ctx, gens, mixed


class TestSeedBlock:
    """Homogeneous seeds enter a run one degree at a time as a
    Gauss-Jordan block; seeds that depend on the others add nothing."""

    @settings(max_examples=80, deadline=None)
    @given(planted_seeds())
    def test_planted_combinations_change_no_basis(self, case):
        ctx, gens, mixed = case
        with pytest.MonkeyPatch.context() as mp:
            certify_bases(mp)
            assert groebner_basis(ideal(ctx, mixed)) == groebner_basis(ideal(ctx, gens))


def by_exponents(g):
    """A polynomial's terms keyed by exponent tuples."""
    return {g.ctx.packing.unpack(m): c for m, c in g.terms.items()}


def record_tails(monkeypatch):
    """Patch `_reduce_tails` to log the number of rows of each call;
    returns the log."""
    rows = []
    inner = gb_mod._reduce_tails

    def recording(basis, *args):
        rows.append(len(basis))
        return inner(basis, *args)

    monkeypatch.setattr(gb_mod, "_reduce_tails", recording)
    return rows


class TestLazyTails:
    """A cached basis is minimal, and `groebner_basis` is the one place
    tails are reduced: readers of leads send no row to `_reduce_tails`,
    and every reduced basis is the one of its ideal."""

    @settings(max_examples=40, deadline=None)
    @given(homogeneous_ideals(), st.data())
    def test_eliminate_keeps_the_block_free_rows(self, I, data):
        ctx = I.ctx
        k = data.draw(st.integers(1, ctx.nvars - 1))
        with pytest.MonkeyPatch.context() as mp:
            certify_bases(mp)
            elim = eliminate(in_order(I, ("block", k)), k)
            # the generators are the kept rows of the minimal block basis
            kept = elim.gb_cache[elim.ctx.order]
            assert [g.lm() for g in elim.gens] == [elim.ctx.packing.unpack(max(t)) for t in kept]
            got = [by_exponents(g) for g in groebner_basis(elim)]
            full = groebner_basis(in_order(I, ("block", k)))
        free = [by_exponents(g) for g in full]
        free = [t for t in free if not any(any(m[:k]) for m in t)]
        assert got == [{m[k:]: c for m, c in t.items()} for t in free]

    @settings(max_examples=40, deadline=None)
    @given(homogeneous_ideals())
    def test_reduced_basis_after_lead_readers(self, I):
        ctx = I.ctx
        with pytest.MonkeyPatch.context() as mp:
            certify_bases(mp)
            summary = dim_degree(I)
            lex_I = in_order(I, "lex")
            leads = lead_ideal(lex_I)
            assert groebner_basis(I) == groebner_basis(ideal(ctx, I.gens))
            lex = groebner_basis(in_order(I, "lex"))
            assert groebner_basis(lex_I) == lex
        assert leads == sorted((g.lm() for g in lex), key=lambda m: (sum(m), m))
        assert dim_degree(ideal(ctx, I.gens)) == summary

    @pytest.mark.parametrize("field", [FieldSpec(7), FP, QQ], ids=["F_7", "F_32003", "QQ"])
    def test_results_reduce_to_the_basis_of_their_generators(self, field, verified_bases):
        texts = ["x0*x2 + x1*x2 + x2^2", "2*x0^2 + x1^2 + x1*x2", "x0^2 - x0*x1 - x0*x2"]
        ctx, J = mk(("x0", "x1", "x2"), texts, field=field)
        x0, x1 = Poly.var(ctx, 0), Poly.var(ctx, 1)
        m = ideal(ctx, [Poly.var(ctx, j) for j in range(3)])
        # an elimination, a Bayer-Stillman strip and a Rabinowitsch
        # saturation, each caching a minimal basis whose tails reduce
        results = [
            eliminate(in_order(J, ("block", 1)), 1),
            saturate(ideal(ctx, [x0 * g for g in J.gens]), m),
            saturate(ideal(ctx, [x1 * g for g in J.gens]), ideal(ctx, [x1])),
        ]
        for R in results:
            assert not certificate.is_reduced(R.gb_cache[R.ctx.order], R.ctx.packing.guard)
        rng = random.Random(5003 + field.characteristic)
        for _ in range(4):
            I, K = random_saturation_case(rng, field)
            results += [eliminate(in_order(I, ("block", 1)), 1), saturate(I, K)]
        for R in results:
            assert groebner_basis(R) == groebner_basis(ideal(R.ctx, R.gens))

    def test_lead_readers_reduce_no_tails(self, monkeypatch, capsys):
        pf = make_family(FamilySpec("pfaffian", r=4, D=1))
        hb = make_family(FamilySpec("hilbert_burch", r=2, mu=(2, 2)))
        # a map's gr dimension needs no basis, an uncertified family
        # point's reads one
        dj = make_family(FamilySpec("dejonquieres", m=2))
        dj.generic_rees
        rows = record_tails(monkeypatch)
        # seeds of two degrees: the cubic's row enters before the cubic
        # S-pair rows, and the minimal grevlex basis keeps tails to reduce
        I = ideal(pf.ctx, list(pf.forms) + [parse_poly("x1^3 - x2^3", pf.ctx)])
        dim_degree(I)
        check_Gm(pf.matrix, 5)
        check_Gm(hb.matrix, 3)
        assert dj.gr_dimension((0,)) == 4
        base_locus(rational_map(list(hb.forms)))
        # a map whose Rees rows keep tails that reduce
        quad5 = "x0^2, x1^2, x2^2, x0*x1 - x1*x2, x0*x2 + x1*x2"
        for command in (["degree"], ["jmult"], ["sfib-hf", "--points", "1,2"]):
            assert main(command + ["--map", quad5, "--prime", "32003"]) == 0
        assert main(["gr-dim", "--family", "dejonquieres", "--points", "0,2"]) == 0
        capsys.readouterr()
        assert rows == []
        assert not certificate.is_reduced(I.gb_cache[I.ctx.order], I.ctx.packing.guard)

    def test_eliminate_reduces_no_tails(self, monkeypatch):
        fam = make_family(FamilySpec("pfaffian", r=4, D=1))
        graph = graph_ideal(list(fam.forms))
        rows = record_tails(monkeypatch)
        rees = eliminate(graph, 1)
        fiber_cone_ideal(list(fam.forms), rees=rees)
        assert rows == []
        block = graph.gb_cache[graph.ctx.order]
        kept = rees.gb_cache[rees.ctx.order]
        assert len(block) > len(kept) == len(rees.gens)
        assert not certificate.is_reduced(kept, rees.ctx.packing.guard)
        groebner_basis(rees)
        assert rows == [len(rees.gens)]

    def test_second_groebner_basis_charges_no_steps(self):
        for field in (FieldSpec(7), FP, QQ):
            _, I = mk(("x", "y", "z"), ["x^2 - y^2 + z^2", "x*y - z^2", "y*z - x^2"], field=field)
            with step_budget(DEFAULT_BUDGET):
                budget = gb_mod._budget()
                gb_mod._basis(I)
                spent, bases = [], []
                for _ in range(2):
                    left = budget.left
                    bases.append(groebner_basis(I))
                    spent.append(left - budget.left)
            assert spent[0] > 0 and spent[1] == 0
            assert bases[1] == bases[0] and len(bases[0]) == 5
            assert ideal_equal(I, ideal(I.ctx, bases[0]))

    def test_monomial_basis_makes_no_reduce_call(self, monkeypatch):
        _, I = mk(("x", "y", "z"), ["x^2*y", "y^3", "x*z^2", "x^2*y*z"], field=FP)
        gb_mod._basis(I)
        calls = []
        inner = gb_mod._reduce
        monkeypatch.setattr(gb_mod, "_reduce", lambda *args: calls.append(1) or inner(*args))
        assert [len(g.terms) for g in groebner_basis(I)] == [1, 1, 1]
        assert calls == []

    def test_verify_catches_a_missing_tails_pass(self, monkeypatch):
        monkeypatch.setattr(gb_mod, "_reduce_tails", lambda basis, *args: sorted(basis, key=max))
        certify_bases(monkeypatch)
        _, I = mk(("x", "y", "z"), ["x^2 - y^2 + z^2", "x*y - z^2", "y*z - x^2"], field=FP)
        with pytest.raises(AssertionError, match="not reduced"):
            groebner_basis(I)
        texts = ["x0*x2 + x1*x2 + x2^2", "2*x0^2 + x1^2 + x1*x2", "x0^2 - x0*x1 - x0*x2"]
        _, J = mk(("x0", "x1", "x2"), texts, field=FP, order=("block", 1))
        elim = eliminate(J, 1)
        with pytest.raises(AssertionError, match="not reduced"):
            groebner_basis(elim)


@st.composite
def top_reduction_cases(draw):
    """(ideal, polynomials to reduce modulo it) over F_2, F_7, F_32003 or
    Q, of one of three kinds: 2-3 forms of degree 1-3 in a grevlex ring,
    the same in a ring of two blocks, or 2-3 polynomials of degree at
    most 2 together with the Rabinowitsch seed 1 - t*g in the ring that
    `_with_aux_var` adjoins t to.  Each polynomial has 1-4 terms."""
    field = draw(st.sampled_from([FieldSpec(2), FieldSpec(7), FP, QQ]))
    kind = draw(st.sampled_from(["homogeneous", "blocks", "rabinowitsch"]))
    order = ("blocks", (1, 2)) if kind == "blocks" else "grevlex"
    ctx = RingCtx(("x0", "x1", "x2"), field, order=order)
    p = field.characteristic
    coeff = st.integers(1, p - 1) if p else st.integers(-9, 9).filter(bool)

    def poly(ctx, degrees):
        mons = [m for d in degrees for m in monomials_of_degree(ctx.nvars, d)]
        chosen = draw(st.lists(st.sampled_from(mons), min_size=1, max_size=4, unique=True))
        return Poly(ctx, {m: draw(coeff) for m in chosen})

    if kind == "rabinowitsch":
        gens = [poly(ctx, range(3)) for _ in range(draw(st.integers(2, 3)))]
        aux, t, lift = _with_aux_var(ctx)
        g = poly(ctx, range(1, 3))
        gens = [lift(f) for f in gens] + [Poly.constant(aux, 1) - t * lift(g)]
        ctx = aux
    else:
        gens = [poly(ctx, [draw(st.integers(1, 3))]) for _ in range(draw(st.integers(2, 3)))]
    fs = [poly(ctx, range(4)) for _ in range(3)]
    return ideal(ctx, gens), fs


class TestTopReduction:
    """`_buchberger` top-reduces S-pair remainders and inhomogeneous
    seeds: the rows it adds keep tails that may reduce, and the basis is
    still a Groebner basis with the reduced basis's leads."""

    @settings(max_examples=150, deadline=None)
    @given(top_reduction_cases())
    def test_top_reduced_basis_has_the_reduced_leads(self, case):
        I, fs = case
        with pytest.MonkeyPatch.context() as mp:
            certify_bases(mp)
            pk, basis = I.ctx.packing, gb_mod._basis(I)
            # the cached basis, before any tails pass
            certificate.certify(basis, pk, I.ctx.field.characteristic, [g.terms for g in I.gens])
            leads = [g.lm() for g in groebner_basis(I)]
            assert leads == [pk.unpack(max(t)) for t in basis]
            for f in fs:
                for m in normal_form(f, I).terms:
                    assert not any(monomial_divides(lead, pk.unpack(m)) for lead in leads)
