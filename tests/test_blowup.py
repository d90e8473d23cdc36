import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import (
    ORACLE_SHAPES,
    certify_bases,
    count_buchberger_runs,
    in_order,
    nonzero_random_form,
    oracle_map,
    rand_coeff,
    rees_route,
)
from gr_oracle import gr_dimension
from sfib_oracle import saturated_power_dim
import reesdeg.blowup as blowup
from reesdeg.blowup import (
    _gr_ideal,
    blowup_ambient,
    embed_in_blowup,
    fiber_cone_ideal,
    graph_ideal,
    jacobian_independent,
    rees_ideal,
    specialization_compare,
    specialize_forms,
    specialize_rees,
)
import reesdeg.groebner as gb_mod
import reesdeg.ratmap as ratmap
from reesdeg.cli import main
from reesdeg.families import Family, FamilySpec, make_family
from reesdeg.groebner import (
    IdealHandle,
    eliminate,
    groebner_basis,
    ideal_contains,
    ideal_equal,
    parse_ideal,
    serialize_ideal,
)
from reesdeg.hilbert import hilbert_function
from reesdeg.ratmap import degree_report, rational_map, sfib_hilbert_function
from reesdeg.ring import FieldSpec, Poly, RingCtx, RingError, monomials_of_degree, parse_poly

QQ = FieldSpec(0)


def forms_of(names, texts, field=QQ, n_params=0):
    ctx = RingCtx(tuple(names), field, n_params=n_params)
    return ctx, [parse_poly(t, ctx) for t in texts]


class TestReesIdeal:
    def test_linear_pair(self):
        _, forms = forms_of(("x0", "x1"), ["x0", "x1"])
        R = rees_ideal(forms)
        assert [str(g) for g in groebner_basis(R)] == ["x1*y0 - x0*y1"]

    def test_conic(self):
        _, forms = forms_of(("x0", "x1"), ["x0^2", "x0*x1", "x1^2"])
        R = rees_ideal(forms)
        got = sorted(str(g) for g in groebner_basis(R))
        assert got == sorted(
            ["y1^2 - y0*y2", "x1*y1 - x0*y2", "x1*y0 - x0*y1"]
        )

    def test_principal_is_zero(self):
        _, forms = forms_of(("x0", "x1"), ["x0^2 + x1^2"])
        R = rees_ideal(forms)
        assert groebner_basis(R) == []

    def test_generators_bihomogeneous(self):
        rng = random.Random(31)
        for _ in range(8):
            ctx = RingCtx(("x0", "x1"), FieldSpec(rng.choice([0, 32003])))
            forms = [nonzero_random_form(ctx, rng, 2) for _ in range(3)]
            R = rees_ideal(forms)
            for g in groebner_basis(R):
                assert g.bidegree(2) is not None

    def test_forms_vanish_on_rees(self):
        # every Rees relation must vanish under y_i -> g_i
        ctx, forms = forms_of(("x0", "x1"), ["x0^2", "x0*x1", "x1^2"])
        R = rees_ideal(forms)
        from reesdeg.ring import Poly

        for rel in groebner_basis(R):
            total = Poly.zero(ctx)
            for mon, c in rel.terms.items():
                mon = rel.ctx.packing.unpack(mon)
                part = Poly.constant(ctx, c)
                for i in range(2):
                    if mon[i]:
                        part = part * Poly.var(ctx, i, mon[i])
                for j, g in enumerate(forms):
                    if mon[2 + j]:
                        part = part * g.pow(mon[2 + j])
                total = total + part
            assert not total

    def test_embed_in_blowup(self):
        ctx, forms = forms_of(("x0", "x1"), ["x0^2", "x0*x1", "x1^2"])
        amb = blowup_ambient(ctx, 2)
        lifted = embed_in_blowup(forms, amb)
        assert lifted[0].ctx == amb
        assert str(lifted[0]) == "x0^2"

    def test_mixed_degrees_rejected(self):
        _, forms = forms_of(("x0", "x1"), ["x0", "x1^2"])
        with pytest.raises(RingError):
            rees_ideal(forms)

    def test_weighted_degree_past_the_bound_drives_one_run(self, monkeypatch):
        # y weighs d + 1 = 3 000 001 in the grading of the graph ideal, so
        # weighted degrees pass EXP_BOUND where total degrees do not; the
        # packed monomials keep total degrees, and the one driven t-run
        # reads the weighted ones off them
        targets = []
        inner = gb_mod._buchberger

        def logged(seeds, pk, fld, budget, hilbert=None):
            targets.append(hilbert)
            return inner(seeds, pk, fld, budget, hilbert)

        monkeypatch.setattr(gb_mod, "_buchberger", logged)
        d = 3_000_000
        _, forms = forms_of(("x0", "x1"), ["x0^%d" % d, "x1^%d" % d], field=FieldSpec(32003))
        R = rees_ideal(forms)
        assert [str(g) for g in R.gens] == ["x1^%d*y0 + 32002*x0^%d*y1" % (d, d)]
        graph_series = ((1, 1, 1, d + 1, d + 1), {0: 1, d + 1: -2, 2 * d + 2: 1})
        assert targets == [graph_series]

    def test_custom_y_names(self):
        _, forms = forms_of(("x0", "x1"), ["x0", "x1"])
        R = rees_ideal(forms, y_names=("u", "v"))
        assert R.ctx.var_names == ("x0", "x1", "u", "v")


class TestFiberCone:
    def test_conic_fiber(self):
        _, forms = forms_of(("x0", "x1"), ["x0^2", "x0*x1", "x1^2"])
        F = fiber_cone_ideal(forms, rees_ideal(forms))
        assert [str(g) for g in groebner_basis(F)] == ["y1^2 - y0*y2"]
        # the analytic spread is the dimension of the fiber cone
        assert rational_map(forms).image.dim == 2

    def test_linear_system_spread(self):
        _, forms = forms_of(("x0", "x1", "x2"), ["x0", "x1", "x2"])
        assert rational_map(forms).image.dim == 3

    def test_spread_of_principal(self):
        _, forms = forms_of(("x0", "x1"), ["x0*x1"])
        assert rational_map(forms).image.dim == 1

    def test_presentation_bundle(self):
        _, forms = forms_of(("x0", "x1"), ["x0^2", "x0*x1", "x1^2"])
        # the map context holds the Rees and fiber cone ideals and the
        # spread; the gr ideal adds the forms to the Rees ideal
        spec = rational_map(forms)
        ambient = spec.rees.ctx
        assert spec.degree == 2
        assert spec.image.dim == 2
        assert ideal_contains(_gr_ideal(spec.rees, forms), parse_poly("y1^2 - y0*y2", ambient))
        # the fiber ideal lives in the y-subring; lift it into the ambient
        nx = 2
        for g in spec.fiber.gens:
            lifted = g.map_vars(ambient, [nx + j for j in range(3)])
            assert ideal_contains(spec.rees, lifted)


def random_forms(ctx, rng, nforms, deg, factor, base):
    """`nforms` nonzero forms of degree `deg` in the coordinates of `ctx`,
    each coefficient a random combination of 1 and the parameters: with
    `factor` all divisible by one linear form, and with `base` all
    vanishing at the point (1 : 0 : ... : 0)."""
    nx, np = ctx.nvars - ctx.n_params, ctx.n_params
    # exponents of 1, a_0, ..., a_{np-1}
    params = [tuple(int(i == j) for i in range(np)) for j in range(-1, np)]
    mons = [m for m in monomials_of_degree(nx, deg - factor) if not (base and m[0] == deg)]
    if factor:
        coords = RingCtx(ctx.var_names[:nx], ctx.field)
        h = Poly.var(ctx, 1) if base else nonzero_random_form(coords, rng, 1).map_vars(ctx, range(nx))
    forms = []
    while len(forms) < nforms:
        g = Poly(ctx, {m + a: rand_coeff(ctx, rng) for m in mons for a in params if rng.random() < 0.5})
        g = g * h if factor else g
        if g:
            forms.append(g)
    return forms


def parametric_fiber_cases():
    """{name: forms} of one-parameter families: de Jonquieres m = 2, 3,
    and linear pencils over F_7, F_32003 and Q with one form more than
    the coordinates, so that the fiber cone has relations over k[a]."""
    cases = {
        "dejonquieres%d" % m: list(make_family(FamilySpec("dejonquieres", m=m)).forms)
        for m in (2, 3)
    }
    rng = random.Random(2019)
    for i, prime in enumerate((7, 32003, 0, 7, 32003, 0)):
        nx = 2 + i % 2
        ctx = RingCtx(("x0", "x1", "x2")[:nx] + ("a",), FieldSpec(prime), n_params=1)
        cases["pencil%d-F_%d" % (i, prime)] = random_forms(ctx, rng, nx + 1, 1, False, i > 2)
    return cases


PARAMETRIC_FIBER_CASES = parametric_fiber_cases()


class TestFiberConeOracle:
    """The fiber cone ideal read off the Rees basis against the x-block
    elimination of the Rees ideal, which runs a second Buchberger pass in
    a copy of the Rees ring under the (x | y) block order."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        prime=st.sampled_from([7, 32003, 0]),
        nvars=st.integers(2, 3),
        nforms=st.integers(1, 4),
        deg=st.integers(1, 2),
        factor=st.booleans(),
        base=st.booleans(),
    )
    def test_reduced_basis_is_the_elimination_basis(
        self, seed, prime, nvars, nforms, deg, factor, base
    ):
        # kept small: one Q case of degree 3 in 4 variables kept the
        # oracle busy for over 10 minutes
        rng = random.Random(seed)
        ctx = RingCtx(tuple("x%d" % i for i in range(nvars)), FieldSpec(prime))
        forms = random_forms(ctx, rng, nforms, deg, factor and deg > 1, base)
        with pytest.MonkeyPatch.context() as mp:
            certify_bases(mp)
            fiber = rational_map(forms).fiber
            oracle = eliminate(in_order(rees_ideal(forms), ("block", nvars)), nvars)
            assert fiber.ctx == oracle.ctx
            assert groebner_basis(fiber) == groebner_basis(oracle)

    @pytest.mark.parametrize("name", list(PARAMETRIC_FIBER_CASES))
    def test_parametric_fiber_cone_is_the_elimination_ideal(self, name, verified_bases):
        forms = PARAMETRIC_FIBER_CASES[name]
        rees = rees_ideal(forms)
        fiber = fiber_cone_ideal(forms, rees=rees)
        nx = forms[0].ctx.nvars - 1
        oracle = eliminate(in_order(rees, ("block", nx)), nx)
        # the order the Rees ring induces on (y | a), not eliminate's grevlex
        ny = rees.ctx.nvars - nx - 1
        assert fiber.ctx.order == ("blocks", (ny, 1))
        assert oracle.ctx.order == "grevlex"
        moved = [g.map_vars(oracle.ctx, range(ny + 1)) for g in fiber.gens]
        assert ideal_equal(IdealHandle(oracle.ctx, moved), oracle)


def small_fraction(ctx, rng):
    """A coefficient of `ctx`: over Q a fraction with denominator up to 4."""
    if ctx.field.characteristic:
        return rand_coeff(ctx, rng)
    return Fraction(rng.randint(-9, 9), rng.randint(1, 4))


class TestJacobianCertificate:
    """Forms whose Jacobian has full rank at a fixed point are
    algebraically independent: their fiber cone ideal is zero and their
    image all of P^s, read off no basis.  The Rees basis, the route every
    other set of forms takes, is the oracle."""

    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        prime=st.sampled_from([7, 32003, 0]),
        nvars=st.integers(2, 4),
        nforms=st.integers(2, 4),
        deg=st.integers(1, 2),
        kind=st.sampled_from(["dense", "free", "conic"]),
    )
    def test_agrees_with_the_rees_basis(self, seed, prime, nvars, nforms, deg, kind):
        rng = random.Random(seed)
        ctx = RingCtx(tuple("x%d" % i for i in range(nvars)), FieldSpec(prime))
        if kind == "conic":
            # a conic, with four forms a quadric beside it: dependent
            x0, x1 = Poly.var(ctx, 0), Poly.var(ctx, 1)
            forms = [x0 * x0, x0 * x1, x1 * x1]
            forms += [nonzero_random_form(ctx, rng, 2, 0.5, small_fraction)] * (nforms > 3)
        else:
            # "free" forms omit the last variable, so n of them are dependent
            sub = RingCtx(ctx.var_names[: nvars - (kind == "free")], ctx.field)
            forms = [
                nonzero_random_form(sub, rng, deg, 0.5, small_fraction).map_vars(ctx, range(nvars))
                for _ in range(nforms)
            ]
        held = rees_route(forms)
        oracle = held.fiber
        spec = rational_map(forms)
        fiber = spec.fiber
        assert fiber.ctx == oracle.ctx
        assert groebner_basis(fiber) == groebner_basis(oracle)
        if jacobian_independent(forms):
            assert groebner_basis(oracle) == []
        assert spec.image == held.image
        assert degree_report(rational_map(forms)) == degree_report(held)

    @pytest.mark.parametrize("prime", [7, 32003, 0], ids=["F_7", "F_32003", "QQ"])
    def test_what_it_certifies(self, prime):
        field = FieldSpec(prime)
        names = ("x0", "x1", "x2")
        cases = {
            # Cremona map, squares with s < r, a pencil of lines
            ("x1*x2", "x0*x2", "x0*x1"): True,
            ("x0^2", "x1^2"): True,
            ("x0 + 1/2*x1", "x2"): True,
            # a conic, dependent forms of P^2; more forms than variables
            ("x0^2", "x0*x1", "x1^2"): False,
            ("x0", "x1", "x2", "x0 + x1"): False,
        }
        for texts, independent in cases.items():
            _, forms = forms_of(names, texts, field)
            assert jacobian_independent(forms) is independent, texts

    def test_fewer_variables_than_forms_charge_nothing(self, monkeypatch):
        # no form contains x2, so the Jacobian's x2 column is zero and its
        # rank is at most 2 < 3: no point is tried, no form term charged
        monkeypatch.setattr(
            blowup, "_jacobian_points", lambda n, p: pytest.fail("a point was tried")
        )
        _, forms = forms_of(("x0", "x1", "x2"), ["x0^2", "x0*x1", "x1^2"], FieldSpec(32003))
        with gb_mod.step_budget(10):
            assert not jacobian_independent(forms)
            budget = gb_mod._budget()
            assert budget.left == budget.limit

    def test_pth_powers_are_left_to_the_rees_basis(self):
        # x0^7, x1^7 are independent, but over F_7 their Jacobian is zero
        _, forms = forms_of(("x0", "x1", "x2"), ["x0^7", "x1^7"], FieldSpec(7))
        assert not jacobian_independent(forms)
        assert groebner_basis(rational_map(forms).fiber) == []

    def test_parameters_are_left_to_the_rees_basis(self):
        _, forms = forms_of(("x", "y", "a"), ["a*x^2", "y^2"], n_params=1)
        assert not jacobian_independent(forms)

    def test_points_are_the_first_primes_over_q_and_large_p(self):
        # over Q and F_32003 the points are those the rules always read,
        # so no certificate there changes
        primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61]
        for n in range(1, 7):
            want = tuple(tuple(primes[k * n : (k + 1) * n]) for k in range(3))
            assert blowup._jacobian_points(n, 0) == want
            assert blowup._jacobian_points(n, 32003) == want

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_small_fields_add_points_free_of_p(self, p):
        # the first draw is kept, up to points equal mod p, and some
        # point has no coordinate 0 mod p; over F_2 that point is (1, 1, 1)
        for n in range(1, 7):
            points = blowup._jacobian_points(n, p)
            residues = [tuple(c % p for c in pt) for pt in points]
            assert len(set(residues)) == len(residues)
            first = {tuple(c % p for c in pt) for pt in blowup._jacobian_points(n, 0)}
            assert first <= set(residues)
            assert any(all(residue) for residue in residues)
        assert blowup._jacobian_points(3, 2) == ((2, 3, 5), (7, 11, 13))

    def test_pfaffian_over_f7_is_certified(self, monkeypatch):
        # the first draw has the coordinate 7, and ranks this birational
        # Pfaffian too low at all three points; a point drawn without 7
        # certifies it
        family = FamilySpec("pfaffian", r=4, D=1, seed=373243, prime=7)
        spec = rational_map(make_family(family).forms)
        assert spec.birational
        runs = count_buchberger_runs(monkeypatch)
        assert degree_report(spec).deg_map == 1
        assert runs == []

    def test_a_point_rank_drop_is_not_an_answer(self, monkeypatch):
        # at points with x1 = 0 the Jacobian of the independent forms
        # x0*x1, x1*x2 has rank 1: they take the Rees route
        monkeypatch.setattr(blowup, "_jacobian_points", lambda n, p: ((1, 0, 2),) * 3)
        _, forms = forms_of(("x0", "x1", "x2"), ["x0*x1", "x1*x2"])
        assert not jacobian_independent(forms)
        runs = count_buchberger_runs(monkeypatch)
        assert groebner_basis(rational_map(forms).fiber) == [] and len(runs) == 1


class TestLinearSyzygies:
    """The kernel the Jacobian dual and Hilbert-Burch rules read: its
    vectors are syzygies, and there are as many as the Hilbert function
    of the forms' ideal, from a Buchberger run, leaves room for."""

    @settings(max_examples=80, deadline=None)
    @given(
        shape=st.sampled_from(ORACLE_SHAPES),
        prime=st.sampled_from([2, 7, 32003, 0]),
        seed=st.integers(0, 10**6),
    )
    @example(shape="pf", prime=0, seed=3)
    @example(shape="hb11", prime=7, seed=4)
    @example(shape="dependent", prime=2, seed=0)
    def test_kernel_matches_the_hilbert_function(self, shape, prime, seed):
        try:
            spec = oracle_map(shape, prime, seed)
        except RingError:
            assume(False)
        ctx, forms = spec.ctx, list(spec.forms)
        r = len(forms) - 1
        p = ctx.field.characteristic
        # over Q the kernel is taken on g_i scaled to integers by scales[i]
        integral, scales = zip(*(gb_mod._integral(g.terms, p) for g in forms))
        syzygies = blowup.linear_syzygies(forms)
        d = forms[0].bidegree(ctx.nvars)[0]
        span = math.comb(d + 1 + r, r) - hilbert_function(IdealHandle(ctx, forms), d + 1)
        assert len(syzygies) == (r + 1) ** 2 - span
        for syz in syzygies:
            total = Poly.zero(ctx)
            for j, a in syz.items():
                k, i = divmod(j, r + 1)
                total = total + Poly.var(ctx, k) * forms[i] * (a * scales[i])
            assert not total, syz


class TestSaturatedFiberHF:
    def test_linear_pair_values(self):
        _, forms = forms_of(("x0", "x1"), ["x0", "x1"])
        spec = rational_map(forms)
        assert [sfib_hilbert_function(spec, n) for n in range(4)] == [1, 2, 3, 4]

    def test_squares_values(self):
        _, forms = forms_of(("x0", "x1"), ["x0^2", "x1^2"])
        spec = rational_map(forms)
        assert [sfib_hilbert_function(spec, n) for n in range(4)] == [1, 3, 5, 7]

    def test_power_zero_checks_its_forms(self):
        # n = 0 rejects what n >= 1 rejects: the map context checks the
        # forms before any power is read, and so does the saturation route
        ctx = RingCtx(("x0", "x1"), QQ)
        _, params = forms_of(("x", "y", "a"), ["a*x^2", "y^2"], n_params=1)
        for forms in ([Poly.zero(ctx)], params):
            with pytest.raises(RingError):
                rational_map(forms)
            with pytest.raises(RingError):
                blowup.saturated_fiber_dim(forms, 1)

    def test_negative_rejected(self):
        _, forms = forms_of(("x0", "x1"), ["x0", "x1"])
        with pytest.raises(ValueError):
            sfib_hilbert_function(rational_map(forms), -1)

    def test_one_basis_per_power(self, monkeypatch):
        # the saturation route, which the Hilbert-Burch rule spares this
        # map: saturating I^n by the irrelevant ideal reuses the basis of
        # I^n
        forms = list(make_family(FamilySpec("hilbert_burch", r=2, mu=(1, 2), seed=5)).forms)
        runs = count_buchberger_runs(monkeypatch)
        for n, value in ((1, 3), (2, 7), (3, 13)):
            del runs[:]
            assert blowup.saturated_fiber_dim(forms, n) == value
            assert len(runs) == 1

    @settings(max_examples=40, deadline=None)
    @given(
        shape=st.sampled_from(ORACLE_SHAPES),
        prime=st.sampled_from([2, 7, 32003, 0]),
        seed=st.integers(0, 10**6),
    )
    @example(shape="hb12", prime=32003, seed=4)
    @example(shape="hb12", prime=0, seed=4)
    @example(shape="pf", prime=7, seed=373243)
    @example(shape="pf", prime=0, seed=3)
    def test_certified_values_match_the_oracle(self, shape, prime, seed):
        # wherever the Jacobian dual or the Hilbert-Burch rule certifies
        # the map, the values are those of I^n saturated, read off no
        # basis; the (1, 2) examples are s = r maps the dual does not
        # certify, whose values differ from C(n+r, r) at n = 2
        try:
            spec = oracle_map(shape, prime, seed)
        except RingError:
            assume(False)
        forms = list(spec.forms)
        certified = spec.birational or spec.hilbert_burch is not None
        with pytest.MonkeyPatch.context() as mp:
            runs = count_buchberger_runs(mp)
            values = [sfib_hilbert_function(spec, n) for n in range(4)]
        if certified:
            assert runs == []
        assert values == [saturated_power_dim(forms, n) for n in range(4)]

    def test_a_verdict_passed_in_is_not_checked_again(self, monkeypatch):
        # the context reads the rule once for every power, and a context
        # that holds its Rees ideal reads it not at all
        calls = []
        inner = ratmap.jacobian_dual_birational
        monkeypatch.setattr(
            ratmap, "jacobian_dual_birational", lambda *args: calls.append(1) or inner(*args)
        )
        _, forms = forms_of(("x0", "x1", "x2"), ["x1*x2", "x0*x2", "x0*x1"])
        spec = rational_map(forms)
        assert [sfib_hilbert_function(spec, n) for n in (1, 2, 3)] == [3, 6, 10]
        assert calls == [1]
        assert sfib_hilbert_function(rees_route(forms), 2) == 6
        assert calls == [1]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_pfaffian_values(self, seed):
        spec = rational_map(make_family(FamilySpec("pfaffian", r=4, D=1, seed=seed)).forms)
        assert [sfib_hilbert_function(spec, n) for n in (1, 2, 3)] == [5, 15, 35]


class TestSpecialization:
    FAMILY = ("x^3", "x^2*y", "a*x*y^2 + y^3")

    def test_specialize_forms(self):
        ctx, fam = forms_of(("x", "y", "a"), self.FAMILY, n_params=1)
        special = specialize_forms(fam, (2,))
        sctx = special[0].ctx
        assert sctx.var_names == ("x", "y")
        assert special[2] == parse_poly("2*x*y^2 + y^3", sctx)

    def test_point_killing_generator_rejected(self):
        ctx, fam = forms_of(("x", "y", "a"), ["x^2", "a*x*y", "y^2"], n_params=1)
        with pytest.raises(RingError):
            specialization_compare(fam, (0,), rees_ideal(fam))
        family = Family(FamilySpec("file"), ctx, None, tuple(fam), 2)
        for read in (family.gr_dimension, family.member):
            with pytest.raises(RingError, match="kills generator 1"):
                read((0,))

    def test_wrong_point_length(self):
        ctx, fam = forms_of(("x", "y", "a"), self.FAMILY, n_params=1)
        with pytest.raises(RingError):
            specialize_forms(fam, (1, 2))

    def test_rees_specialization_checks_the_point(self):
        _, fam = forms_of(("x", "y", "a"), self.FAMILY, n_params=1)
        generic = rees_ideal(fam)
        for point in ((), (1, 2)):
            with pytest.raises(RingError, match="expected 1 parameter values"):
                specialize_rees(generic, point)
        _, forms = forms_of(("x", "y"), ["x", "y"])
        with pytest.raises(RingError, match="no parameters"):
            specialize_rees(rees_ideal(forms), ())

    def test_specialized_rees_contained_in_direct(self):
        ctx, fam = forms_of(("x", "y", "a"), self.FAMILY, n_params=1)
        generic = rees_ideal(fam)
        for a in (0, 1, 3):
            spec = specialize_rees(generic, (a,))
            direct = rees_ideal(specialize_forms(fam, (a,)))
            for g in spec.gens:
                assert ideal_contains(direct, g)

    def test_coordinate_change_family_is_isomorphism(self):
        ctx, fam = forms_of(("x", "y", "a"), self.FAMILY, n_params=1)
        generic = rees_ideal(fam)
        for a in (0, 1, 5):
            result = specialization_compare(fam, (a,), generic)
            assert result.kind == "isomorphism"
            assert result.witness is None

    def test_param_free_family_takes_empty_point(self, capsys):
        # a map's gr dimension has the empty point and takes no other
        assert main(["gr-dim", "--map", "x0, x1", "--prime", "0", "--format", "text"]) == 0
        assert capsys.readouterr().out == "-: 2\n"
        assert main(["gr-dim", "--map", "x0, x1", "--points", "1"]) == 2
        assert "does not apply" in capsys.readouterr().err


class TestGrDimension:
    """dim gr_I(S) = dim S for fixed forms, against the gr basis."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        prime=st.sampled_from([7, 32003, 0]),
        nvars=st.integers(2, 4),
        nforms=st.integers(1, 4),
        deg=st.integers(1, 3),
        factor=st.booleans(),
        miss=st.booleans(),
    )
    def test_dimension_is_the_variable_count(self, seed, prime, nvars, nforms, deg, factor, miss):
        # forms of degree deg, sharing a linear factor or not, and, with
        # `miss`, all of them free of one variable of the ring
        rng = random.Random(seed)
        ctx = RingCtx(tuple("x%d" % i for i in range(nvars)), FieldSpec(prime))
        keep = list(range(nvars))
        if miss:
            del keep[rng.randrange(nvars)]
        sub = RingCtx(tuple(ctx.var_names[i] for i in keep), ctx.field)
        h = nonzero_random_form(sub, rng, 1) if factor else None
        forms = []
        for _ in range(nforms):
            g = nonzero_random_form(sub, rng, deg - 1 if factor else deg)
            forms.append((h * g if factor else g).map_vars(ctx, keep))
        assert rational_map(forms).r + 1 == gr_dimension(forms) == nvars


# every entry point that takes forms, called on a list of them
FORM_ENTRY_POINTS = {
    "rational_map": rational_map,
    "graph_ideal": graph_ideal,
    "rees_ideal": rees_ideal,
    # with the Rees ideal of the first form alone, which is well formed
    "fiber_cone_ideal": lambda forms: fiber_cone_ideal(forms, rees_ideal(forms[:1])),
    # through the map context it reads
    "sfib_hilbert_function": lambda forms: sfib_hilbert_function(rational_map(forms), 1),
    "saturated_fiber_dim": lambda forms: blowup.saturated_fiber_dim(forms, 1),
}


class TestFormCheck:
    F7 = FieldSpec(7)

    @pytest.mark.parametrize("entry", sorted(FORM_ENTRY_POINTS))
    @pytest.mark.parametrize(
        "other",
        [(("u", "v"), F7, "u*v"), (("x0", "x1"), QQ, "x0*x1")],
        ids=["other-names", "other-field"],
    )
    def test_forms_from_different_rings_rejected(self, entry, other):
        # neither form may be read in the other's ring: the Q form is not
        # reduced mod 7, and u, v are not x0, x1
        _, (f,) = forms_of(("x0", "x1"), ["x0^2"], field=self.F7)
        names, field, text = other
        _, (g,) = forms_of(names, [text], field=field)
        with pytest.raises(RingError, match="different rings"):
            FORM_ENTRY_POINTS[entry]([f, g])

    @pytest.mark.parametrize(
        "names, texts, n_params, y_names",
        [
            (("x0", "x1"), ["x0^2", "x0*x1", "x1^2"], 0, None),
            (("x", "y", "a"), ["x^2", "a*x*y", "y^2"], 1, None),
            (("x0", "x1"), ["x0", "x1"], 0, ("u", "v")),
        ],
    )
    def test_rees_ideal_lives_in_the_blowup_ambient(self, names, texts, n_params, y_names):
        # eliminating t lands in the ambient ring itself, so the Rees
        # ideal needs no renumbering
        ctx, forms = forms_of(names, texts, n_params=n_params)
        amb = blowup_ambient(ctx, len(forms) - 1, y_names=y_names)
        assert eliminate(graph_ideal(forms, y_names=y_names), 1).ctx == amb
        assert rees_ideal(forms, y_names=y_names).ctx == amb


class TestSerializedRings:
    """A ring is what its header states, so a serialized Rees or fiber
    cone ideal reads back in the ring it was written from."""

    @staticmethod
    def assert_reads_back(X, nx=None):
        Y = parse_ideal(serialize_ideal(X))
        assert Y.ctx == X.ctx
        assert ideal_equal(Y, X)
        if nx is not None:
            bidegrees = [g.bidegree(nx) for g in X.gens]
            assert None not in bidegrees
            assert [g.bidegree(nx) for g in Y.gens] == bidegrees

    @pytest.mark.parametrize("p", [7, 32003, 0])
    def test_plain_map(self, p):
        _, forms = forms_of(
            ("x0", "x1", "x2"), ["x0^2", "x0*x1", "x1^2", "x2^2"], field=FieldSpec(p)
        )
        rees = rees_ideal(forms)
        self.assert_reads_back(rees, nx=3)
        self.assert_reads_back(fiber_cone_ideal(forms, rees=rees))

    @pytest.mark.parametrize("p", [7, 32003, 0])
    def test_dejonquieres(self, p):
        fam = make_family(FamilySpec("dejonquieres", m=2, prime=p))
        forms = list(fam.forms)
        rees = rees_ideal(forms)
        self.assert_reads_back(rees, nx=fam.ctx.nvars - fam.ctx.n_params)
        self.assert_reads_back(fiber_cone_ideal(forms, rees=rees))


class TestAmbient:
    def test_blowup_ambient_names(self):
        ctx = RingCtx(("x0", "x1"), QQ)
        amb = blowup_ambient(ctx, 2)
        assert amb.var_names[:2] == ("x0", "x1")
        assert len(amb.var_names) == 5
        assert amb == RingCtx(amb.var_names, QQ)

    def test_fresh_names_dodge_existing(self):
        ctx = RingCtx(("y0", "y1"), QQ)
        amb = blowup_ambient(ctx, 1)
        assert len(set(amb.var_names)) == 4
