import random

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import reesdeg.blowup as blowup_mod
import reesdeg.ratmap as ratmap
from conftest import (
    ORACLE_SHAPES,
    count_buchberger_runs,
    nonzero_random_form,
    oracle_map,
    record_shortcut,
    rees_route,
)
from fiber_sampling import fiber_ideal, fiber_length, sample_point, sampled_degree, trial_rng
from generic_fiber import generic_fiber_degree
from reesdeg.families import FamilySpec, j_multiplicity, make_family, specialized_family
from reesdeg.groebner import IdealHandle, groebner_basis, ideal_equal, saturate
from reesdeg.ratmap import (
    NOT_GENERICALLY_FINITE,
    DegreeReport,
    base_locus,
    degree_map,
    degree_report,
    is_birational,
    parse_map_file,
    projective_degrees,
    rational_map,
    serialize_map,
)
from reesdeg.hilbert import dim_degree
from reesdeg.ring import FieldSpec, Poly, RingCtx, RingError, _Packing, parse_poly

QQ = FieldSpec(0)
FP = FieldSpec(32003)


def mkmap(names, texts, field=FP):
    ctx = RingCtx(tuple(names), field)
    return rational_map([parse_poly(t, ctx) for t in texts])


class TestValidation:
    def test_spec_fields(self):
        spec = mkmap(("x0", "x1"), ["x0^2", "x0*x1", "x1^2"])
        assert (spec.r, spec.s, spec.degree) == (1, 2, 2)

    def test_zero_form_rejected(self):
        ctx = RingCtx(("x0", "x1"), QQ)
        with pytest.raises(RingError):
            rational_map([parse_poly("x0", ctx), parse_poly("0", ctx)])

    def test_mixed_degree_rejected(self):
        with pytest.raises(RingError):
            mkmap(("x0", "x1"), ["x0", "x1^2"])

    def test_constants_rejected(self):
        with pytest.raises(RingError):
            mkmap(("x0", "x1"), ["1", "2"])

    def test_inhomogeneous_rejected(self):
        with pytest.raises(RingError):
            mkmap(("x0", "x1"), ["x0^2 + x1", "x1^2"])

    def test_degrees_read_without_unpacking(self, monkeypatch):
        # a ring without parameters: a term's degree in the coordinates
        # is its degree field, so no exponent tuple is unpacked
        ctx = RingCtx(("x0", "x1", "x2"), FP)
        forms = [parse_poly(t, ctx) for t in ("x0^2 + x1*x2", "x0*x1 - 3*x2^2", "x1^2")]
        unpacked = []
        unpack = _Packing.unpack
        monkeypatch.setattr(_Packing, "unpack", lambda pk, m: unpacked.append(m) or unpack(pk, m))
        assert rational_map(forms).degree == 2
        with pytest.raises(RingError, match="homogeneous"):
            rational_map(forms + [parse_poly("x0^2 + x1", ctx)])
        assert unpacked == []


class TestImage:
    def test_identity_has_zero_image_ideal(self):
        spec = mkmap(("x0", "x1"), ["x0", "x1"])
        assert groebner_basis(spec.fiber) == []
        s = spec.image
        assert s.proj_dim_of_scheme == 1

    def test_conic_image(self):
        spec = mkmap(("x0", "x1"), ["x0^2", "x0*x1", "x1^2"])
        I = spec.fiber
        basis = groebner_basis(I)
        assert basis == [parse_poly("y1^2 - y0*y2", I.ctx)]
        s = spec.image
        assert (s.proj_dim_of_scheme, s.degree) == (1, 2)

    def test_cremona_is_dominant(self):
        spec = mkmap(("x0", "x1", "x2"), ["x1*x2", "x0*x2", "x0*x1"])
        assert groebner_basis(spec.fiber) == []
        assert spec.image.proj_dim_of_scheme == spec.r

    def test_collapsed_map_not_finite(self):
        spec = mkmap(("x0", "x1"), ["x0^2", "x0^2 + x0^2"])
        assert spec.image.proj_dim_of_scheme != spec.r


class TestBaseLocus:
    def test_empty_base_locus(self):
        spec = mkmap(("x0", "x1"), ["x0", "x1"])
        B, codim = base_locus(spec)
        assert codim == 2
        # empty base locus saturates to the unit ideal
        assert [str(g) for g in B.gens] == ["1"]

    def test_positive_dimensional_base(self):
        spec = mkmap(("x0", "x1"), ["x0^2", "x0*x1"])
        B, codim = base_locus(spec)
        assert codim == 1
        assert [str(g) for g in groebner_basis(B)] == ["x0"]

    def test_base_point_on_last_hyperplane(self, monkeypatch):
        # the base point (0:1:0) lies on x2 = 0, so saturating by x2 alone
        # gives the unit ideal; the Hilbert series check rejects it
        taken = record_shortcut(monkeypatch)
        spec = mkmap(("x0", "x1", "x2"), ["x0^2", "x0*x2", "x2^2"])
        B, codim = base_locus(spec)
        assert codim == 2
        assert taken == [False]
        assert [str(g) for g in groebner_basis(B)] == ["x2^2", "x0*x2", "x0^2"]


class TestDegreeMap:
    def test_identity(self):
        spec = mkmap(("x0", "x1"), ["x0", "x1"])
        assert degree_map(spec) == (1, ())

    def test_conic_parametrization_birational(self):
        spec = mkmap(("x0", "x1"), ["x0^2", "x0*x1", "x1^2"])
        value, _ = degree_map(spec)
        assert value == 1
        assert is_birational(spec)

    def test_squares_two_to_one(self):
        spec = mkmap(("x0", "x1"), ["x0^2", "x1^2"])
        value, _ = degree_map(spec)
        assert value == 2
        assert not is_birational(spec)

    def test_cremona_birational(self):
        spec = mkmap(("x0", "x1", "x2"), ["x1*x2", "x0*x2", "x0*x1"])
        value, _ = degree_map(spec)
        assert value == 1

    def test_collapsed_map_marker(self):
        spec = mkmap(("x0", "x1"), ["x0^2", "x0^2 + x0^2"])
        value, _ = degree_map(spec)
        assert value == NOT_GENERICALLY_FINITE

    def test_char_zero(self):
        spec = mkmap(("x0", "x1"), ["x0^2", "x1^2"], field=QQ)
        value, _ = degree_map(spec)
        assert value == 2

    @pytest.mark.parametrize("kwargs", [{"trials": 0}, {"trials": -1}])
    def test_bad_trials_and_budget_rejected(self, kwargs):
        spec = mkmap(("x0", "x1"), ["x0^2", "x1^2"])
        with pytest.raises(ValueError):
            degree_map(spec, **kwargs)

    def test_seed_determinism(self):
        spec = mkmap(("x0", "x1"), ["x0^3", "x0*x1^2 + x1^3"])
        a = degree_map(spec, seed=5)
        b = degree_map(spec, seed=5)
        assert a == b

    def test_representative_invariance_spot(self):
        rng = random.Random(2)
        ctx = RingCtx(("x0", "x1"), FP)
        for _ in range(5):
            forms = [nonzero_random_form(ctx, rng, 2, density=1.0) for _ in range(2)]
            h = nonzero_random_form(ctx, rng, 1, density=1.0)
            try:
                base = rational_map(forms)
            except RingError:
                continue
            scaled = rational_map([h * g for g in forms])
            assert degree_map(base)[0] == degree_map(scaled)[0]


def _maps_with_base_points():
    """Hilbert-Burch and de Jonquieres maps, plus random maps through a
    common point or with a common factor."""
    specs = []
    for mu, seed in (((1, 1), 3), ((1, 2), 5), ((2, 2), 8)):
        fam = make_family(FamilySpec("hilbert_burch", r=2, mu=mu, seed=seed))
        specs.append(rational_map(fam.forms))
    for seed in (2, 9):
        a = random.Random(seed).randrange(1, 32003)
        fam = specialized_family(make_family(FamilySpec("dejonquieres", m=2)), (a,))
        specs.append(rational_map(fam.forms))
    rng = random.Random(61)
    for field in (FP, QQ):
        ctx = RingCtx(("x0", "x1", "x2"), field)
        x0, x1 = Poly.var(ctx, 0), Poly.var(ctx, 1)
        for _ in range(3):
            # every form vanishes at (0:0:1)
            forms = [
                x0 * nonzero_random_form(ctx, rng, 1) + x1 * nonzero_random_form(ctx, rng, 1)
                for _ in range(3)
            ]
            specs.append(rational_map(forms))
            # a common linear factor: a base curve
            h = nonzero_random_form(ctx, rng, 1)
            specs.append(rational_map([h * nonzero_random_form(ctx, rng, 2) for _ in range(3)]))
    return specs


class TestFiberSaturation:
    def test_single_form_matches_two_step(self):
        """Saturating the fiber by one nonvanishing form gives the ideal
        that saturating by all forms and then by (x0..xr) gives."""
        changed = 0
        for n, spec in enumerate(_maps_with_base_points()):
            ctx = spec.ctx
            maxi = IdealHandle(ctx, [Poly.var(ctx, i) for i in range(ctx.nvars)])
            for idx in range(2):
                _, values = sample_point(spec, trial_rng(n, idx))
                fiber = fiber_ideal(spec, values)
                j = next(i for i, v in enumerate(values) if v)
                one = saturate(fiber, IdealHandle(ctx, [spec.forms[j]]))
                two = saturate(saturate(fiber, IdealHandle(ctx, list(spec.forms))), maxi)
                assert ideal_equal(one, two)
                changed += not ideal_equal(one, fiber)
        # the base locus really was there to remove
        assert changed >= 10

    def test_point_where_first_form_vanishes(self):
        # the image point (0 : 1) has fiber x0^2 = 0: length 2, found only
        # by saturating with the form that does not vanish there
        spec = mkmap(("x0", "x1"), ["x0^2", "x1^2"])
        assert fiber_length(spec, [0, 1]) == 2
        assert fiber_length(spec, [1, 0]) == 2


def _family_maps():
    """Hilbert-Burch, de Jonquieres at several parameters, the 5x5
    Pfaffian, the Veronese surface, the twisted cubic, and random maps
    from P^2 into P^3, P^4 and P^5."""
    specs = []
    shapes = {FP: ((1, 1), (1, 2), (2, 2), (1, 3), (2, 3)), QQ: ((1, 1), (1, 2), (2, 2))}
    for field, mus in shapes.items():
        for mu in mus:
            fam = make_family(
                FamilySpec("hilbert_burch", r=2, mu=mu, seed=4, prime=field.characteristic)
            )
            specs.append(rational_map(fam.forms))
    for m in (2, 3):
        fam = make_family(FamilySpec("dejonquieres", m=m))
        for a in (0, 1, 5, 12):
            specs.append(rational_map(specialized_family(fam, (a,)).forms))
    specs.append(rational_map(make_family(FamilySpec("pfaffian", r=4, seed=3)).forms))
    specs.append(mkmap(("x0", "x1", "x2"), "x0^2 x0*x1 x0*x2 x1^2 x1*x2 x2^2".split()))
    specs.append(mkmap(("x0", "x1"), "x0^3 x0^2*x1 x0*x1^2 x1^3".split()))
    rng = random.Random(8)
    ctx = RingCtx(("x0", "x1", "x2"), FP)
    for n in (4, 5, 6):
        for d in (1, 2):
            specs.append(rational_map([nonzero_random_form(ctx, rng, d) for _ in range(n)]))
    return specs


def _compose_power(forms, e):
    """The forms evaluated at (x0^e, ..., xr^e)."""
    return [
        Poly(g.ctx, {tuple(v * e for v in g.ctx.packing.unpack(m)): c for m, c in g.terms.items()})
        for g in forms
    ]


def _power_composed_maps(field):
    """Random maps precomposed with the e-th power map of the source,
    and a double cover of a quadric cone in P^3."""
    rng = random.Random(5 + field.characteristic)
    specs = []
    for nvars, e, d, n in (
        (2, 2, 1, 2), (2, 3, 1, 2), (2, 2, 2, 3), (2, 3, 2, 4), (2, 2, 3, 2), (2, 6, 1, 2),
        (3, 2, 1, 3), (3, 2, 1, 4), (3, 2, 2, 3),
    ):
        ctx = RingCtx(tuple("x%d" % i for i in range(nvars)), field)
        base = [nonzero_random_form(ctx, rng, d, density=1.0) for _ in range(n)]
        specs.append(rational_map(_compose_power(base, e)))
    ctx = RingCtx(("x0", "x1", "x2"), field)
    a, b, c = (nonzero_random_form(ctx, rng, 1, density=1.0) for _ in range(3))
    specs.append(rational_map([a * a, a * b, b * b, c * c]))
    return specs


def _sampled_or_marker(spec):
    got = sampled_degree(spec, trials=3, seed=1)
    return NOT_GENERICALLY_FINITE if got is None else got


class TestExactDegree:
    def test_families_match_sampling(self):
        for spec in _family_maps():
            assert degree_report(spec).deg_map == _sampled_or_marker(spec)

    @pytest.mark.parametrize("prime", [32003, 0, 7, 11])
    def test_power_composed_maps_match_sampling(self, prime):
        specs = _power_composed_maps(FieldSpec(prime))
        values = [degree_report(spec).deg_map for spec in specs]
        assert values == [_sampled_or_marker(spec) for spec in specs]
        # the power maps really raise the degree
        assert sum(1 for v in values if v != NOT_GENERICALLY_FINITE and v > 1) >= 8

    def test_map_from_a_point(self):
        # P^0 onto a point: the generic fiber is the whole source, one point
        spec = mkmap(("x0",), ["x0^2", "2*x0^2"])
        rep = degree_report(spec)
        assert (rep.deg_map, rep.deg_image, rep.dim_image) == (1, 1, 0)

    def test_quadric_cone_double_cover(self):
        spec = mkmap(("x0", "x1", "x2"), ["x0^2", "x0*x1", "x1^2", "x2^2"])
        rep = degree_report(spec)
        assert (rep.deg_map, rep.deg_image, rep.dim_image) == (2, 2, 2)

    def test_answer_ignores_seed_and_trials(self):
        spec = mkmap(("x0", "x1"), ["x0^3", "x0*x1^2 + x1^3"])
        one = degree_map(spec, trials=1, seed=1)
        assert one == degree_map(spec, trials=9, seed=2) == (3, ())

    def test_report_reuses_the_image_basis(self, monkeypatch):
        runs = count_buchberger_runs(monkeypatch)
        forms = make_family(FamilySpec("hilbert_burch", r=2, mu=(2, 2), seed=8)).forms
        # the Jacobian certifies the image with no run; read off the Rees
        # basis, it costs the one t-run
        rational_map(forms).image
        assert runs == []
        rees_route(forms).image
        alone = len(runs)
        runs.clear()
        # the report reads the degree off that basis too
        assert degree_report(rees_route(forms)).deg_map == 4
        assert len(runs) == alone == 1

    def test_report_reads_the_image_once(self, monkeypatch):
        # degree_map reads the image the report read, off the context of
        # the Rees route
        calls = []
        inner = ratmap._x_free_leads

        def spy(*args, **kwargs):
            calls.append(1)
            return inner(*args, **kwargs)

        monkeypatch.setattr(ratmap, "_x_free_leads", spy)
        forms = make_family(FamilySpec("hilbert_burch", r=2, mu=(1, 2), seed=8)).forms
        assert degree_report(rees_route(forms)).deg_map == 2
        assert len(calls) == 1

    @pytest.mark.parametrize("prime", [7, 32003, 0], ids=["F_7", "F_32003", "QQ"])
    def test_independent_forms_with_s_below_r_make_no_run(self, prime, monkeypatch):
        runs = count_buchberger_runs(monkeypatch)
        field = FieldSpec(prime)
        spec = mkmap(("x0", "x1", "x2", "x3"), ["x0^2 + x3^2", "x1*x2", "x2^2"], field)
        rep = degree_report(spec)
        assert runs == []
        assert rep == DegreeReport(NOT_GENERICALLY_FINITE, 1, 2, 3, None)
        assert rep == degree_report(rees_route(spec.forms))
        # s = r with no linear syzygy: the Hilbert-Burch rule certifies
        # it from the Koszul complex of two coprime forms, with no run
        runs.clear()
        assert degree_report(mkmap(("x0", "x1"), ["x0^2", "x1^2"], field)).deg_map == 2
        assert runs == []


class TestDegreeReport:
    def test_pfaffian_over_q(self):
        # the 5x5 linear Pfaffian map is birational onto P^4 over Q too
        fam = make_family(FamilySpec("pfaffian", r=4, D=1, seed=3, prime=0))
        rep = degree_report(rational_map(fam.forms))
        assert (rep.deg_map, rep.dim_image, rep.deg_image) == (1, 4, 1)

    def test_conic_report(self):
        spec = mkmap(("x0", "x1"), ["x0^2", "x0*x1", "x1^2"])
        rep = degree_report(spec)
        assert rep.deg_map == 1
        assert rep.deg_image == 2
        assert rep.dim_image == 1
        assert rep.analytic_spread == 2
        assert rep.sfib_multiplicity == 2

    def test_squares_report(self):
        spec = mkmap(("x0", "x1"), ["x0^2", "x1^2"])
        rep = degree_report(spec)
        assert rep.deg_map == 2
        assert rep.deg_image == 1
        assert rep.sfib_multiplicity == 2

    def test_collapsed_report_markers(self):
        spec = mkmap(("x0", "x1"), ["x0^2", "x0^2 + x0^2"])
        rep = degree_report(spec)
        assert rep.deg_map == NOT_GENERICALLY_FINITE
        assert rep.dim_image == 0


    def test_one_basis_per_map(self, monkeypatch):
        # the image and the degree are both read off the Rees basis: one
        # Buchberger run per map, and no fiber cone ideal is built; the
        # Pfaffian map is certified birational and makes none, and so are
        # the squares, by the Koszul exit of the Hilbert-Burch rule; the
        # conic of P^2 fails that rule with no height computed
        def forbidden(*args, **kwargs):
            raise AssertionError("fiber_cone_ideal called")

        monkeypatch.setattr(blowup_mod, "fiber_cone_ideal", forbidden)
        monkeypatch.setattr(ratmap, "fiber_cone_ideal", forbidden)
        runs = count_buchberger_runs(monkeypatch)
        pfaffian = make_family(FamilySpec("pfaffian", r=4, D=1, seed=3, prime=0)).forms
        specs = [
            (mkmap(("x0", "x1", "x2"), ["x0^2", "x0*x1", "x1^2", "x2^2"]), 1),
            (mkmap(("x0", "x1"), ["x0^2", "x1^2"], QQ), 0),
            (mkmap(("x0", "x1", "x2"), ["x0^2", "x0*x1", "x1^2"]), 1),
            (rational_map(pfaffian), 0),
        ]
        for spec, want in specs:
            for answer in (degree_report, j_multiplicity):
                runs.clear()
                # a fresh context each, as one holds its Rees basis
                answer(rational_map(spec.forms))
                assert len(runs) == want


def _maps_by_name():
    return {
        "identity": mkmap(("x0", "x1", "x2", "x3"), ["x0", "x1", "x2", "x3"]),
        "cremona": mkmap(("x0", "x1", "x2"), ["x1*x2", "x0*x2", "x0*x1"]),
        "twisted cubic": mkmap(("x0", "x1"), ["x0^3", "x0^2*x1", "x0*x1^2", "x1^3"]),
        "frobenius": mkmap(("x0", "x1"), ["x0^7", "x1^7"], FieldSpec(7)),
        "common factor": mkmap(("x0", "x1", "x2"), ["x0^2", "x0*x1", "x0*x2"]),
    }


class TestProjectiveDegrees:
    @pytest.mark.parametrize("prime", [32003, 0])
    def test_pfaffian(self, prime):
        fam = make_family(FamilySpec("pfaffian", r=4, D=1, seed=3, prime=prime))
        assert projective_degrees(rational_map(fam.forms)) == (1, 2, 4, 3, 1)

    @pytest.mark.parametrize(
        "name, degrees, deg_map",
        [
            ("identity", (1, 1, 1, 1), 1),
            ("cremona", (1, 2, 1), 1),
            ("twisted cubic", (1, 3), 1),
            # purely inseparable of degree 7 onto P^1
            ("frobenius", (1, 7), 7),
            # x0 * (x0, x1, x2): the identity with a codimension-1 base locus
            ("common factor", (1, 1, 1), 1),
        ],
    )
    def test_known_classes(self, name, degrees, deg_map):
        spec = _maps_by_name()[name]
        assert projective_degrees(spec) == degrees
        assert degree_map(spec) == (deg_map, ())
        assert generic_fiber_degree(spec) == deg_map

    def test_common_factor_keeps_the_form_degree(self):
        spec = _maps_by_name()["common factor"]
        assert spec.degree == 2
        rep = degree_report(spec)
        assert (rep.deg_map, rep.deg_image, rep.sfib_multiplicity) == (1, 1, 1)

    def test_fewer_forms_than_coordinates(self):
        # (x0 : x1) on P^2: fibers are lines, which meet a general line once
        spec = mkmap(("x0", "x1", "x2"), ["x0", "x1"])
        assert projective_degrees(spec) == (1, 1, 0)
        assert degree_map(spec) == (NOT_GENERICALLY_FINITE, ())

    def test_single_form(self):
        # s = 0: the graph is the whole source
        spec = mkmap(("x0", "x1", "x2"), ["x0^2 + x1*x2"], QQ)
        assert projective_degrees(spec) == (1, 0, 0)
        assert degree_map(spec) == (NOT_GENERICALLY_FINITE, ())
        point = mkmap(("x0",), ["x0^3"])
        assert projective_degrees(point) == (1,)
        assert degree_map(point) == (1, ())

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        prime=st.sampled_from([7, 32003, 0]),
        nvars=st.integers(2, 3),
        nforms=st.integers(1, 4),
        deg=st.integers(1, 2),
        factor=st.booleans(),
    )
    def test_top_degree_is_the_product(self, seed, prime, nvars, nforms, deg, factor):
        # d_r = deg F * deg Y, with deg F from the generic-fiber oracle and
        # the image from the block basis of the fiber cone
        rng = random.Random(seed)
        ctx = RingCtx(tuple("x%d" % i for i in range(nvars)), FieldSpec(prime))
        forms = [nonzero_random_form(ctx, rng, deg) for _ in range(nforms)]
        if factor:
            h = nonzero_random_form(ctx, rng, 1)
            forms = [h * g for g in forms]
        spec = rational_map(forms)
        degrees = projective_degrees(spec)
        assert len(degrees) == nvars and degrees[0] == 1
        image = dim_degree(rational_map(forms).fiber)
        assert image == rational_map(forms).image
        oracle = generic_fiber_degree(spec)
        assert degree_map(spec) == (oracle, ())
        if oracle == NOT_GENERICALLY_FINITE:
            assert degrees[-1] == 0
        else:
            assert degrees[-1] == oracle * image.degree
            assert degree_report(spec).sfib_multiplicity == degrees[-1]


class TestBirationalCertificate:
    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.sampled_from(ORACLE_SHAPES),
        prime=st.sampled_from([2, 7, 32003, 0]),
        seed=st.integers(0, 10**6),
    )
    @example(shape="dependent", prime=32003, seed=0)
    @example(shape="dependent", prime=0, seed=0)
    @example(shape="hb12", prime=32003, seed=4)
    @example(shape="hb12", prime=0, seed=4)
    def test_certified_report_is_the_rees_report(self, shape, prime, seed):
        try:
            spec = oracle_map(shape, prime, seed)
        except RingError:
            assume(False)
        forms = list(spec.forms)
        with pytest.MonkeyPatch.context() as mp:
            runs = count_buchberger_runs(mp)
            certified = spec.birational
            rep = degree_report(spec)
        if certified:
            assert runs == []
            assert rep == DegreeReport(1, 1, spec.r, spec.r + 1, 1)
        assert rep == degree_report(rees_route(forms))

    @pytest.mark.parametrize("prime", [7, 32003, 0], ids=["F_7", "F_32003", "QQ"])
    def test_known_maps(self, prime):
        field = FieldSpec(prime)
        birational = [
            mkmap(("x0", "x1", "x2"), ["x1*x2", "x0*x2", "x0*x1"], field),
            mkmap(("x0", "x1", "x2", "x3"), ["x0", "x1", "x2", "x3"], field),
            oracle_map("hb11", prime, 4),
            oracle_map("pf", prime, 3),
        ]
        # three squares (degree 4, no linear syzygy), a Hilbert-Burch map
        # of degree 2 with one linear syzygy, and the dependent conic map,
        # whose two linear syzygies have rank 1 at every image point
        others = [
            mkmap(("x0", "x1", "x2"), ["x0^2", "x1^2", "x2^2"], field),
            oracle_map("hb12", prime, 4),
            oracle_map("dependent", prime, 0),
        ]
        assert [s.birational for s in birational] == [True] * 4
        assert [s.birational for s in others] == [False] * 3
        # s != r proves nothing
        assert not rational_map([parse_poly("x0", RingCtx(("x0", "x1"), field))]).birational

    @pytest.mark.parametrize("prime", [32003, 0], ids=["F_32003", "QQ"])
    def test_degree_map_and_is_birational_make_no_run(self, prime, monkeypatch):
        runs = count_buchberger_runs(monkeypatch)
        cremona = mkmap(("x0", "x1", "x2"), ["x1*x2", "x0*x2", "x0*x1"], FieldSpec(prime))
        for spec in (cremona, oracle_map("pf", prime, 3)):
            assert degree_map(spec) == (1, ())
            assert is_birational(spec)
            assert j_multiplicity(spec) == spec.degree
        assert runs == []

    def test_report_checks_the_certificate_once(self, monkeypatch):
        # the report asks once and hands the verdict to degree_map
        calls = []
        inner = ratmap.jacobian_dual_birational
        monkeypatch.setattr(
            ratmap, "jacobian_dual_birational", lambda *args: calls.append(1) or inner(*args)
        )
        assert degree_report(oracle_map("hb11", 32003, 4)).deg_map == 1
        assert calls == [1]


class TestSerialization:
    def test_round_trip(self):
        spec = mkmap(("x0", "x1"), ["x0^2", "x0*x1", "x1^2"])
        text = serialize_map(spec)
        again = parse_map_file(text)
        assert again.forms == spec.forms

    def test_comments_and_blank_lines(self):
        text = "# demo\nring x0 x1 over 32003 order grevlex\n\nmap: x0^2, x1^2\n"
        spec = parse_map_file(text)
        assert spec.degree == 2

    def test_bad_file(self):
        with pytest.raises(RingError):
            parse_map_file("ring x0 x1 over 0 order grevlex\n")
        with pytest.raises(RingError):
            parse_map_file("ring x0 x1 over 0 order grevlex\nx0, x1\n")
