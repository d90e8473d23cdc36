import json
import random

import pytest

import pfaffian_oracle
import sweep_oracle
import certificate
from conftest import count_buchberger_runs, random_form
from reesdeg import blowup, families, groebner, ratmap
from reesdeg.blowup import specialization_compare
from reesdeg.cli import main
from reesdeg.conditions import PresentationMatrix, check_Gm, determinant, signed_maximal_minors
from reesdeg.families import (
    ELL_NOT_MAXIMAL,
    Family,
    FamilySpec,
    dense_form,
    j_multiplicity,
    make_family,
    pfaffian,
    specialization_sweep,
    specialized_family,
)
from reesdeg.ratmap import degree_report, rational_map, serialize_map
from reesdeg.ring import FieldSpec, Poly, RingCtx, RingError, parse_poly

FP = FieldSpec(32003)


def alternating(ctx, n, deg, rng):
    entries = [[Poly.zero(ctx) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            f = dense_form(ctx, deg, rng)
            entries[i][j] = f
            entries[j][i] = -f
    return PresentationMatrix(ctx, entries)


class TestFamilySpec:
    def test_hilbert_burch_needs_degrees(self):
        with pytest.raises(RingError):
            FamilySpec("hilbert_burch", r=2, mu=())
        with pytest.raises(RingError):
            FamilySpec("hilbert_burch", r=2, mu=(2, 1))
        with pytest.raises(RingError):
            FamilySpec("hilbert_burch", r=2, mu=(0, 1))

    def test_pfaffian_needs_even_r(self):
        with pytest.raises(RingError):
            FamilySpec("pfaffian", r=3)
        with pytest.raises(RingError):
            FamilySpec("pfaffian", r=2)
        FamilySpec("pfaffian", r=4)

    def test_dejonquieres_m(self):
        with pytest.raises(RingError):
            FamilySpec("dejonquieres", m=1)

    def test_unknown_kind(self):
        with pytest.raises(RingError):
            FamilySpec("elephant")

    def test_file_kind_has_no_recipe(self):
        # the CLI reads a family file straight into a `Family`, so no
        # recipe kind stands for it
        with pytest.raises(RingError, match="unknown family kind"):
            FamilySpec("file")


class TestHilbertBurch:
    def test_shape_and_degrees(self):
        fam = make_family(FamilySpec("hilbert_burch", r=2, mu=(1, 2), seed=1))
        assert fam.matrix.nrows == 3 and fam.matrix.ncols == 2
        assert len(fam.forms) == 3
        for g in fam.forms:
            assert g.bidegree(fam.ctx.nvars) == (3, 0)

    def test_syzygy(self):
        # columns of the matrix annihilate the signed minor vector
        fam = make_family(FamilySpec("hilbert_burch", r=2, mu=(1, 1), seed=4))
        for j in range(fam.matrix.ncols):
            total = Poly.zero(fam.ctx)
            for i in range(fam.matrix.nrows):
                total = total + fam.matrix.entries[i][j] * fam.forms[i]
            assert not total

    def test_degree_law_spot(self):
        fam = make_family(FamilySpec("hilbert_burch", r=2, mu=(1, 2), seed=1))
        rep = degree_report(rational_map(fam.forms))
        assert rep.deg_map * rep.deg_image == 2

    def test_minors_of_handmade_matrix(self):
        ctx = RingCtx(("x", "y", "z"), FieldSpec(0))
        rows = [["x", "0"], ["-y", "x"], ["0", "y"]]
        M = PresentationMatrix(
            ctx, [[parse_poly(e, ctx) for e in row] for row in rows]
        )
        g = signed_maximal_minors(M)
        assert g[0] == parse_poly("-y^2", ctx)
        assert g[1] == parse_poly("-x*y", ctx)
        assert g[2] == parse_poly("x^2", ctx)


class TestPfaffian:
    def test_square_is_determinant(self):
        rng = random.Random(6)
        for n in (2, 4):
            for char in (0, 32003):
                ctx = RingCtx(("x", "y"), FieldSpec(char))
                M = alternating(ctx, n, 1, rng)
                pf = pfaffian(M)
                assert pf * pf == determinant(M.entries)

    def test_odd_size_rejected(self):
        rng = random.Random(6)
        ctx = RingCtx(("x", "y"), FieldSpec(0))
        M = alternating(ctx, 3, 1, rng)
        with pytest.raises(RingError):
            pfaffian(M)

    def test_non_alternating_rejected(self):
        ctx = RingCtx(("x", "y"), FieldSpec(0))
        x = parse_poly("x", ctx)
        M = PresentationMatrix(ctx, [[x, x], [x, x]])
        with pytest.raises(RingError):
            pfaffian(M)

    def test_family_shape(self):
        fam = make_family(FamilySpec("pfaffian", r=4, D=1, seed=3))
        assert fam.matrix.nrows == 5
        assert len(fam.forms) == 5
        for g in fam.forms:
            assert g.bidegree(fam.ctx.nvars) == (2, 0)

    @pytest.mark.parametrize("prime", [7, 32003, 0], ids=["F_7", "F_32003", "QQ"])
    def test_family_forms_match_the_recursion(self, prime):
        # the benchmark keys its recorded answers on these map files
        specs = [FamilySpec("pfaffian", r=4, D=1, seed=seed, prime=prime) for seed in range(5)]
        specs += [FamilySpec("pfaffian", r=4, D=2, seed=5, prime=prime)]
        specs += [FamilySpec("pfaffian", r=6, D=1, seed=6, prime=prime)]
        for spec in specs:
            fam = make_family(spec)
            old = pfaffian_oracle.submaximal_pfaffians(fam.matrix)
            assert serialize_map(rational_map(fam.forms)) == serialize_map(rational_map(old))

    def test_chain_matches_the_recursion(self):
        # sparse alternating matrices of mixed degree, sizes 2 to 6
        rng = random.Random(12)
        for char in (2, 7, 0):
            ctx = RingCtx(("x", "y", "z"), FieldSpec(char))
            for n in (2, 4, 6):
                entries = [[Poly.zero(ctx)] * n for _ in range(n)]
                for i in range(n):
                    for j in range(i + 1, n):
                        f = random_form(ctx, rng, rng.randint(1, 2), density=0.5)
                        entries[i][j], entries[j][i] = f, -f
                M = PresentationMatrix(ctx, entries)
                assert pfaffian(M) == pfaffian_oracle.pfaffian(M.entries)

    def test_pfaffian_syzygy(self):
        fam = make_family(FamilySpec("pfaffian", r=4, D=1, seed=3))
        for i in range(5):
            total = Poly.zero(fam.ctx)
            for j in range(5):
                total = total + fam.matrix.entries[i][j] * fam.forms[j]
            assert not total


class TestDeJonquieres:
    def test_parametric_construction(self):
        fam = make_family(FamilySpec("dejonquieres", m=2))
        assert fam.parametric
        assert fam.ctx.var_names == ("x", "y", "z", "a")
        # the parameter a does not count towards the degree
        assert [g.bidegree(3) for g in fam.forms] == [(3, 0)] * 3

    def test_random_specialized_draws_nonzero(self):
        a = random.Random(9).randrange(1, 32003)
        fam = specialized_family(make_family(FamilySpec("dejonquieres", m=2)), (a,))
        assert not fam.parametric
        assert fam.ctx.var_names == ("x", "y", "z")
        assert fam.matrix.entries[2][0] == Poly.var(fam.ctx, 2).scale(a)

    def test_sweep_frozen_values(self):
        fam = make_family(FamilySpec("dejonquieres", m=2))
        rows = specialization_sweep(fam, [0, 1])
        assert [r.status for r in rows] == ["ok", "ok"]
        assert [r.deg_map for r in rows] == [1, 2]
        assert [r.deg_image for r in rows] == [1, 1]
        assert [r.gr_dim for r in rows] == [4, 3]
        assert [r.g_condition for r in rows] == [False, True]

    def test_sweep_reuses_generic_rees(self, monkeypatch):
        fam = make_family(FamilySpec("dejonquieres", m=2))
        packings = []
        inner = groebner._buchberger

        def spy(seeds, pk, *rest):
            packings.append(pk)
            return inner(seeds, pk, *rest)

        monkeypatch.setattr(groebner, "_buchberger", spy)
        def facts():
            return fam.graph, fam.generic_rees, fam.lead_coefficients

        specialization_sweep(fam, [1])
        first = facts()
        specialization_sweep(fam, [2])
        # a = 0 is uncertified: its gr ideal and its member's Rees ideal
        # take their own runs, in rings without the parameter
        assert fam.gr_dimension((0,)) == 4
        fam.member((0,)).rees
        assert len(packings) == 3
        # the one run in the generic graph's ring is the generic t-run
        assert packings.count(fam.graph.ctx.packing) == 1
        assert all(a is b for a, b in zip(facts(), first))

    def test_sweep_specializes_the_forms_once_per_point(self, monkeypatch, capsys):
        calls = []
        inner = blowup.specialize_forms

        def spy(forms, point):
            calls.append(point)
            return inner(forms, point)

        # families calls it for the member, blowup for the gr dimension
        monkeypatch.setattr(blowup, "specialize_forms", spy)
        monkeypatch.setattr(families, "specialize_forms", spy)
        assert main(["sweep", "--family", "dejonquieres", "--points", "1,2,3"]) == 0
        assert calls == [(1,), (2,), (3,)]
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert [r["gr_dim"] for r in rows] == [3, 3, 3]

    def test_specialization_kind_jump(self):
        fam = make_family(FamilySpec("dejonquieres", m=2))
        iso = specialization_compare(list(fam.forms), (1,), fam.generic_rees)
        assert iso.kind == "isomorphism"
        drop = specialization_compare(list(fam.forms), (0,), fam.generic_rees)
        assert drop.kind == "proper_kernel"
        assert str(drop.witness) == "z*y0^2 + y*y0*y1 + z*y1^2 + z*y1*y2"

    def test_sweep_needs_parametric(self):
        fam = specialized_family(make_family(FamilySpec("dejonquieres", m=2)), (5,))
        with pytest.raises(RingError):
            specialization_sweep(fam, [0])

    def test_specialized_family_keeps_matrix(self):
        fam = make_family(FamilySpec("dejonquieres", m=3))
        sp = specialized_family(fam, (5,))
        assert sp.matrix is not None
        assert check_Gm(sp.matrix, 3).verdict is True

    def test_matrixless_family_tolerated(self):
        fam = make_family(FamilySpec("dejonquieres", m=2))
        bare = Family(fam.ctx, None, fam.forms)
        rows = specialization_sweep(bare, [1])
        assert rows[0].g_condition is None
        assert rows[0].deg_map == 2


def outcome(fn):
    """fn() or, when it raises RingError, the message."""
    try:
        return fn()
    except RingError as exc:
        return str(exc)


class TestCertifiedSweep:
    """Points where no leading coefficient of the generic graph basis
    vanishes take their answers from the specialized generic basis; the
    rows equal those of the per-point route, `tests/sweep_oracle.py`."""

    WIDE = [0, 1, -1, 2, 5, 100]

    def same_rows(self, fam, points):
        # the same family with nothing cached
        oracle = Family(fam.ctx, fam.matrix, fam.forms)
        assert specialization_sweep(fam, points) == sweep_oracle.sweep_rows(oracle, points)
        for pt in [(p,) if isinstance(p, int) else p for p in points]:
            # a point that kills a form fails with the same message
            assert outcome(lambda: fam.gr_dimension(pt)) == outcome(
                lambda: sweep_oracle.gr_dim_rows(oracle, [pt])[0]["gr_dim"])

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_every_point_of_f7(self, m):
        self.same_rows(make_family(FamilySpec("dejonquieres", m=m, prime=7)), list(range(7)))

    def test_every_point_of_f101(self, verified_bases):
        # every certified basis passes the certificate, and its rows
        # vanish under y -> g
        fam = make_family(FamilySpec("dejonquieres", m=2, prime=101))
        self.same_rows(fam, list(range(101)))
        certified = [(a,) for a in range(101) if fam.special_rees((a,)) is not None]
        assert len(certified) == 100
        for pt in certified:
            certificate.certify_rees(fam.member(pt).forms, fam.special_rees(pt))

    @pytest.mark.parametrize("prime", [32003, 0], ids=["F_32003", "QQ"])
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_wide_points(self, m, prime):
        self.same_rows(make_family(FamilySpec("dejonquieres", m=m, prime=prime)), self.WIDE)

    @pytest.mark.parametrize("prime", [7, 0], ids=["F_7", "QQ"])
    def test_two_parameter_file_family(self, prime):
        # points on and off the locus of its leading coefficients, and
        # points that kill a form
        ctx = RingCtx(("x", "y", "z", "a", "b"), FieldSpec(prime), n_params=2)
        texts = ("a*x^2 + b*y^2", "x*y + a*z^2", "b*y*z + x^2 - z^2")
        forms = tuple(parse_poly(t, ctx) for t in texts)
        fam = Family(ctx, None, forms)
        points = [(a, b) for a in range(-2, 5) for b in range(-2, 5)]
        self.same_rows(fam, points)
        assert any(fam.special_rees(pt) is None for pt in points)
        assert any(fam.special_rees(pt) is not None for pt in points)

    @pytest.mark.parametrize("prime", [7, 0], ids=["F_7", "QQ"])
    def test_leads_that_meet_are_minimalized(self, prime, verified_bases):
        # generic leads a*m and m*m' both lie in the basis; at a != 0 the
        # second is redundant, and the certified basis leaves it out
        ctx = RingCtx(("x", "y", "z", "a"), FieldSpec(prime), n_params=1)
        texts = ("y*z*a + 4*x^2", "x^2*a + 5*z^2", "6*z^2*a + 6*x^2 + 3*x*z + 2*y*z")
        forms = tuple(parse_poly(t, ctx) for t in texts)
        fam = Family(ctx, None, forms)
        self.same_rows(fam, list(range(-3, 7)))
        generic = fam.generic_rees
        certified = [(a,) for a in range(1, 7) if fam.special_rees((a,)) is not None]
        assert any(
            len(fam.special_rees(pt).gens) < len(blowup.specialize_rees(generic, pt).gens)
            for pt in certified
        )
        for pt in certified:
            certificate.certify_rees(fam.member(pt).forms, fam.special_rees(pt))

    def test_dejonquieres_leading_coefficients(self):
        # the candidates for a drop are the roots of a, ..., a^(2m-2): a = 0
        for m in (2, 3, 4):
            for prime in (7, 32003, 0):
                fam = make_family(FamilySpec("dejonquieres", m=m, prime=prime))
                coeffs = [str(c) for c in fam.lead_coefficients]
                assert coeffs == ["a"] + ["a^%d" % k for k in range(2, 2 * m - 1)]

    def test_certified_point_makes_no_run(self, monkeypatch, capsys):
        fam = make_family(FamilySpec("dejonquieres", m=2))
        bare = Family(fam.ctx, None, fam.forms)
        runs = count_buchberger_runs(monkeypatch)
        rows = specialization_sweep(bare, [5, 1])
        # the generic graph basis is the one run; no Rees or gr basis
        # is built at a = 5 or a = 1
        assert len(runs) == 1
        assert [(r.deg_map, r.gr_dim) for r in rows] == [(2, 3), (2, 3)]
        assert bare.gr_dimension((7,)) == 3 and len(runs) == 1
        runs.clear()
        assert main(["gr-dim", "--family", "dejonquieres", "--points", "5,6,7"]) == 0
        capsys.readouterr()
        assert len(runs) == 1

    def test_zero_takes_the_full_route(self, monkeypatch):
        fam = make_family(FamilySpec("dejonquieres", m=2))
        bare = Family(fam.ctx, None, fam.forms)
        bare.generic_rees
        assert bare.special_rees((0,)) is None
        runs = count_buchberger_runs(monkeypatch)
        rows = specialization_sweep(bare, [0])
        # the member's own Rees basis and its gr basis; the matrix it
        # recovers has entries that all vanish at (0:0:1), which fails
        # G_3 with no height computed
        assert len(runs) == 2
        assert [(r.deg_map, r.gr_dim) for r in rows] == [(1, 4)]
        drop = specialization_compare(list(fam.forms), (0,), fam.generic_rees)
        assert str(drop.witness) == "z*y0^2 + y*y0*y1 + z*y1^2 + z*y1*y2"


class TestJMultiplicity:
    def test_two_squares(self):
        ctx = RingCtx(("x", "y"), FP)
        spec = rational_map([parse_poly("x^2", ctx), parse_poly("y^2", ctx)])
        assert j_multiplicity(spec) == 4

    def test_square_of_maximal_ideal(self):
        ctx = RingCtx(("x", "y"), FP)
        spec = rational_map(
            [parse_poly(t, ctx) for t in ("x^2", "x*y", "y^2")]
        )
        assert j_multiplicity(spec) == 4

    def test_principal_marker(self):
        ctx = RingCtx(("x", "y"), FP)
        spec = rational_map([parse_poly("x^2 + y^2", ctx)])
        assert j_multiplicity(spec) == ELL_NOT_MAXIMAL

    def test_image_computed_once(self, monkeypatch):
        # the image and the degree are read off the one Rees basis: one
        # Buchberger run per map, and the fiber cone ideal is never built
        def forbidden(*args, **kwargs):
            raise AssertionError("fiber_cone_ideal called")

        monkeypatch.setattr(blowup, "fiber_cone_ideal", forbidden)
        monkeypatch.setattr(ratmap, "fiber_cone_ideal", forbidden)
        runs = count_buchberger_runs(monkeypatch)
        ctx = RingCtx(("x", "y"), FP)
        # two coprime forms of P^1 are certified by the Koszul exit of the
        # Hilbert-Burch rule, with no run; x*(x^2, y^2) has a common factor
        # and no linear syzygy, so both s = r rules decline it
        spec = rational_map([parse_poly("x^2", ctx), parse_poly("y^2", ctx)])
        assert j_multiplicity(spec) == 4
        assert runs == []
        spec = rational_map([parse_poly("x^3", ctx), parse_poly("x*y^2", ctx)])
        assert j_multiplicity(spec) == 6
        assert len(runs) == 1
        runs.clear()
        # one form, s = 0 < r: its Jacobian certifies that the image is
        # P^0, so the report needs no Rees basis
        flat = rational_map([parse_poly("x^2 + y^2", ctx)])
        assert j_multiplicity(flat) == ELL_NOT_MAXIMAL
        assert runs == []
        # a conic of P^2 needs its Rees basis, the one run: the matrix the
        # Hilbert-Burch rule recovers has entries that all vanish at
        # (0:0:1), so it fails G_3 with no height computed
        plane = RingCtx(("x", "y", "z"), FP)
        conic = rational_map([parse_poly(t, plane) for t in ("x^2", "x*y", "y^2")])
        assert j_multiplicity(conic) == ELL_NOT_MAXIMAL
        assert len(runs) == 1


class TestSubmaximalPfaffians:
    def test_handmade_four_by_four(self):
        # classic: Pf of the generic 4x4 alternating matrix is
        # a*f - b*e + c*d for entries (a..f) above the diagonal
        ctx = RingCtx(("a", "b", "c", "d", "e", "f"), FieldSpec(0))
        a, b, c, d, e, f = (Poly.var(ctx, i) for i in range(6))
        z = Poly.zero(ctx)
        M = PresentationMatrix(
            ctx,
            [
                [z, a, b, c],
                [-a, z, d, e],
                [-b, -d, z, f],
                [-c, -e, -f, z],
            ],
        )
        assert pfaffian(M) == a * f - b * e + c * d
