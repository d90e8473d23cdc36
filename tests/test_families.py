import json
import random

import pytest

from conftest import count_buchberger_runs
from reesdeg import blowup, families
from reesdeg.blowup import specialization_compare
from reesdeg.cli import main
from reesdeg.conditions import PresentationMatrix, check_Gm, determinant
from reesdeg.families import (
    ELL_NOT_MAXIMAL,
    Family,
    FamilySpec,
    dense_form,
    j_multiplicity,
    make_family,
    pfaffian,
    signed_maximal_minors,
    specialization_sweep,
    specialized_family,
)
from reesdeg.ratmap import degree_report, rational_map
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
        # a family file is read by the CLI; make_family must not build
        # the de Jonquieres family in its place
        with pytest.raises(RingError, match="no recipe"):
            make_family(FamilySpec("file"))


class TestHilbertBurch:
    def test_shape_and_degrees(self):
        fam = make_family(FamilySpec("hilbert_burch", r=2, mu=(1, 2), seed=1))
        assert fam.matrix.nrows == 3 and fam.matrix.ncols == 2
        assert len(fam.forms) == 3
        assert fam.degree == 3
        for g in fam.forms:
            assert g.bidegree() == (3, 0)

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
        assert fam.degree == 2
        for g in fam.forms:
            assert g.bidegree() == (2, 0)

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
        assert fam.degree == 3
        assert len(fam.forms) == 3

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

    def test_sweep_reuses_generic_rees(self):
        fam = make_family(FamilySpec("dejonquieres", m=2))
        specialization_sweep(fam, [1])
        cached = fam._generic_rees
        specialization_sweep(fam, [2])
        assert fam._generic_rees is cached

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
        iso = specialization_compare(list(fam.forms), (1,))
        assert iso.kind == "isomorphism"
        drop = specialization_compare(list(fam.forms), (0,))
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
        bare = Family(fam.spec, fam.ctx, None, fam.forms, fam.degree)
        rows = specialization_sweep(bare, [1])
        assert rows[0].g_condition is None
        assert rows[0].deg_map == 2


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
        runs = count_buchberger_runs(monkeypatch)
        ctx = RingCtx(("x", "y"), FP)
        spec = rational_map([parse_poly("x^2", ctx), parse_poly("y^2", ctx)])
        assert j_multiplicity(spec) == 4
        assert len(runs) == 1
        runs.clear()
        flat = rational_map([parse_poly("x^2 + y^2", ctx)])
        assert j_multiplicity(flat) == ELL_NOT_MAXIMAL
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
