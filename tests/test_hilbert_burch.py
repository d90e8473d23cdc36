"""The Hilbert-Burch route of `degree`, `jmult` and `sfib-hf`: a map whose
ideal has a recovered (r+1) x r presentation matrix satisfying G_{r+1}
has degree prod mu_j (`blowup.hilbert_burch_presentation`), and its
saturated fiber cone is read off that matrix (`blowup.hilbert_burch_sfib`).
Wherever the route answers, its answers are the Rees route's and the
saturation route's; the maps it must decline take the Rees route; the
Koszul exit for r <= 2 certifies what it can before the search ends, and
leaves the rest to it; and each check of `blowup.presents_linear_type`
is shown needed by a matrix that passes all the others."""

import random
from itertools import islice

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import reesdeg.blowup as blowup
import reesdeg.ratmap as ratmap
from conftest import count_buchberger_runs, random_form
from reesdeg.blowup import hilbert_burch_sfib, presents_linear_type, rees_ideal, specialize_forms
from reesdeg.conditions import PresentationMatrix, check_Gm, column_degrees, signed_maximal_minors
from reesdeg.families import FamilySpec, dense_form, j_multiplicity, make_family
from reesdeg.ratmap import (
    DegreeReport,
    degree_report,
    projective_degrees,
    rational_map,
    sfib_hilbert_function,
)
from reesdeg.ring import FieldSpec, Poly, RingCtx, RingError, parse_poly
from sfib_oracle import saturated_power_dim

FIELDS = [2, 7, 32003, 0]


def rees_held(forms):
    """The context of the map of `forms` holding its Rees ideal, so that
    every answer is read off the Rees basis."""
    spec = rational_map(forms)
    spec.hold_rees(rees_ideal(list(forms)))
    return spec


def elementary(mu):
    """(e_0, ..., e_r), the elementary symmetric functions of mu."""
    e = [1] + [0] * len(mu)
    for m in mu:
        for i in range(len(mu), 0, -1):
            e[i] += e[i - 1] * m
    return tuple(e)


def substituted(forms, images):
    """`forms` with variable k replaced by the form images[k]."""
    out = []
    for g in forms:
        total = Poly.zero(g.ctx)
        for m, c in g.terms.items():
            term = Poly.constant(g.ctx, c)
            for k, e in enumerate(g.ctx.packing.unpack(m)):
                term = term * images[k].pow(e)
            total = total + term
        out.append(total)
    return out


def sheared(ctx, forms):
    """`forms` after x_k -> x_k + (k+1)*x_last for k < last, which moves
    every point with x_last = 1 off the coordinate points."""
    n = ctx.nvars
    last = Poly.var(ctx, n - 1)
    images = [Poly.var(ctx, k) + last.scale(k + 1) for k in range(n - 1)] + [last]
    return substituted(forms, images)


def hilbert_burch_matrix(prime, mu, seed):
    """An (r+1) x r matrix over P^r whose column j holds random forms of
    degree mu_j, some of their terms left out: over F_2 the families'
    dense forms, every coefficient 1, have equal rows and no map."""
    ctx = RingCtx(tuple("x%d" % i for i in range(len(mu) + 1)), FieldSpec(prime))
    rng = random.Random(seed)
    return PresentationMatrix(
        ctx, [[random_form(ctx, rng, m) for m in mu] for _ in range(len(mu) + 1)]
    )


def cremona_matrix(prime):
    """The Hilbert-Burch matrix of x1*x2, x0*x2, x0*x1 up to sign."""
    ctx = RingCtx(("x0", "x1", "x2"), FieldSpec(prime))
    x0, x1, x2 = (Poly.var(ctx, k) for k in range(3))
    zero = Poly.zero(ctx)
    return PresentationMatrix(ctx, [[x0, zero], [-x1, x1], [zero, -x2]])


def conic_of_p2(prime):
    ctx = RingCtx(("x0", "x1", "x2"), FieldSpec(prime))
    return ctx, [parse_poly(t, ctx) for t in ("x0^2", "x0*x1", "x1^2")]


def dejonquieres_at_zero(prime):
    fam = make_family(FamilySpec("dejonquieres", m=2, prime=prime))
    forms = specialize_forms(list(fam.forms), (0,))
    return forms[0].ctx, forms


class TestOracle:
    """On the signed maximal minors of random (r+1) x r matrices of
    column degrees mu the route answers as the Rees route does, and when
    the matrix satisfies G_{r+1} it answers, with the class of the graph
    prod (mu_j u + v)."""

    @settings(max_examples=40, deadline=None)
    @given(
        prime=st.sampled_from(FIELDS),
        r=st.integers(1, 3),
        degrees=st.lists(st.integers(1, 3), min_size=3, max_size=3),
        seed=st.integers(0, 10**6),
    )
    @example(prime=32003, r=2, degrees=[2, 3, 1], seed=4)
    @example(prime=0, r=2, degrees=[1, 2, 1], seed=4)
    @example(prime=7, r=3, degrees=[1, 1, 2], seed=1)
    @example(prime=2, r=1, degrees=[3, 1, 1], seed=0)
    def test_route_is_the_rees_route(self, prime, r, degrees, seed):
        # the Rees route over Q, and with r = 3, takes seconds past these
        # degree sums
        mu = tuple(sorted(degrees[:r]))
        assume(sum(mu) <= (4 if r == 3 or not prime else 5))
        matrix = hilbert_burch_matrix(prime, mu, seed)
        forms = signed_maximal_minors(matrix)
        try:
            spec = rational_map(forms)
        except RingError:
            # a minor vanished: no map
            assume(False)
        rees = rees_held(forms)
        assert degree_report(spec) == degree_report(rees)
        assert j_multiplicity(rational_map(forms)) == j_multiplicity(rees)
        if check_Gm(matrix, r + 1).verdict:
            assert projective_degrees(rees) == elementary(mu)
            hb = spec.hilbert_burch
            assert hb.mu == mu
            # the Koszul exit's matrix, built by the rest of the search, is
            # one that `presents_linear_type` certifies too
            assert column_degrees(hb.matrix) == mu and presents_linear_type(hb.matrix, forms)
            assert degree_report(spec) == DegreeReport(
                elementary(mu)[-1], 1, r, r + 1, elementary(mu)[-1]
            )

    @pytest.mark.parametrize("prime", [7, 32003, 0])
    def test_certified_degree_makes_no_rees_run(self, prime, monkeypatch):
        fam = make_family(FamilySpec("hilbert_burch", r=2, mu=(2, 3), seed=5, prime=prime))
        assert check_Gm(fam.matrix, 3).verdict
        calls = []
        inner = ratmap.rees_ideal
        monkeypatch.setattr(ratmap, "rees_ideal", lambda *a: calls.append(1) or inner(*a))
        assert degree_report(rational_map(fam.forms)).deg_map == 6
        assert j_multiplicity(rational_map(fam.forms)) == 30
        assert calls == []


# column degrees of the saturated fiber draws: the map delta_n on top
# cohomology is nonzero for (1, 3), (2, 3) and (1, 2, 2), where some
# d - mu_j exceeds r, and zero for the others
SFIB_SHAPES = ((2,), (3,), (1, 2), (1, 3), (2, 2), (2, 3), (1, 1, 2), (1, 2, 2))


class TestSaturatedFiber:
    """Wherever the rule certifies a map, `blowup.hilbert_burch_sfib`
    reads C(n+r, r) + dim ker delta_n off its presentation matrix, with
    no Buchberger run, and the values are those of I^n saturated;
    `sfib_hilbert_function` reads them for every such map of P^r, r >= 2."""

    @settings(max_examples=15, deadline=None)
    @given(
        prime=st.sampled_from(FIELDS),
        mu=st.sampled_from(SFIB_SHAPES),
        seed=st.integers(0, 10**6),
    )
    def test_values_match_the_saturation_oracle(self, prime, mu, seed):
        # the maps of P^3 run over F_7 and F_32003 alone: at n = 3 the
        # oracle takes up to 16 s on one over F_2, and 4 to 12 s over Q
        assume(len(mu) < 3 or prime > 2)
        forms = signed_maximal_minors(hilbert_burch_matrix(prime, mu, seed))
        try:
            spec = rational_map(forms)
        except RingError:
            # a minor vanished: no map
            assume(False)
        assume(spec.hilbert_burch is not None)
        with pytest.MonkeyPatch.context() as mp:
            runs = count_buchberger_runs(mp)
            values = [hilbert_burch_sfib(spec.hilbert_burch, n) for n in range(4)]
            # a map of P^1 keeps the saturation route
            if spec.r > 1:
                assert [sfib_hilbert_function(spec, n) for n in range(4)] == values
        assert runs == []
        assert values == [saturated_power_dim(forms, n) for n in range(4)]


class TestDeclined:
    """Maps the route must decline: each takes the Rees route, with its
    answers."""

    def common_factor(self, prime):
        """The Cremona forms times x0 + x1 + x2."""
        matrix = cremona_matrix(prime)
        h = parse_poly("x0 + x1 + x2", matrix.ctx)
        return matrix.ctx, [h * g for g in signed_maximal_minors(matrix)]

    @pytest.mark.parametrize("prime", FIELDS)
    @pytest.mark.parametrize("shear", [False, True], ids=["plain", "sheared"])
    @pytest.mark.parametrize("name", ["dejonquieres_a0", "conic_of_p2", "common_factor"])
    def test_declined(self, name, shear, prime):
        if name == "common_factor":
            ctx, forms = self.common_factor(prime)
        else:
            ctx, forms = {"dejonquieres_a0": dejonquieres_at_zero, "conic_of_p2": conic_of_p2}[
                name
            ](prime)
        if shear:
            forms = sheared(ctx, forms)
        spec = rational_map(forms)
        assert spec.hilbert_burch is None
        assert degree_report(spec) == degree_report(rees_held(forms))
        assert j_multiplicity(rational_map(forms)) == j_multiplicity(rees_held(forms))

    @pytest.mark.parametrize("prime", FIELDS)
    def test_g2_is_not_enough(self, prime, monkeypatch):
        # the sheared de Jonquieres member at a = 0 and the sheared conic
        # of P^2 have recovered presentation matrices that satisfy G_2,
        # whose entries vanish at no coordinate point: only the G_3 row of
        # Fitt_2 declines them
        seen = []
        inner = blowup.presents_linear_type
        monkeypatch.setattr(
            blowup, "presents_linear_type", lambda M, g: seen.append(M) or inner(M, g)
        )
        for ctx, forms in (dejonquieres_at_zero(prime), conic_of_p2(prime)):
            forms = sheared(ctx, forms)
            assert rational_map(forms).hilbert_burch is None
            matrix = PresentationMatrix(ctx, seen.pop().entries)
            assert check_Gm(matrix, 2).verdict and not check_Gm(matrix, 3).verdict


def spy_search(monkeypatch, ctx):
    """Log the degree of each `_syzygy_kernel` built over ctx, under
    "kernels", and each matrix `presents_linear_type` reads, under
    "checked"."""
    log = {"kernels": [], "checked": []}
    kernel, check = blowup._syzygy_kernel, blowup.presents_linear_type

    def spy(forms, units, *args):
        log["kernels"].append(sum(ctx.packing.unpack(units[0])))
        return kernel(forms, units, *args)

    monkeypatch.setattr(blowup, "_syzygy_kernel", spy)
    monkeypatch.setattr(
        blowup, "presents_linear_type", lambda M, g: log["checked"].append(M) or check(M, g)
    )
    return log


def coverage_matrix(prime):
    """[[x0, b0], [x1, b1], [0, b2]] with dense quadrics b_i: it satisfies
    G_3, and its linear column generates (x0, x1), of height 2."""
    ctx = RingCtx(("x0", "x1", "x2"), FieldSpec(prime))
    rng = random.Random(3)
    b = [dense_form(ctx, 2, rng) for _ in range(3)]
    x0, x1 = Poly.var(ctx, 0), Poly.var(ctx, 1)
    return PresentationMatrix(ctx, [[x0, b[0]], [x1, b[1]], [Poly.zero(ctx), b[2]]])


class TestKoszulExit:
    """For three forms of P^2 the Koszul complex certifies mu = (e, d - e)
    from the first syzygy the search finds, of degree e, when its entries
    are m-primary and two of the forms are coprime on a line; for two
    forms of P^1 coprimality alone certifies mu = (d).  The exit builds
    no kernel past degree e and checks no matrix; where it declines
    three forms, the search certifies what it certified before, and two
    forms it declines share a factor, so no search is run."""

    @pytest.mark.parametrize("prime", [7, 32003, 0])
    def test_g3_draws_are_certified(self, prime, monkeypatch):
        # the first four G_3 draws of each shape: every one is certified
        # with the Rees route's answers, and the exit certifies at least
        # one of each shape (sparse draws have linear columns of height 2,
        # and over F_7 the line may meet a base point, so it declines some)
        for mu in ((1, 1), (1, 2), (1, 3), (2, 2), (2, 3)):
            exits = 0
            draws = (hilbert_burch_matrix(prime, mu, seed) for seed in range(100))
            for matrix in islice(filter(lambda M: check_Gm(M, 3).verdict, draws), 4):
                forms = signed_maximal_minors(matrix)
                spec = rational_map(forms)
                with pytest.MonkeyPatch.context() as mp:
                    log = spy_search(mp, matrix.ctx)
                    hb = spec.hilbert_burch
                assert hb.mu == mu
                if not log["checked"]:
                    exits += 1
                    assert max(log["kernels"]) <= mu[0]
                assert degree_report(spec) == degree_report(rees_held(forms))
                assert j_multiplicity(rational_map(forms)) == j_multiplicity(rees_held(forms))
            assert exits

    @pytest.mark.parametrize("prime", [7, 32003, 0])
    def test_benchmark_draws_exit(self, prime, monkeypatch):
        # the families' dense (2, 3) draw: no kernel of degree 3 is built
        fam = make_family(FamilySpec("hilbert_burch", r=2, mu=(2, 3), seed=5, prime=prime))
        assert check_Gm(fam.matrix, 3).verdict
        spec = rational_map(fam.forms)
        log = spy_search(monkeypatch, spec.ctx)
        assert spec.hilbert_burch.mu == (2, 3)
        assert log == {"kernels": [1, 2], "checked": []}
        assert degree_report(spec) == degree_report(rees_held(fam.forms))
        # the matrix is built on its first read, by the rest of the search
        assert presents_linear_type(spec.hilbert_burch.matrix, list(fam.forms))
        assert log["kernels"] == [1, 2, 3]

    @pytest.mark.parametrize("prime", [7, 32003, 0])
    def test_linear_column_of_height_two_takes_the_search(self, prime, monkeypatch):
        matrix = coverage_matrix(prime)
        assert check_Gm(matrix, 3).verdict
        forms = signed_maximal_minors(matrix)
        spec = rational_map(forms)
        log = spy_search(monkeypatch, matrix.ctx)
        assert spec.hilbert_burch.mu == (1, 2)
        assert len(log["checked"]) == 1
        assert degree_report(spec) == degree_report(rees_held(forms))
        assert degree_report(spec).deg_map == 2

    @pytest.mark.parametrize("prime", FIELDS)
    def test_coprime_binary_forms_exit_before_any_kernel(self, prime, monkeypatch):
        ctx = RingCtx(("x0", "x1"), FieldSpec(prime))
        forms = [parse_poly(t, ctx) for t in ("x0^3 + x1^3", "x0^2*x1")]
        spec = rational_map(forms)
        log = spy_search(monkeypatch, ctx)
        assert spec.hilbert_burch.mu == (3,)
        assert log == {"kernels": [1], "checked": []}
        assert presents_linear_type(spec.hilbert_burch.matrix, forms)
        assert degree_report(spec) == degree_report(rees_held(forms))

    @pytest.mark.parametrize("prime", FIELDS)
    def test_binary_forms_with_a_common_factor_take_no_search(self, prime, monkeypatch):
        # x0^2, x0*x1 share x0, so ht I = 1 and G_2 fails: on P^1 the
        # line is a change of coordinates and the coprimality test is
        # exact, so the kernel of degree 2 that the search would look in
        # for its last column is never built
        ctx = RingCtx(("x0", "x1"), FieldSpec(prime))
        forms = [parse_poly(t, ctx) for t in ("x0^2", "x0*x1")]
        spec = rational_map(forms)
        log = spy_search(monkeypatch, ctx)
        assert spec.hilbert_burch is None
        assert log == {"kernels": [1], "checked": []}
        assert degree_report(spec) == degree_report(rees_held(forms))
        assert degree_report(spec).deg_map == 1

    def test_matrix_past_the_cap_leaves_sfib_to_the_saturation(self):
        # a (1, 8) map: the exit certifies mu, but the kernel of degree 8
        # has 135 > _KERNEL_COLUMNS columns, so no matrix is built, and
        # sfib-hf, whose delta_n is nonzero, takes the saturation route
        matrix = hilbert_burch_matrix(32003, (1, 8), 0)
        assert check_Gm(matrix, 3).verdict
        forms = signed_maximal_minors(matrix)
        spec = rational_map(forms)
        assert spec.hilbert_burch.mu == (1, 8) and spec.hilbert_burch.matrix is None
        assert hilbert_burch_sfib(spec.hilbert_burch, 2) is None
        assert [sfib_hilbert_function(spec, n) for n in range(3)] == [
            saturated_power_dim(forms, n) for n in range(3)
        ]
        assert degree_report(spec) == degree_report(rees_held(forms))

    def test_wide_sylvester_block_is_not_built(self, monkeypatch):
        # 2d = 122 rows: the coprimality test declines before any form
        # meets the line, and so does the rule
        ctx = RingCtx(("x0", "x1"), FieldSpec(32003))
        forms = [parse_poly(t, ctx) for t in ("x0^61", "x1^61")]
        monkeypatch.setattr(
            blowup, "_on_line", lambda *a: pytest.fail("a form met the line")
        )
        assert rational_map(forms).hilbert_burch is None


class TestCertificateChecks:
    """Each check of `presents_linear_type` on a matrix that passes the
    others."""

    @pytest.mark.parametrize("prime", FIELDS)
    def test_zero_minors_compute_no_height(self, prime, monkeypatch):
        # two equal columns: every maximal minor is 0 = 0 * g_i, and the
        # entries vanish at no coordinate point; c = 0 is refused before
        # any height
        ctx = RingCtx(("x0", "x1", "x2"), FieldSpec(prime))
        x = [Poly.var(ctx, k) for k in range(3)]
        M = PresentationMatrix(ctx, [[v, v] for v in x])
        forms = [v * v for v in x]

        def forbidden(*args):
            raise AssertionError("a height was computed")

        monkeypatch.setattr(blowup, "check_Gm", forbidden)
        assert presents_linear_type(M, forms) is False

    @pytest.mark.parametrize("prime", FIELDS)
    def test_fitt1_row_is_needed(self, prime):
        # the Cremona matrix with its second column times h: the minors
        # are h times the old ones, so c = 1 for them, and I_1 has height
        # 3, but ht Fitt_1 = ht (h) = 1
        cremona = cremona_matrix(prime)
        h = parse_poly("x0 + x1 + x2", cremona.ctx)
        M = PresentationMatrix(cremona.ctx, [[a, h * b] for a, b in cremona.entries])
        forms = signed_maximal_minors(M)
        table = check_Gm(M, 3).table
        assert [row[4] for row in table] == [False, True]
        assert presents_linear_type(M, forms) is False

    @pytest.mark.parametrize("prime", FIELDS)
    def test_coordinate_zero_computes_no_height(self, prime, monkeypatch):
        ctx, forms = conic_of_p2(prime)
        x0, x1, _ = (Poly.var(ctx, k) for k in range(3))
        M = PresentationMatrix(ctx, [[x1, Poly.zero(ctx)], [-x0, x1], [Poly.zero(ctx), -x0]])
        runs = count_buchberger_runs(monkeypatch)
        assert presents_linear_type(M, forms) is False
        assert runs == []

    def test_shape_is_checked(self):
        ctx, forms = conic_of_p2(32003)
        M = PresentationMatrix(ctx, [[Poly.var(ctx, 0)]] * 3)
        with pytest.raises(RingError):
            presents_linear_type(M, forms[:2])


class TestSearchCost:
    def test_wide_kernels_are_not_built(self, monkeypatch):
        # x0^60, x1^60, x2^60 have no syzygy below degree 60; the search
        # stops before a kernel of more than _KERNEL_COLUMNS columns
        widths = []
        inner = blowup._syzygy_kernel

        def spy(forms, units, *args):
            widths.append(len(units) * len(forms))
            return inner(forms, units, *args)

        monkeypatch.setattr(blowup, "_syzygy_kernel", spy)
        ctx = RingCtx(("x0", "x1", "x2"), FieldSpec(32003))
        forms = [parse_poly(t, ctx) for t in ("x0^60", "x1^60", "x2^60")]
        spec = rational_map(forms)
        assert spec.hilbert_burch is None
        assert widths and max(widths) <= blowup._KERNEL_COLUMNS
        assert degree_report(spec) == DegreeReport(60**2, 1, 2, 3, 60**2)
