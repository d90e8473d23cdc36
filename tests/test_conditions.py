import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import rand_coeff, random_form, random_poly
from reesdeg.conditions import (
    PresentationMatrix,
    check_Fm,
    check_Gm,
    determinant,
    fitting_ideal,
    height,
    minors,
    parse_matrix_file,
    pfaffians,
    serialize_matrix,
    signed_maximal_minors,
)
from reesdeg import blowup, conditions, groebner
from reesdeg.families import FamilySpec, dense_form, make_family
from reesdeg.groebner import IdealHandle, groebner_basis, ideal, saturate
from reesdeg.cli import main
from reesdeg.ratmap import degree_report, rational_map
from reesdeg.ring import (
    EXP_BOUND,
    FieldSpec,
    Poly,
    RingCtx,
    RingError,
    monomials_of_degree,
    parse_poly,
)

QQ = FieldSpec(0)


def mat(names, rows, field=QQ):
    ctx = RingCtx(tuple(names), field)
    prows = [[parse_poly(e, ctx) for e in row] for row in rows]
    return ctx, PresentationMatrix(ctx, prows)


def submatrix(M, rows, cols):
    return [[M.entries[i][j] for j in cols] for i in rows]


def buchberger_runs(monkeypatch):
    """Patch the Buchberger core to log the seed count of each run."""
    runs = []
    buchberger = groebner._buchberger
    monkeypatch.setattr(
        groebner, "_buchberger", lambda seeds, *args: runs.append(len(seeds)) or buchberger(seeds, *args)
    )
    return runs


def echelon_passes(monkeypatch):
    """Patch the Gauss-Jordan kernel that `conditions` streams its forms
    into to log (stop, rows returned, steps spent before the pass, steps
    spent after it, the forms it read) of each pass."""
    passes = []
    gauss_jordan = conditions._gauss_jordan

    def spy(block, p, budget, stop=None):
        before = budget.limit - budget.left
        rows, read = [], []
        try:
            rows = gauss_jordan((read.append(t) or t for t in block), p, budget, stop)
            return rows
        finally:
            passes.append((stop, len(rows), before, budget.limit - budget.left, read))

    monkeypatch.setattr(conditions, "_gauss_jordan", spy)
    return passes


def sylvester_passes(monkeypatch, passes):
    """Patch `conditions._coprime` to log the indices in `passes`, the log
    of `echelon_passes`, of the passes it makes."""
    made = set()
    coprime = conditions._coprime

    def spy(*args):
        start = len(passes)
        try:
            return coprime(*args)
        finally:
            made.update(range(start, len(passes)))

    monkeypatch.setattr(conditions, "_coprime", spy)
    return made


def permanent_free_det(entries):
    """Permutation-expansion determinant: an independent oracle for
    small matrices."""
    n = len(entries)
    ctx = entries[0][0].ctx
    total = Poly.zero(ctx)
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = Poly.constant(ctx, sign)
        for i in range(n):
            term = term * entries[i][perm[i]]
        total = total + term
    return total


class TestDeterminant:
    def test_two_by_two(self):
        ctx, M = mat(("x", "y"), [["x", "y"], ["y", "x"]])
        assert determinant(M.entries) == parse_poly("x^2 - y^2", ctx)

    def test_identity_like(self):
        ctx, M = mat(("x",), [["x", "0"], ["0", "x"]])
        assert determinant(M.entries) == parse_poly("x^2", ctx)

    def test_zero_column(self):
        ctx, M = mat(("x",), [["0", "x"], ["0", "x"]])
        assert not determinant(M.entries)

    def test_determinant_vs_permutation(self):
        rng = random.Random(42)
        for _ in range(12):
            char = rng.choice([0, 32003])
            ctx = RingCtx(("x", "y"), FieldSpec(char))
            n = rng.randint(2, 4)
            entries = [
                [random_poly(ctx, rng, 1, 2) for _ in range(n)] for _ in range(n)
            ]
            assert determinant(entries) == permanent_free_det(entries)

    def test_five_by_five_constants(self):
        rng = random.Random(8)
        ctx = RingCtx(("x",), QQ)
        entries = [
            [Poly.constant(ctx, rng.randint(-4, 4)) for _ in range(5)]
            for _ in range(5)
        ]
        expect = permanent_free_det(entries)
        assert determinant(entries) == expect

    def test_sizes_one_to_six(self):
        rng = random.Random(6)
        for n in range(1, 7):
            for char in (0, 32003):
                ctx = RingCtx(("x", "y"), FieldSpec(char))
                entries = [
                    [random_poly(ctx, rng, 1, 2) for _ in range(n)] for _ in range(n)
                ]
                assert determinant(entries) == permanent_free_det(entries)

    def test_non_square_rejected(self):
        ctx, M = mat(("x",), [["x", "1", "0"], ["0", "x", "1"]])
        with pytest.raises(RingError):
            determinant(M.entries)

    def test_swap_changes_sign(self):
        ctx, M = mat(("x", "y"), [["x", "y"], ["y", "x"]])
        swapped = [M.entries[1], M.entries[0]]
        assert determinant(swapped) == -determinant(M.entries)

    def test_degree_past_packed_bound_raises(self):
        # each entry packs; their product's degree reaches EXP_BOUND
        e = EXP_BOUND // 2
        ctx, M = mat(("x0",), [["x0^%d" % e, "1"], ["1", "x0^%d" % e]])
        with pytest.raises(RingError, match=str(EXP_BOUND)):
            determinant(M.entries)


class TestMatrixShape:
    def test_ragged_rejected(self):
        ctx = RingCtx(("x",), QQ)
        x = parse_poly("x", ctx)
        with pytest.raises(RingError):
            PresentationMatrix(ctx, [[x, x], [x]])

    def test_foreign_entry_rejected(self):
        ctx = RingCtx(("x",), QQ)
        other = RingCtx(("y",), QQ)
        with pytest.raises(RingError):
            PresentationMatrix(ctx, [[parse_poly("y", other)]])

    def test_submatrix(self):
        ctx, M = mat(("x", "y"), [["x", "y", "0"], ["y", "x", "1"]])
        S = submatrix(M, (0,), (0, 2))
        assert len(S) == 1 and len(S[0]) == 2
        assert S[0][1] == M.entries[0][2]


class TestFittingIdeals:
    def test_zeroth_is_maximal_minors(self):
        ctx, M = mat(("x", "y"), [["x", "0"], ["0", "y"], ["y", "x"]])
        F0 = fitting_ideal(M, 0)
        assert len(F0.gens) <= 3
        got = minors(M, 2)
        assert parse_poly("x*y", ctx) in got

    def test_out_of_range_indices(self):
        ctx, M = mat(("x", "y"), [["x", "y"], ["y", "x"]])
        assert [str(g) for g in fitting_ideal(M, 2).gens] == ["1"]
        assert [str(g) for g in fitting_ideal(M, 5).gens] == ["1"]
        assert fitting_ideal(M, -1).gens == ()


class TestMinorChain:
    SHAPES = ((1, 3), (3, 1), (2, 4), (4, 3), (3, 5), (5, 5), (6, 5), (5, 6))

    def test_minors_vs_permutation(self):
        # sparse entries (about a third are zero) and, every other shape,
        # a zero row
        rng = random.Random(7)
        for char in (0, 32003):
            ctx = RingCtx(("x", "y"), FieldSpec(char))
            for t, (r, c) in enumerate(self.SHAPES):
                entries = [
                    [
                        random_poly(ctx, rng, 1, 2) if rng.random() < 0.7 else Poly.zero(ctx)
                        for _ in range(c)
                    ]
                    for _ in range(r)
                ]
                if t % 2:
                    entries[rng.randrange(r)] = [Poly.zero(ctx)] * c
                M = PresentationMatrix(ctx, entries)
                for k in range(1, min(r, c) + 1):
                    expect = [
                        permanent_free_det(submatrix(M, rows, cols))
                        for rows in itertools.combinations(range(r), k)
                        for cols in itertools.combinations(range(c), k)
                    ]
                    assert minors(M, k) == expect

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6), prime=st.sampled_from([2, 7, 32003, 0]))
    def test_signed_sub_pfaffians_are_the_leibniz_minors(self, seed, prime):
        # each minor is a sub-Pfaffian of [[0, M], [-M^T, 0]] with its sign
        # undone; zero entries and zero rows are skipped by the chain.  The
        # shape and size come from the seed, uniform up to 6x6.
        rng = random.Random(seed)
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        ctx = RingCtx(("x", "y"), FieldSpec(prime))
        entries = [
            [random_poly(ctx, rng, 1, 2) if rng.random() < 0.7 else Poly.zero(ctx) for _ in range(c)]
            for _ in range(r)
        ]
        if rng.random() < 0.3:
            entries[rng.randrange(r)] = [Poly.zero(ctx)] * c
        M = PresentationMatrix(ctx, entries)
        k = rng.randint(1, min(r, c))
        expect = [
            permanent_free_det(submatrix(M, rows, cols))
            for rows in itertools.combinations(range(r), k)
            for cols in itertools.combinations(range(c), k)
        ]
        assert minors(M, k) == expect

    def test_minor_size_must_be_positive(self):
        ctx, M = mat(("x",), [["x", "1"], ["0", "x"]])
        with pytest.raises(RingError):
            minors(M, 0)

    def test_returned_minors_leave_the_table(self):
        ctx, M = mat(("x", "y"), [["x", "y"], ["y", "x"], ["x", "0"]])
        assert minors(M, 1) == [e for row in M.entries for e in row]
        first = minors(M, 2)
        # the chain's memo lives for one call: the matrix keeps no minor,
        # and a minor asked for again is expanded again
        assert vars(M) == {"ctx": ctx, "entries": M.entries}
        assert minors(M, 2) == first

    def test_memo_outside_eq_and_hash(self):
        ctx, M = mat(("x", "y"), [["x", "y"], ["y", "x"], ["x", "0"]])
        _, N = mat(("x", "y"), [["x", "y"], ["y", "x"], ["x", "0"]])
        minors(M, 2)
        assert M == N and hash(M) == hash(N)

    def test_fitting_handle_is_shared(self, monkeypatch):
        # M keeps no handle: each call builds one with the same generators,
        # and G_m and F_m share M's heights instead of its bases
        ctx, M = mat(("x", "y"), [["x", "y"], ["y", "x"], ["x", "0"]])
        for i in (-1, 0, 1, 2, 3, 7):
            assert fitting_ideal(M, i).gens == fitting_ideal(M, i).gens
        assert fitting_ideal(M, 3).gens == fitting_ideal(M, 7).gens == (Poly.constant(ctx, 1),)
        assert fitting_ideal(M, 0).gens == ()
        # the three quadric 2-minors span S_2, so Fitt_1 takes one echelon
        # pass and no run, and Fitt_2 none at all
        runs, passes = buchberger_runs(monkeypatch), echelon_passes(monkeypatch)
        check_Gm(M, 2)
        taken = (len(passes), len(runs))
        check_Fm(M, 0)
        assert taken == (1, 0) and (len(passes), len(runs)) == taken


class TestSharedMaximalMinors:
    """signed_maximal_minors reads every maximal minor off one chain;
    each must match the permutation oracle on M without row i."""

    @pytest.mark.parametrize("char", [0, 32003])
    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_signed_minors_vs_permutation(self, r, char):
        rng = random.Random(100 * r + char)
        ctx = RingCtx(("x", "y", "z"), FieldSpec(char))
        entries = [[random_poly(ctx, rng, 1, 3) for _ in range(r)] for _ in range(r + 1)]
        M = PresentationMatrix(ctx, entries)
        got = signed_maximal_minors(M)
        assert len(got) == r + 1
        for i, g in enumerate(got):
            keep = [k for k in range(r + 1) if k != i]
            d = permanent_free_det(submatrix(M, keep, range(r)))
            assert g == (d if i % 2 == 0 else -d)


def linear_6x5():
    """Fixed random 6x5 matrix of linear forms in 4 variables over F_32003."""
    ctx = RingCtx(("x0", "x1", "x2", "x3"), FieldSpec(32003))
    rng = random.Random(65)
    entries = [[dense_form(ctx, 1, rng) for _ in range(5)] for _ in range(6)]
    return PresentationMatrix(ctx, entries)


class TestConditionCounts:
    """Deterministic work counts of G_4 then F_0 on one matrix: each
    k-minor is expanded at most once on each image of the entries (the
    line of the coprimality test, the values of one stream), at the cost
    of at most k products, and each Fitting ideal gets at most one
    Groebner basis, shared by both checks."""

    def test_products_and_bases(self, monkeypatch):
        M = linear_6x5()
        products = [0]
        pfaffian = conditions._pfaffian

        def counted_pfaffian(entries, memo, idx, expand):
            # a k-minor's balanced tuple, of length 2k, not in the memo is
            # expanded: k products at most
            if len(idx) > 2 and idx not in memo:
                products[0] += len(idx) // 2
            return pfaffian(entries, memo, idx, expand)

        monkeypatch.setattr(conditions, "_pfaffian", counted_pfaffian)
        runs = buchberger_runs(monkeypatch)
        check_Gm(M, 4)
        check_Fm(M, 0)
        bound = sum(
            k * math.comb(6, k) * math.comb(5, k) for k in range(2, 6)
        )
        assert bound == 1230
        # Fitt_1's coprimality test reads the first three 5-minors of the
        # stream on the line, on rows 1..5, {0, 2, 3, 4, 5} and
        # {0, 1, 3, 4, 5}, and the 10 4-, 10 3- and 10 2-minors below
        # them: 3*5 + 10*4 + 10*3 + 10*2 = 105 products.  Fitt_2 streams
        # the values of its 4-minors later rows first, with a memo of its
        # own: the first 35, on 7 row sets, span S_4, with the 40 3-minors
        # on 4 row sets and the 30 2-minors on 3 below them: 35*4 + 40*3 +
        # 30*2 = 320 products
        assert products[0] == 105 + 320
        assert products[0] < bound
        # no run: two coprime 5-minors give Fitt_1 height 2, and Fitt_2
        # has height 4 = nvars off its span, so Fitt_2..Fitt_5 need none
        sizes = [len(fitting_ideal(M, i).gens) for i in range(1, 6)]
        assert sizes == [6, 75, 200, 150, 30]
        assert runs == []


class TestSeedBlock:
    """The 75 quartic 4-minors of linear_6x5 span all 35 quartics in four
    variables.  They enter Fitt_2's Buchberger run as one Gauss-Jordan
    block, which leaves 35 monomials and no S-polynomial to build; G_m
    and F_m stream them into one such block that stops at the 35th pivot
    and make no run."""

    def test_fitt2_is_every_quartic_monomial(self, monkeypatch):
        M = linear_6x5()
        I = fitting_ideal(M, 2)
        assert len(I.gens) == 75
        built = []
        spoly = groebner._spoly
        monkeypatch.setattr(groebner, "_spoly", lambda *args: built.append(1) or spoly(*args))
        assert height(I) == 4
        basis = I.gb_cache[M.ctx.order]
        assert [len(t) for t in basis] == [1] * 35
        assert {max(t) for t in basis} == {M.ctx.key(m) for m in monomials_of_degree(4, 4)}
        assert built == []

    def test_budget_below_the_row_operations(self, monkeypatch):
        M = linear_6x5()
        gens = fitting_ideal(M, 2).gens
        ops = []
        cancel = groebner._cancel
        monkeypatch.setattr(groebner, "_cancel", lambda *args: ops.append(1) or cancel(*args))
        height(IdealHandle(M.ctx, gens))
        assert ops
        with pytest.raises(groebner.BudgetExceeded) as exc:
            with groebner.step_budget(len(ops) - 1):
                height(IdealHandle(M.ctx, gens))
        assert any(entry.name == "_gauss_jordan" for entry in exc.traceback)

    def test_conditions_budget_runs_out_in_the_block(self, monkeypatch, tmp_path, capsys):
        # the streamed block of Fitt_2 charges the products that expand
        # its minors and its row operations; a budget one step short of
        # its end runs out inside it
        path = tmp_path / "m65.txt"
        path.write_text(serialize_matrix(linear_6x5()))
        argv = ["conditions", "--matrix", str(path)]
        passes = echelon_passes(monkeypatch)
        runs = buchberger_runs(monkeypatch)
        assert main(argv) == 0
        # Fitt_1 has height 2 off two coprime minors, with no run
        assert runs == []
        [(before, after)] = [(b, a) for stop, rows, b, a, _ in passes if (stop, rows) == (35, 35)]
        assert after > before
        del passes[:]
        capsys.readouterr()
        assert main(argv + ["--budget", str(after - 1)]) == 3
        assert capsys.readouterr().out == ""
        assert [(stop, b) for stop, _, b, _, _ in passes[-1:]] == [(35, before)]


class TestGoldenCertificates:
    """Certificate tables recorded with the earlier per-minor cofactor
    expansion; the chain must reproduce them."""

    def tables(self, M, m):
        return check_Gm(M, m).table, check_Fm(M, 0).table

    def test_linear_6x5(self):
        G, F = self.tables(linear_6x5(), 4)
        assert G == ((1, 5, 2, 1, True), (2, 4, 4, 2, True), (3, 3, 4, 3, True))
        assert F == G + ((4, 2, 4, 4, True), (5, 1, 4, 5, False))

    PFAFFIAN = (
        (1, 4, 3, 1, True),
        (2, 3, 3, 2, True),
        (3, 2, 5, 3, True),
        (4, 1, 5, 4, True),
    )

    def test_pfaffian(self):
        fam = make_family(FamilySpec("pfaffian", r=4, D=1, seed=3))
        G, F = self.tables(fam.matrix, 5)
        assert G == F == self.PFAFFIAN

    def test_hilbert_burch_2_3(self):
        fam = make_family(FamilySpec("hilbert_burch", r=2, mu=(2, 3), seed=0))
        G, F = self.tables(fam.matrix, 3)
        assert G == F == ((1, 2, 2, 1, True), (2, 1, 3, 2, True))


class TestHeight:
    def test_known_heights(self):
        ctx = RingCtx(("x", "y", "z"), QQ)
        assert height(ideal(ctx, [parse_poly("x", ctx)])) == 1
        assert height(ideal(ctx, [parse_poly(t, ctx) for t in ("x", "y")])) == 2
        assert height(ideal(ctx, [])) == 0
        assert height(ideal(ctx, [Poly.constant(ctx, 1)])) == math.inf

    def test_inhomogeneous_ideals(self):
        # dim S/I = dim S/in(I) for any ideal, homogeneous or not
        ctx = RingCtx(("x", "y", "z"), QQ)
        assert height(ideal(ctx, [parse_poly(t, ctx) for t in ("x - 1", "y")])) == 2
        assert height(ideal(ctx, [parse_poly("x*y - 1", ctx)])) == 1
        assert height(ideal(ctx, [parse_poly(t, ctx) for t in ("x + 1", "x")])) == math.inf
        assert height(ideal(ctx, [parse_poly(t, ctx) for t in ("x^2 + y", "x*z - 1")])) == 2


class TestMonotoneChain:
    """Past the first Fitting index of height nvars, heights are read off
    the minors without a Groebner basis; they must be the heights a
    basis gives."""

    def chain_and_direct(self, M, monkeypatch):
        """(heights of the chain, seed counts of its Buchberger runs,
        heights off a basis of each Fitting ideal)"""
        runs = buchberger_runs(monkeypatch)
        chain = [row[2] for row in check_Fm(M, 0).table]
        bases = list(runs)
        direct = [height(fitting_ideal(M, i)) for i in range(1, M.nrows)]
        return chain, bases, direct

    def test_linear_6x5(self, monkeypatch):
        chain, bases, direct = self.chain_and_direct(linear_6x5(), monkeypatch)
        assert chain == direct == [2, 4, 4, 4, 4]
        # no run: two of Fitt_1's minors are coprime, and Fitt_2's minors
        # span S_4, so its height 4 takes none
        assert bases == []

    def test_forms_of_one_degree_expand_no_minor_past_height_nvars(self, monkeypatch):
        # Fitt_2 of linear_6x5 already has height 4 = nvars, so the 3-,
        # 2- and 1-minors are never expanded
        M = linear_6x5()
        sizes = []
        inner = conditions._chain
        monkeypatch.setattr(
            conditions, "_chain", lambda M, k, *args: sizes.append(k) or inner(M, k, *args)
        )
        G, F = check_Gm(M, 4).table, check_Fm(M, 0).table
        assert sizes == [5, 4]
        # and the matrix keeps its heights, no minor
        assert vars(M).keys() == {"ctx", "entries", "heights"}
        assert G == ((1, 5, 2, 1, True), (2, 4, 4, 2, True), (3, 3, 4, 3, True))
        assert F == G + ((4, 2, 4, 4, True), (5, 1, 4, 5, False))

    def test_constant_entry_still_reports_the_unit_ideal(self):
        # a constant among the entries: the minors are not forms of one
        # degree, so the later indices are expanded and read
        _, M = mat(("x", "y"), [["x", "0"], ["0", "y"], ["1", "1"]])
        assert [row[2] for row in check_Gm(M, math.inf).table] == [2, math.inf]
        assert [row[2] for row in check_Fm(M, 0).table] == [2, math.inf]

    def test_constant_minor_is_the_unit_ideal(self, monkeypatch):
        _, M = mat(("x", "y"), [["x", "0"], ["0", "y"], ["1", "1"]])
        chain, bases, direct = self.chain_and_direct(M, monkeypatch)
        assert chain == direct == [2, math.inf]
        # a run for the 3 nonzero 2-minors; the entries need none
        assert bases == [3]

    def test_inhomogeneous_minors_take_a_basis(self, monkeypatch):
        _, M = mat(("x",), [["x + 1", "x"], ["x + 1", "x"], ["x", "0"]])
        chain, bases, direct = self.chain_and_direct(M, monkeypatch)
        assert chain == direct == [1, math.inf]
        # the 2 nonzero 2-minors, then the 5 nonzero entries
        assert bases == [2, 5]

    def test_a_short_G_m_keeps_only_the_heights(self):
        # G_2 stops its table at index 1 but computes every height; the
        # matrix then holds its fields and the heights, no minor
        M = linear_6x5()
        assert check_Gm(M, 2).table == ((1, 5, 2, 1, True),)
        assert vars(M) == {"ctx": M.ctx, "entries": M.entries, "heights": (2, 4, 4, 4, 4)}


DEJONQ_M2 = [
    ["x", "z*y"],
    ["-y", "z*x + y^2"],
    ["{a}*z", "z*x"],
]


def dejonq_matrix(a, field=FieldSpec(32003)):
    rows = [[e.replace("{a}", str(a)) for e in row] for row in DEJONQ_M2]
    return mat(("x", "y", "z"), rows, field=field)


class TestConditions:
    def test_G3_holds_generic_point(self):
        _, M = dejonq_matrix(1)
        cert = check_Gm(M, 3)
        assert cert.verdict is True
        assert cert.condition == "G_3"
        assert all(row[4] for row in cert.table)

    def test_G3_fails_special_point(self):
        _, M = dejonq_matrix(0)
        cert = check_Gm(M, 3)
        assert cert.verdict is False
        bad = [row for row in cert.table if not row[4]]
        assert bad

    def test_F0_holds_both_points(self):
        for a in (0, 1):
            _, M = dejonq_matrix(a)
            cert = check_Fm(M, 0)
            assert cert.verdict is True
            assert cert.condition == "F_0"

    def test_G_inf_level(self):
        _, M = dejonq_matrix(1)
        cert = check_Gm(M, math.inf)
        assert cert.condition == "G_inf"
        assert len(cert.table) == 2

    def test_huge_level_stops_at_the_row_count(self):
        for a in (0, 1):
            _, M = dejonq_matrix(a)
            huge, rows = check_Gm(M, 10**9), check_Gm(M, M.nrows)
            assert (huge.verdict, huge.table) == (rows.verdict, rows.table)
            assert len(huge.table) == M.nrows - 1

    def test_G_inf_runs_past_the_variable_count(self):
        # 4 rows in 3 variables: Fitt_3, the entries, has height at most
        # 3, so G_4 fails, and so must G_inf
        ctx = RingCtx(("x0", "x1", "x2"), FieldSpec(32003))
        rng = random.Random(0)
        M = PresentationMatrix(ctx, [[dense_form(ctx, 1, rng) for _ in range(3)] for _ in range(4)])
        inf, four, huge = check_Gm(M, math.inf), check_Gm(M, 4), check_Gm(M, 10**9)
        assert (inf.verdict, inf.table) == (four.verdict, four.table) == (huge.verdict, huge.table)
        assert inf.verdict is False and len(inf.table) == 3
        assert inf.table[-1] == (3, 1, 3, 3, False)

    def test_bad_levels(self):
        _, M = dejonq_matrix(1)
        with pytest.raises(RingError):
            check_Gm(M, 0)
        with pytest.raises(RingError):
            check_Fm(M, -1)

    def test_table_shape(self):
        _, M = dejonq_matrix(1)
        cert = check_Gm(M, 3)
        for i, size, ht, threshold, ok in cert.table:
            assert size == M.nrows - i
            assert ok == (ht > threshold)


class TestSerialization:
    def test_round_trip(self):
        ctx, M = mat(("x", "y"), [["x", "y"], ["y", "x^2"]], field=FieldSpec(7))
        text = serialize_matrix(M)
        again = parse_matrix_file(text)
        assert again.ctx == ctx
        assert again.entries == M.entries

    def test_bad_matrix_file(self):
        with pytest.raises(RingError):
            parse_matrix_file("ring x over 0 order grevlex\nmatrix 2 x 2\nx\n")


class TestPackedSeeds:
    """Fitting ideals hand the chain's packed minors straight to the
    engine; they must give what the same minors as polynomials give."""

    def matrices(self, prime):
        rng = random.Random(90 + prime)
        ctx = RingCtx(("x0", "x1", "x2", "x3"), FieldSpec(prime))
        out = [
            PresentationMatrix(ctx, [[dense_form(ctx, 1, rng) for _ in range(c)] for _ in range(r)])
            for r, c in ((4, 3), (5, 4), (3, 3))
        ]
        return out + [make_family(FamilySpec("pfaffian", r=4, D=1, seed=3, prime=prime)).matrix]

    @pytest.mark.parametrize("prime", [7, 32003, 0], ids=["F_7", "F_32003", "QQ"])
    def test_packed_and_poly_seeds_agree(self, prime, verified_bases):
        for M in self.matrices(prime):
            heights = []
            for i in range(1, M.nrows):
                packed = fitting_ideal(M, i)
                plain = IdealHandle(M.ctx, minors(M, M.nrows - i))
                assert packed.gens == plain.gens
                assert groebner_basis(packed) == groebner_basis(plain)
                assert height(packed) == height(plain)
                heights.append(height(plain))
            G = tuple((i, M.nrows - i, h, i, h > i) for i, h in enumerate(heights, 1))
            F = tuple((i, M.nrows - i, h, i, h >= i) for i, h in enumerate(heights, 1))
            assert check_Gm(M, math.inf).table == G
            assert check_Fm(M, 0).table == F

    def test_verify_checks_packed_bases(self, verified_bases):
        # the bases the packed path makes pass the certificate: a Fitting
        # ideal's, and the stripped basis of the saturation by the
        # variables
        M = self.matrices(32003)[0]
        I = fitting_ideal(M, 1)
        height(I)
        leads = sorted(M.ctx.key(g.lm()) for g in groebner_basis(I))
        assert verified_bases == [("computed", leads), ("reduced", leads)]
        ctx = M.ctx
        # (x0) cut with the square of the irrelevant ideal
        J = ideal(ctx, [parse_poly("x0*x%d" % j, ctx) for j in range(4)])
        maxi = ideal(ctx, [Poly.var(ctx, j) for j in range(4)])
        del verified_bases[:]
        S = saturate(J, maxi)
        # J's own basis, then the stripped one
        x0 = [ctx.key((1, 0, 0, 0))]
        assert [str(g) for g in groebner_basis(S)] == ["x0"]
        assert verified_bases[0] == ("computed", sorted(ctx.key(g.lm()) for g in groebner_basis(J)))
        assert verified_bases[1:3] == [("given", x0), ("reduced", x0)]


def random_alternating(ctx, rng, n, kind):
    """A random n x n alternating matrix of one of four kinds: "forms",
    every entry a form of one degree 1 or 2; "graded", entry (i, j) of
    degree u_i + u_j for u_i in {0, 1}, so linear and quadric entries mix
    and every minor is still a form (degree 0 entries are zero);
    "mixed", degree 1 or 2 drawn per entry, so minors and Pfaffians need
    not be homogeneous; "lowrank", linear entries of rank at most 2 or
    4, as sum a b^T - b a^T with a linear and b constant.  A quarter of
    the entries of the first three kinds are zero."""
    zero = Poly.zero(ctx)
    entries = [[zero] * n for _ in range(n)]
    if kind == "lowrank":
        for _ in range(rng.randint(1, 2)):
            a = [random_form(ctx, rng, 1) for _ in range(n)]
            b = [Poly.constant(ctx, rng.randint(-3, 3)) for _ in range(n)]
            entries = [
                [entries[i][j] + a[i] * b[j] - b[i] * a[j] for j in range(n)] for i in range(n)
            ]
        return PresentationMatrix(ctx, entries)
    u = [rng.randint(0, 1) for _ in range(n)]
    d = rng.randint(1, 2)
    for i in range(n):
        for j in range(i + 1, n):
            deg = {"forms": d, "graded": u[i] + u[j], "mixed": rng.randint(1, 2)}[kind]
            if deg and rng.random() < 0.75:
                entries[i][j] = random_form(ctx, rng, deg)
                entries[j][i] = -entries[i][j]
    return PresentationMatrix(ctx, entries)


def outcome(f):
    """f(), or the class of the RingError it raises."""
    try:
        return f()
    except RingError as exc:
        return type(exc)


class TestMinorRoute:
    """On a matrix that is not alternating, G_inf and F_0 must read the
    heights of the ideals of the Leibniz minors, an oracle that shares no
    code with the chain."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        prime=st.sampled_from([2, 7, 32003, 0]),
        kind=st.sampled_from(["forms", "graded"]),
    )
    def test_heights_match_the_leibniz_minors(self, seed, prime, kind):
        # "forms": every entry a form of one degree 1 or 2; "graded":
        # entry (i, j) of degree u_i + v_j for u_i, v_j in {0, 1}, so
        # constants, linear and quadric entries mix and every minor is
        # still a form.  A quarter of the entries are zero.  The shape
        # comes from the seed, kept small over Q, where the oracle's
        # bases grow slowest.
        rng = random.Random(seed)
        r, c = rng.randint(2, 4 if prime == 0 else 5), rng.randint(1, 4)
        nvars = rng.randint(2, 3)
        ctx = RingCtx(tuple("x%d" % i for i in range(nvars)), FieldSpec(prime))
        u = [rng.randint(0, 1) for _ in range(r)]
        v = [rng.randint(0, 1) for _ in range(c)]
        d = rng.randint(1, 2)
        entries = [
            [
                random_form(ctx, rng, d if kind == "forms" else u[i] + v[j])
                if rng.random() < 0.75 else Poly.zero(ctx)
                for j in range(c)
            ]
            for i in range(r)
        ]
        M = PresentationMatrix(ctx, entries)
        heights = []
        for k in range(r - 1, 0, -1):
            gens = [
                permanent_free_det(submatrix(M, rows, cols))
                for rows in itertools.combinations(range(r), k)
                for cols in itertools.combinations(range(c), k)
            ]
            heights.append(height(IdealHandle(ctx, gens)))
        G = tuple((i, r - i, h, i, h > i) for i, h in enumerate(heights, 1))
        F = tuple((i, r - i, h, i, h >= i) for i, h in enumerate(heights, 1))
        assert (check_Gm(M, math.inf).table, check_Fm(M, 0).table) == (G, F)


def random_forms_matrix(ctx, rng, r, c, d, kind):
    """A random r x c matrix whose nonzero entries are forms of degree d,
    of one of four kinds: "dense", a tenth of the entries zero;
    "sparse", most entries zero; "lowrank", a sum of one or two products
    a b^T of a column of forms and a row of constants, so of rank at most
    2; "fewvars", forms free of the last variable, so no Fitting ideal
    has height nvars, and the entries may span all of S_1 but one
    dimension."""
    n = ctx.nvars

    def form():
        if kind == "fewvars":
            mons = monomials_of_degree(n - 1, d)
            return Poly(ctx, {m + (0,): rand_coeff(ctx, rng) for m in mons if rng.random() < 0.7})
        return random_form(ctx, rng, d)

    zero = Poly.zero(ctx)
    if kind == "lowrank":
        rows = [[zero] * c for _ in range(r)]
        for _ in range(rng.randint(1, 2)):
            a = [form() for _ in range(r)]
            b = [Poly.constant(ctx, rand_coeff(ctx, rng)) for _ in range(c)]
            rows = [[rows[i][j] + a[i] * b[j] for j in range(c)] for i in range(r)]
        return PresentationMatrix(ctx, rows)
    empty = 0.6 if kind == "sparse" else 0.1
    return PresentationMatrix(
        ctx, [[form() if rng.random() >= empty else zero for _ in range(c)] for _ in range(r)]
    )


class TestSpanningStream:
    """A matrix of forms of one degree streams the forms of each Fitting
    index into one Gauss-Jordan pass, which stops once they span S_t;
    the index then has height nvars and takes no run.  The pass reads
    one image of the forms: their values at lattice points, or their
    terms when 0 < p <= t or the forms are the entries.  An index whose
    pass does not span takes the run.  The heights must be those of the
    Fitting ideals' own bases."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        prime=st.sampled_from([2, 3, 5, 7, 32003, 0]),
        kind=st.sampled_from(["dense", "sparse", "lowrank", "fewvars"]),
    )
    def test_heights_match_the_fitting_ideals(self, seed, prime, kind):
        # shapes 3x2 to 6x5 in 2 to 5 variables.  Quadric entries only up
        # to two columns, and over Q in at most 4 variables: there a basis
        # of quartic 2-minors in 5 variables, the route's or the oracle's,
        # can take from seconds to minutes of coefficient growth.  The
        # 4-minors of a linear matrix have t = 4: F_3 streams their terms
        # and F_5 their values
        rng = random.Random(seed)
        r = rng.randint(3, 6)
        c = rng.randint(2, r - 1)
        n = rng.randint(2, 5)
        d = rng.randint(1, 2) if c <= 2 and (prime or n <= 4) else 1
        ctx = RingCtx(tuple("x%d" % i for i in range(n)), FieldSpec(prime))
        M = random_forms_matrix(ctx, rng, r, c, d, kind)
        with pytest.MonkeyPatch.context() as patch:
            passes = echelon_passes(patch)
            sylvester = sylvester_passes(patch, passes)
            tables = check_Gm(M, math.inf).table, check_Fm(M, 0).table
        heights = [height(fitting_ideal(M, i)) for i in range(1, r)]
        G = tuple((i, r - i, h, i, h > i) for i, h in enumerate(heights, 1))
        F = tuple((i, r - i, h, i, h >= i) for i, h in enumerate(heights, 1))
        assert tables == (G, F)
        # each pass that read a nonzero form stops at dim S_t pivots, t
        # the degree of its forms, and exactly there: the last form it
        # read made the last pivot.  A pass of terms reads t off a form.
        # A pass of values, whose rows are keyed by lattice point, below
        # its stop, has one of the degrees k*d of the minors, with p > t.
        # Each index makes one pass at most: the indices have distinct
        # degrees t, so distinct stops, and no pass of terms follows one
        # of values of the same index.  The coprimality test's Sylvester
        # passes read no forms
        stops = [stop for k, (stop, *_) in enumerate(passes) if k not in sylvester]
        assert len(set(stops)) == len(stops)
        for k, (stop, rows, _, _, read) in enumerate(passes):
            nonzero = [f for f in read if f]
            if not nonzero or k in sylvester:
                continue
            q = prime
            if max(max(f) for f in nonzero) < stop:
                [t] = [j * d for j in range(1, c + 1) if math.comb(n - 1 + j * d, j * d) == stop]
                assert prime == 0 or prime > t
                q = prime or conditions._VALUE_PRIME
            else:
                t = sum(ctx.packing.unpack(max(nonzero[0])))
                assert stop == math.comb(n - 1 + t, t)
            if rows == stop:
                fresh = groebner._Budget(10**6)
                forms = [groebner._integral(f, q)[0] for f in read]
                assert len(groebner._gauss_jordan(forms[:-1], q, fresh)) == stop - 1
            else:
                assert rows < stop

    def test_values_that_vanish_mod_q_claim_no_span(self, monkeypatch):
        # over Q the values are taken mod one prime q, so entries whose
        # coefficients are all multiples of q have values 0: Fitt_2's
        # pass of values reads no row, and its 18 quadric 2-minors take
        # the run, with no pass of their terms.  Fitt_1's two coprime
        # cubic 3-minors are read on the line, over Q itself
        q = conditions._VALUE_PRIME
        ctx = RingCtx(("x0", "x1", "x2"), QQ)
        rng = random.Random(4)
        linear = list(monomials_of_degree(3, 1))
        M = PresentationMatrix(
            ctx,
            [[Poly(ctx, {m: q * rng.randint(1, 9) for m in linear}) for _ in range(3)] for _ in range(4)],
        )
        passes = echelon_passes(monkeypatch)
        sylvester = sylvester_passes(monkeypatch, passes)
        runs = buchberger_runs(monkeypatch)
        heights = [row[2] for row in check_Fm(M, 0).table]
        assert runs == [18]
        assert heights == [height(fitting_ideal(M, i)) for i in range(1, 4)] == [2, 3, 3]
        assert sylvester == {0}
        assert [(stop, rows, len(read)) for stop, rows, _, _, read in passes] == [
            (6, 6, 6),
            (6, 0, 0),
        ]

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        prime=st.sampled_from([2, 3, 5, 7, 32003, 0]),
        degrees=st.lists(st.integers(1, 2), min_size=1, max_size=3),
        extra=st.integers(1, 2),
        n=st.integers(2, 4),
    )
    def test_column_degrees_match_the_fitting_ideals(self, seed, prime, degrees, extra, n):
        # column j of forms of degree mu_j, in c+1 or c+2 rows: the stream
        # raises each minor to the top degree, and Fitt_1 of a (c+1) x c
        # matrix may be read off two coprime minors; the heights must be
        # those of the Fitting ideals' own bases
        rng = random.Random(seed)
        ctx = RingCtx(tuple("x%d" % i for i in range(n)), FieldSpec(prime))
        r = len(degrees) + extra
        M = PresentationMatrix(
            ctx, [[random_form(ctx, rng, d) for d in degrees] for _ in range(r)]
        )
        heights = [height(fitting_ideal(M, i)) for i in range(1, r)]
        assert [row[2] for row in check_Fm(M, 0).table] == heights

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        prime=st.sampled_from([2, 3, 5, 7, 32003, 0]),
        rows=st.lists(st.integers(0, 1), min_size=4, max_size=5),
        n=st.integers(3, 4),
    )
    def test_graded_matrices_match_the_fitting_ideals(self, seed, prime, rows, n):
        # entry (i, j) of a (c+1) x c matrix a form of degree a_i, so
        # rows of constants: a maximal minor that drops the one row of
        # positive degree is a constant, which may be read after three
        # coprime forms; the heights must be those of the Fitting ideals
        rng = random.Random(seed)
        ctx = RingCtx(tuple("x%d" % i for i in range(n)), FieldSpec(prime))
        c = len(rows) - 1
        M = PresentationMatrix(ctx, [[random_form(ctx, rng, a) for _ in range(c)] for a in rows])
        heights = [height(fitting_ideal(M, i)) for i in range(1, c + 1)]
        assert [row[2] for row in check_Fm(M, 0).table] == heights

    def test_lower_degrees_are_raised_before_the_span(self, monkeypatch):
        # the entries x, y and four quadrics in (x, y) generate (x, y), of
        # height 2; unraised, their 2 + 4 rows of terms would count as the
        # 6 pivots of S_2 and claim height 3
        _, M = mat(("x", "y", "z"), [["x", "z*x"], ["y", "z*y"], ["x", "y^2"], ["y", "x^2"]])
        heights = [height(fitting_ideal(M, i)) for i in range(1, 4)]
        assert heights[2] == 2
        assert [row[2] for row in check_Fm(M, 0).table] == heights
        # column degrees 1, 1, 2: the 3 quadric and 6 cubic 2-minors
        # stream their values at the 10 points of degree 3, each quadric
        # times x, y and z, and the 12th row read fills the 10th pivot.
        # A value list is a form's values there, so an unraised quadric q
        # counts as q*(x + y + z)/3, in the ideal: its 9 rows could not
        # span, and the terms would have to
        _, M = mat(("x", "y", "z"), [["x", "y", "z^2"], ["y", "z", "x^2"], ["z", "x + y", "x*y"]])
        passes = echelon_passes(monkeypatch)
        assert [row[2] for row in check_Fm(M, 0).table] == [3, 3]
        assert [height(fitting_ideal(M, i)) for i in (1, 2)] == [3, 3]
        assert [(stop, rows, len(read)) for stop, rows, _, _, read in passes] == [(10, 10, 12)]

    def test_unit_minor_after_three_coprime_ones(self):
        # the first three maximal minors x, -y, z are coprime forms, but
        # the fourth is 1, so Fitt_1 is the unit ideal, not of height 2
        _, M = mat(("x", "y", "z"), [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"], ["x", "y", "z"]])
        heights = [height(fitting_ideal(M, i)) for i in range(1, 4)]
        assert heights == [math.inf] * 3
        assert [row[2] for row in check_Fm(M, 0).table] == heights
        assert check_Fm(M, 2).verdict

    def test_stream_stops_at_the_spanning_pivot(self, monkeypatch):
        # Fitt_1's pass is the Sylvester matrix of two quintic 5-minors on
        # a line, 10 rows of full rank, so no stream; Fitt_2 stops at the
        # 35th quartic 4-minor, whose 35 pivots fill S_4, and reads no 36th
        passes = echelon_passes(monkeypatch)
        check_Gm(linear_6x5(), 4)
        assert [(stop, rows, len(read)) for stop, rows, _, _, read in passes] == [
            (10, 10, 10),
            (35, 35, 35),
        ]

    def test_span_passes_read_raised_rows(self, monkeypatch):
        # every stopped pass of the span tests reads the rows of the one
        # generator `_raised`: the height pass of a linear 6x5 matrix in 4
        # variables (the shape of the benchmark's `conditions m65`), the
        # Koszul exit of `degree` on a (2, 2) Hilbert-Burch map, and a
        # coprimality test
        raised, passes = conditions._raised, []

        class Raised:
            def __init__(self, rows):
                self.rows = rows

            def __iter__(self):
                return iter(self.rows)

        def spied(gauss_jordan):
            def spy(block, p, budget, stop=None):
                if stop is not None:
                    passes.append(type(block))
                return gauss_jordan(block, p, budget, stop)

            return spy

        for module in (conditions, blowup):
            monkeypatch.setattr(module, "_raised", lambda *args: Raised(raised(*args)))
            monkeypatch.setattr(module, "_gauss_jordan", spied(module._gauss_jordan))
        check_Fm(linear_6x5(), 0)
        assert passes == [Raised] * 2
        fam = make_family(FamilySpec("hilbert_burch", r=2, mu=(2, 2)))
        assert degree_report(rational_map(fam.forms)).deg_map == 4
        assert passes == [Raised] * 4
        assert conditions._coprime({0: 1}, {3: 1}, 3, 7)
        assert passes == [Raised] * 5

    def test_sylvester_rows_are_charged(self):
        # s^d and t^d: the 2d rows of their Sylvester block have distinct
        # leads, so no row operation is made; each row is one product of
        # `_raised`, one step of the budget
        d = 4
        with groebner.step_budget(2 * d):
            assert conditions._coprime({0: 1}, {d: 1}, d, 32003)
        with pytest.raises(groebner.BudgetExceeded), groebner.step_budget(2 * d - 1):
            conditions._coprime({0: 1}, {d: 1}, d, 32003)


class TestPfaffianRoute:
    """On an alternating matrix, G_m and F_m read each height off the
    ideal of 2 ceil(k/2)-sub-Pfaffians in place of the k-minors; the
    minor route through `fitting_ideal` stays their oracle."""

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        prime=st.sampled_from([2, 7, 32003, 0]),
        kind=st.sampled_from(["forms", "graded", "mixed", "lowrank"]),
        data=st.data(),
    )
    def test_heights_match_the_minor_oracle(self, seed, prime, kind, data):
        # kept small: over Q, and with inhomogeneous minors, the oracle's
        # bases of 6- and 7-minors take many seconds
        small = prime == 0 or kind == "mixed"
        n = data.draw(st.integers(3, 5 if small else 7), label="n")
        nvars = data.draw(st.integers(2, 4 if n < 5 else 3), label="nvars")
        ctx = RingCtx(tuple("x%d" % i for i in range(nvars)), FieldSpec(prime))
        M = random_alternating(ctx, random.Random(seed), n, kind)
        got = outcome(lambda: (check_Gm(M, math.inf).table, check_Fm(M, 0).table))

        def oracle():
            N = PresentationMatrix(ctx, M.entries)
            heights = [height(fitting_ideal(N, i)) for i in range(1, n)]
            G = tuple((i, n - i, h, i, h > i) for i, h in enumerate(heights, 1))
            F = tuple((i, n - i, h, i, h >= i) for i, h in enumerate(heights, 1))
            return G, F

        assert got == outcome(oracle)

    def test_inhomogeneous_pfaffians_take_a_height(self, tmp_path, capsys):
        # a draw of the test above, seed 260195 over F_32003 of kind
        # "mixed" at n = 5 in 3 variables: its 4-Pfaffians are not
        # homogeneous, though its 4- and 3-minors are.  The height is read
        # off the leads of a basis, so the route answers what the minor
        # oracle answers, and `conditions` exits 0, not 2
        ctx = RingCtx(("x0", "x1", "x2"), FieldSpec(32003))
        M = random_alternating(ctx, random.Random(260195), 5, "mixed")
        assert not groebner._homogeneous([g.terms for g in pfaffians(M, 4)])
        N = PresentationMatrix(ctx, M.entries)
        assert [height(fitting_ideal(N, i)) for i in range(1, 5)] == [3, 3, 3, 3]
        assert [row[2] for row in check_Fm(M, 0).table] == [3, 3, 3, 3]
        path = tmp_path / "mixed.txt"
        path.write_text(serialize_matrix(M))
        assert main(["conditions", "--matrix", str(path), "--format", "text"]) == 0
        assert capsys.readouterr().err == ""

    def test_alternating_matrix_expands_no_minor(self, monkeypatch):
        # a minor's balanced tuple holds an index past the rows
        balanced = []
        pfaffian = conditions._pfaffian

        def spy(entries, memo, idx, p):
            balanced.append(max(idx) >= len(entries))
            return pfaffian(entries, memo, idx, p)

        monkeypatch.setattr(conditions, "_pfaffian", spy)
        fam = make_family(FamilySpec("pfaffian", r=4, D=1, seed=3))
        M = PresentationMatrix(fam.ctx, fam.matrix.entries)
        check_Gm(M, 5)
        check_Fm(M, 0)
        assert balanced and not any(balanced)
        assert vars(M).keys() == {"ctx", "entries", "heights"}
        # one entry's sign flipped: square, zero diagonal, not alternating
        rows = [list(row) for row in M.entries]
        rows[0][1] = -rows[0][1]
        del balanced[:]
        check_Gm(PresentationMatrix(M.ctx, rows), 5)
        assert all(balanced)

    def test_minor_sizes_share_a_pfaffian_ideal(self, monkeypatch):
        # minor sizes 4 and 3 read the 4-Pfaffians, sizes 2 and 1 the
        # entries; the one pass behind G_5 and F_0 reads each ideal once.
        # The 5 quadric 4-Pfaffians cannot fill the 15 pivots of S_2, so
        # they stream nothing and take one handle and one basis.  The
        # linear entries span S_1 in one echelon pass and take neither.
        fam = make_family(FamilySpec("pfaffian", r=4, D=1, seed=3))
        M = PresentationMatrix(fam.ctx, fam.matrix.entries)
        handles = []
        handle = conditions.IdealHandle
        monkeypatch.setattr(
            conditions, "IdealHandle", lambda ctx, gens: handles.append(gens) or handle(ctx, gens)
        )
        runs, passes = buchberger_runs(monkeypatch), echelon_passes(monkeypatch)
        G, F = check_Gm(M, 5).table, check_Fm(M, 0).table
        assert G == F == TestGoldenCertificates.PFAFFIAN
        assert [(stop, rows) for stop, rows, *_ in passes] == [(5, 5)]
        assert runs == [5]
        [gens] = handles
        assert gens == pfaffians(M, 4)

    def test_pfaffians_of_a_handmade_matrix(self):
        ctx, M = mat(
            ("a", "b", "c", "d", "e", "f"),
            [
                ["0", "a", "b", "c"],
                ["-a", "0", "d", "e"],
                ["-b", "-d", "0", "f"],
                ["-c", "-e", "-f", "0"],
            ],
        )
        assert pfaffians(M, 4) == [parse_poly("a*f - b*e + c*d", ctx)]
        assert [str(g) for g in pfaffians(M, 2)] == ["a", "b", "c", "d", "e", "f"]
