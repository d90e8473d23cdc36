import itertools
import math
import random

import pytest

from conftest import in_order, nonzero_random_form
from reesdeg.groebner import groebner_basis, ideal
from reesdeg.hilbert import (
    count_standard_monomials,
    dim_degree,
    hilbert_function,
    hilbert_numerator,
    hilbert_value,
    lead_ideal,
    minimalize_monomials,
    monomial_dim_degree,
    weighted_numerator,
)
from reesdeg.ring import FieldSpec, RingCtx, RingError, monomial_divides, parse_poly

QQ = FieldSpec(0)


def mk(names, texts, field=QQ, order="grevlex"):
    ctx = RingCtx(tuple(names), field, order=order)
    return ctx, ideal(ctx, [parse_poly(t, ctx) for t in texts])


def random_monomial_ideal(rng, nvars, count, max_deg=4):
    mons = set()
    for _ in range(count):
        m = tuple(rng.randint(0, max_deg) for _ in range(nvars))
        if sum(m):
            mons.add(m)
    return sorted(mons)


class TestMinimalize:
    def test_drops_multiples(self):
        mons = [(2, 0), (3, 0), (2, 1), (0, 1)]
        assert sorted(minimalize_monomials(mons)) == [(0, 1), (2, 0)]

    def test_random_is_antichain(self):
        rng = random.Random(4)
        for _ in range(30):
            mons = random_monomial_ideal(rng, 3, 6)
            mini = minimalize_monomials(mons)
            for a in mini:
                for b in mini:
                    if a != b:
                        assert any(x < y for x, y in zip(a, b))


def weighted_standard_counts(mons, weights, top):
    """Brute-force counts of the monomials of weighted degree 0..top
    outside the monomial ideal of `mons`."""
    counts = [0] * (top + 1)
    for e in itertools.product(*(range(top // w + 1) for w in weights)):
        k = sum(a * w for a, w in zip(e, weights))
        if k <= top and not any(monomial_divides(g, e) for g in mons):
            counts[k] += 1
    return counts


class TestMinimalizeAgainstBruteForce:
    def test_same_generators_in_the_same_order(self):
        rng = random.Random(2024)
        for _ in range(60):
            nvars = rng.randint(1, 4)
            mons = [
                tuple(rng.randint(0, 6) for _ in range(nvars))
                for _ in range(rng.randint(1, 25))
            ]
            expected = sorted(
                {
                    m
                    for m in mons
                    if not any(g != m and monomial_divides(g, m) for g in mons)
                },
                key=lambda m: (sum(m), m),
            )
            assert minimalize_monomials(mons) == expected

    def test_large_exponents(self):
        mons = [(1 << 22, 0), (3, 1 << 20), (1 << 22, 1), (3, (1 << 20) + 5)]
        assert minimalize_monomials(mons) == [(3, 1 << 20), (1 << 22, 0)]


class TestWeightedNumerator:
    def test_matches_weighted_counting(self):
        rng = random.Random(1996)
        for _ in range(60):
            nvars = rng.randint(1, 4)
            weights = tuple(rng.randint(1, 3) for _ in range(nvars))
            mons = random_monomial_ideal(rng, nvars, rng.randint(1, 5), max_deg=3)
            numer = weighted_numerator(mons, weights)
            top = 10
            counts = weighted_standard_counts(mons, weights, top)
            assert [hilbert_value(numer, weights, k) for k in range(top + 1)] == counts
            # N(z) is the series times prod_v (1 - z^w_v), coefficient by
            # coefficient, up to the degree the counts reach
            series = counts
            for w in weights:
                series = [c - (series[k - w] if k >= w else 0) for k, c in enumerate(series)]
            assert series == [numer.get(k, 0) for k in range(top + 1)]

    def test_standard_grading_is_the_dense_numerator(self):
        rng = random.Random(7)
        for _ in range(30):
            nvars = rng.randint(1, 3)
            mons = random_monomial_ideal(rng, nvars, rng.randint(1, 5))
            dense = hilbert_numerator(mons, nvars)
            sparse = weighted_numerator(mons, (1,) * nvars)
            assert sparse == {k: c for k, c in enumerate(dense) if c}

    def test_sparse_with_huge_exponents(self):
        # one entry per term, and a pivot power instead of one recursion
        # level per unit of the exponent
        assert weighted_numerator([(5000, 0), (0, 5000)], (1, 1)) == {
            0: 1, 5000: -2, 10000: 1,
        }
        # two generators: 1 - z^deg(m1) - z^deg(m2) + z^deg(lcm)
        assert weighted_numerator([(1, 5000), (3000, 2)], (1, 1)) == {
            0: 1, 3002: -1, 5001: -1, 8000: 1,
        }
        # x*y^2 times an ideal of finite colength: the curve x*y^2 = 0
        s = monomial_dim_degree([(1, 5000), (3000, 2), (2, 4000)], 2)
        assert (s.dim, s.degree) == (1, 3)

    def test_graph_grading(self):
        # (y0, y1, y2) with y of weight d+1: (1 - z^(d+1))^3
        weights = (1, 1, 1, 5, 5, 5)
        ys = [tuple(int(v == 3 + i) for v in range(6)) for i in range(3)]
        assert weighted_numerator(ys, weights) == {0: 1, 5: -3, 10: 3, 15: -1}
        # the quotient is k[t, x0, x1]
        numer = weighted_numerator(ys, weights)
        assert [hilbert_value(numer, weights, k) for k in range(6)] == [
            math.comb(k + 2, 2) for k in range(6)
        ]


class TestNumerator:
    def test_frozen_example(self):
        # I = (x^2, x*y) in two variables
        assert hilbert_numerator([(2, 0), (1, 1)], 2) == (1, 0, -2, 1)

    def test_pure_powers_product(self):
        # (x^2, y^3): numerator (1-t^2)(1-t^3)
        assert hilbert_numerator([(2, 0), (0, 3)], 2) == (1, 0, -1, -1, 0, 1)

    def test_empty_and_unit(self):
        assert hilbert_numerator([], 3) == (1,)
        assert hilbert_numerator([(0, 0, 0)], 3) == (0,)

    def test_matches_counting_randomly(self):
        rng = random.Random(12)
        for _ in range(40):
            nvars = rng.randint(1, 3)
            mons = random_monomial_ideal(rng, nvars, rng.randint(1, 5))
            numer = hilbert_numerator(mons, nvars)
            for k in range(7):
                hf = sum(
                    c * math.comb(k - j + nvars - 1, nvars - 1)
                    for j, c in enumerate(numer)
                    if 0 <= k - j
                )
                assert hf == count_standard_monomials(mons, nvars, k)


class TestDimDegree:
    def test_zero_ideal(self):
        _, I = mk(("x", "y", "z"), [])
        s = dim_degree(I)
        assert (s.dim, s.degree) == (3, 1)
        assert s.proj_dim_of_scheme == 2

    def test_maximal_ideal(self):
        _, I = mk(("x", "y"), ["x", "y"])
        s = dim_degree(I)
        assert (s.dim, s.degree) == (0, 1)

    def test_hypersurface(self):
        _, I = mk(("x", "y", "z"), ["x^3 + y^3 + z^3"])
        s = dim_degree(I)
        assert (s.dim, s.degree) == (2, 3)

    def test_unit_ideal(self):
        _, I = mk(("x", "y"), ["x", "x + 1"])
        s = dim_degree(I)
        assert s.dim is None
        assert s.degree is None

    def test_twisted_cubic(self):
        _, I = mk(
            ("y0", "y1", "y2", "y3"),
            ["y2^2 - y1*y3", "y1*y2 - y0*y3", "y1^2 - y0*y2"],
        )
        s = dim_degree(I)
        assert (s.dim, s.proj_dim_of_scheme, s.degree) == (2, 1, 3)

    def test_inhomogeneous_rejected(self):
        _, I = mk(("x", "y"), ["x^2 - y"])
        with pytest.raises(RingError):
            dim_degree(I)

    def test_homogeneous_ideal_of_inhomogeneous_generators(self):
        # the ideal is (x^2*z^2, x*y*z, y^2*z); its minimal basis keeps the
        # inhomogeneous first generator, its reduced basis does not
        _, I = mk(("x", "y", "z"), ["x^2*z^2 - x*y*z - y^2*z", "x^2*z^2", "x*y*z"])
        _, J = mk(("x", "y", "z"), ["x^2*z^2", "x*y*z", "y^2*z"])
        assert dim_degree(I) == dim_degree(J)
        assert [g.terms for g in groebner_basis(I)] == [g.terms for g in groebner_basis(J)]

    def test_weighted_ring_rejected(self):
        ctx = RingCtx(("x", "y", "a"), QQ, n_params=1)
        I = ideal(ctx, [parse_poly("x", ctx)])
        with pytest.raises(RingError):
            dim_degree(I)

    def test_char_p_conic(self):
        _, I = mk(("y0", "y1", "y2"), ["y1^2 - y0*y2"], field=FieldSpec(32003))
        s = dim_degree(I)
        assert (s.dim, s.degree) == (2, 2)


class TestHilbertFunction:
    def test_zero_ideal_plane(self):
        _, I = mk(("x", "y"), [])
        assert hilbert_function(I, 3) == 4

    def test_frozen_example(self):
        _, I = mk(("x", "y"), ["x^2", "x*y"])
        assert hilbert_function(I, 5) == 1
        assert [hilbert_function(I, k) for k in range(-2, 4)] == [0, 0, 1, 2, 1, 1]

    def test_twisted_cubic_values(self):
        _, I = mk(
            ("y0", "y1", "y2", "y3"),
            ["y2^2 - y1*y3", "y1*y2 - y0*y3", "y1^2 - y0*y2"],
        )
        assert [hilbert_function(I, k) for k in range(1, 5)] == [4, 7, 10, 13]

    def test_general_ideal_matches_lead_ideal_count(self):
        rng = random.Random(77)
        for _ in range(15):
            nv = rng.randint(2, 3)
            names = tuple("x%d" % i for i in range(nv))
            ctx = RingCtx(names, FieldSpec(rng.choice([0, 32003])))
            gens = [
                nonzero_random_form(ctx, rng, rng.randint(1, 3))
                for _ in range(rng.randint(1, 2))
            ]
            I = ideal(ctx, gens)
            leads = [g.lm() for g in groebner_basis(I)]
            if (0,) * nv in leads:
                continue
            for k in range(6):
                assert hilbert_function(I, k) == count_standard_monomials(
                    leads, nv, k
                )


class TestLeadIdeal:
    def test_lead_ideal_monomials(self):
        _, I = mk(("x", "y", "z"), ["x^2 - y*z", "x*y - z^2"])
        L = lead_ideal(I)
        assert (2, 0, 0) in L
        assert L == minimalize_monomials(L)

    def test_leads_taken_in_the_requested_order(self):
        texts = ["x*z - y^2", "y - z^2"]
        _, lex = mk(("x", "y", "z"), texts, field=FieldSpec(32003), order="lex")
        _, grevlex = mk(("x", "y", "z"), texts, field=FieldSpec(32003))
        assert lead_ideal(lex) == [(0, 1, 0), (1, 0, 1)]
        assert lead_ideal(grevlex) == [(0, 0, 2), (0, 2, 0)]
        for I in (lex, grevlex):
            assert sorted(g.lm() for g in groebner_basis(I)) == sorted(lead_ideal(I))

    @pytest.mark.parametrize("char", [32003, 7, 0], ids=["F_32003", "F_7", "QQ"])
    def test_leads_of_the_reduced_basis(self, char):
        # sorted by (degree, exponents), minimal and one per basis element,
        # and the leads of the reduced basis in each ring's own order
        rng = random.Random(90 + char)
        for _ in range(12):
            n = rng.randint(2, 4)
            ctx = RingCtx(tuple("x%d" % i for i in range(n)), FieldSpec(char))
            gens = [nonzero_random_form(ctx, rng, rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
            I = ideal(ctx, gens)
            k = rng.randint(1, n - 1)
            for order in ("lex", ("block", k), ("blocks", (k, n - k))):
                J = in_order(I, order)
                L = lead_ideal(J)
                assert L == sorted(L, key=lambda m: (sum(m), m))
                assert L == minimalize_monomials(L)
                G = groebner_basis(J)
                assert sorted(g.lm() for g in G) == sorted(L)

    def test_monomial_dim_degree_matches_dim_degree(self):
        _, I = mk(
            ("y0", "y1", "y2", "y3"),
            ["y2^2 - y1*y3", "y1*y2 - y0*y3", "y1^2 - y0*y2"],
        )
        assert monomial_dim_degree(lead_ideal(I), 4) == dim_degree(I)
        assert monomial_dim_degree([], 2).degree == 1
        assert monomial_dim_degree([(0, 0)], 2).dim is None

    def test_dim_degree_order_invariance_spot(self):
        _, I = mk(
            ("y0", "y1", "y2", "y3"),
            ["y2^2 - y1*y3", "y1*y2 - y0*y3", "y1^2 - y0*y2"],
        )
        base = dim_degree(I)
        for order in ("lex", ("block", 1), ("block", 2)):
            ctx2 = RingCtx(("y0", "y1", "y2", "y3"), QQ, order=order)
            J = ideal(ctx2, [parse_poly(str(g), ctx2) for g in I.gens])
            s = dim_degree(J)
            assert (s.dim, s.degree) == (base.dim, base.degree)
