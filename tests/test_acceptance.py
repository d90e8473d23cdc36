"""End-to-end acceptance runs for the whole library.

Each test covers one acceptance criterion and reports one PASS/FAIL
line in the terminal summary.  The heavy inputs are fixed families with
frozen seeds; the property suites draw at least 100 randomized cases
each from seeded generators.
"""

import itertools
import random
import time
from contextlib import contextmanager

import certificate
import conftest
import sweep_oracle
from reesdeg.blowup import specialization_compare
from reesdeg.conditions import PresentationMatrix, check_Fm, check_Gm, signed_maximal_minors
from reesdeg.families import FamilySpec, j_multiplicity, make_family, specialization_sweep
from reesdeg.groebner import groebner_basis, ideal, ideal_equal, saturate
from reesdeg.hilbert import (
    count_standard_monomials,
    dim_degree,
    hilbert_function,
    lead_ideal,
)
from reesdeg.ratmap import degree_map, degree_report, rational_map, sfib_hilbert_function
from reesdeg.ring import FieldSpec, Poly, RingCtx, monomials_of_degree, parse_poly

FP = FieldSpec(32003)


@contextmanager
def criterion(tag, label):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        conftest.ACCEPTANCE_RESULTS.append("FAIL criterion %s: %s" % (tag, label))
        raise
    elapsed = time.monotonic() - start
    conftest.ACCEPTANCE_RESULTS.append(
        "PASS criterion %s: %s (%.1fs)" % (tag, label, elapsed)
    )


def nonzero_form(ctx, rng, d, density=1.0):
    p = ctx.field.characteristic
    while True:
        terms = {}
        for mon in monomials_of_degree(ctx.nvars, d):
            if rng.random() < density:
                terms[mon] = rng.randrange(p) if p else rng.randint(-9, 9)
        f = Poly(ctx, terms)
        if f:
            return f


def test_criterion_1_parametric_sweep_degree_drop():
    """Degree drop along a one-parameter cubic family: the special point
    a=0 gives a birational member, generic a gives map degree m."""
    with criterion("1", "parametric sweep shows the degree drop at a=0"):
        for m in (2, 3):
            fam = make_family(FamilySpec("dejonquieres", m=m))
            for point, expected in ((0, 1), (1, m)):
                start = time.monotonic()
                rows = specialization_sweep(fam, [point])
                assert time.monotonic() - start <= 60.0
                assert rows[0].status == "ok"
                assert rows[0].deg_map == expected
                assert rows[0].deg_image == 1


def test_criterion_2_gr_dimension_over_rationals():
    """Special fiber dimension of the associated graded ring over Q:
    4 at the special point, 3 at a generic one."""
    with criterion("2", "gr special fiber dimension over Q jumps 3 -> 4 at a=0"):
        start = time.monotonic()
        fam = make_family(FamilySpec("dejonquieres", m=2, prime=0))
        assert [fam.gr_dimension((a,)) for a in (0, 1)] == [4, 3]
        # a = 1 is certified; its gr basis, as the oracle reads it, agrees
        rows = sweep_oracle.gr_dim_rows(fam, [(0,), (1,)])
        assert [row["gr_dim"] for row in rows] == [4, 3]
        assert time.monotonic() - start <= 300.0


def test_criterion_3_three_by_two_degree_law():
    """Signed-minor maps from random 3x2 matrices with column degrees
    (mu1, mu2): whenever G_3 holds, deg(map) * deg(image) = mu1 * mu2."""
    with criterion("3", "3x2 minor maps obey deg = mu1*mu2 under G_3"):
        for mu in ((1, 1), (1, 2), (2, 2)):
            for seed in range(1, 6):
                start = time.monotonic()
                fam = make_family(
                    FamilySpec("hilbert_burch", r=2, mu=mu, seed=seed)
                )
                assert check_Gm(fam.matrix, 3).verdict is True
                rep = degree_report(rational_map(fam.forms))
                assert rep.deg_map * rep.deg_image == mu[0] * mu[1]
                assert time.monotonic() - start <= 120.0


def test_criterion_4_degree_bound_under_F0():
    """Ten plane instances satisfying F_0, three of them deliberately
    degenerate: the degree product never exceeds mu1 * mu2 (a map that
    is not generically finite counts as degree 0)."""
    with criterion("4", "deg <= mu1*mu2 over ten F_0 instances"):
        instances = []
        mus = [(1, 1), (1, 2), (2, 2)]
        seed = 100
        while len(instances) < 7:
            mu = mus[len(instances) % 3]
            fam = make_family(FamilySpec("hilbert_burch", r=2, mu=mu, seed=seed))
            seed += 1
            if not check_Fm(fam.matrix, 0).verdict:
                continue
            instances.append((fam.matrix, tuple(fam.forms), mu))
        ctx = RingCtx(("x", "y", "z"), FP)
        handmade = [
            # collapses onto a conic: not generically finite
            ([["x", "0"], ["-y", "x"], ["0", "y"]], (1, 1)),
            # sparse but finite
            ([["x", "z"], ["-y", "x"], ["0", "y"]], (1, 1)),
            # mixed column degrees
            ([["x", "y*z"], ["-y", "x*z"], ["z", "x*y"]], (1, 2)),
        ]
        for rows, mu in handmade:
            M = PresentationMatrix(
                ctx, [[parse_poly(e, ctx) for e in row] for row in rows]
            )
            instances.append((M, tuple(signed_maximal_minors(M)), mu))
        assert len(instances) == 10
        for M, forms, mu in instances:
            start = time.monotonic()
            assert check_Fm(M, 0).verdict is True
            rep = degree_report(rational_map(forms))
            dm = rep.deg_map if isinstance(rep.deg_map, int) else 0
            di = rep.deg_image if isinstance(rep.deg_image, int) else 0
            assert dm * di <= mu[0] * mu[1]
            assert time.monotonic() - start <= 120.0


def test_criterion_5_pfaffian_birational():
    """Linear-entry alternating 5x5 matrix: the submaximal Pfaffians give
    a birational map of P^4 satisfying G_5, and the degree report
    reproduces deg_map = 1 onto all of P^4."""
    with criterion("5", "5x5 alternating Pfaffian map is birational under G_5"):
        fam = make_family(FamilySpec("pfaffian", r=4, D=1, seed=3))
        assert check_Gm(fam.matrix, 5).verdict is True
        for i in range(5):
            total = Poly.zero(fam.ctx)
            for j in range(5):
                total = total + fam.matrix.entries[i][j] * fam.forms[j]
            assert not total
        rep = degree_report(rational_map(fam.forms))
        assert rep.deg_map == 1
        assert rep.dim_image == 4
        assert rep.deg_image == 1


def test_criterion_6_saturated_fiber_multiplicity():
    """Hilbert function of the saturated fiber algebra of (x0^2, x1^2)
    grows linearly with slope deg(map) * deg(image) = 2."""
    with criterion("6", "saturated fiber Hilbert function has slope deg_map*deg_image"):
        ctx = RingCtx(("x0", "x1"), FP)
        forms = [parse_poly("x0^2", ctx), parse_poly("x1^2", ctx)]
        values = [sfib_hilbert_function(rational_map(forms), n) for n in range(6)]
        assert values == [1, 3, 5, 7, 9, 11]
        diffs = {b - a for a, b in zip(values, values[1:])}
        assert diffs == {2}
        rep = degree_report(rational_map(forms))
        assert rep.deg_map * rep.deg_image == 2


def box_multiplicity(gens_exponents):
    """Normalized leading coefficient of the length polynomial of a
    monomial ideal in two variables, via direct lattice counting."""

    def length(n):
        powers = []
        for combo in itertools.combinations_with_replacement(
            range(len(gens_exponents)), n
        ):
            a = sum(gens_exponents[i][0] for i in combo)
            b = sum(gens_exponents[i][1] for i in combo)
            powers.append((a, b))
        bound = max(max(a, b) for a, b in powers) + 1
        count = 0
        for x in range(bound):
            for y in range(bound):
                if not any(x >= a and y >= b for a, b in powers):
                    count += 1
        return count

    second = [length(n + 2) - 2 * length(n + 1) + length(n) for n in (2, 3)]
    assert second[0] == second[1]
    return second[0]


def test_criterion_7_j_multiplicity_matches_box_count():
    """j-multiplicity of two zero-dimensional monomial ideals in the
    plane agrees with the lattice-count multiplicity."""
    with criterion("7", "j-multiplicity matches lattice counting on monomial ideals"):
        ctx = RingCtx(("x", "y"), FP)
        cases = [
            (["x^2", "y^2"], [(2, 0), (0, 2)]),
            (["x^2", "x*y", "y^2"], [(2, 0), (1, 1), (0, 2)]),
        ]
        for texts, exps in cases:
            spec = rational_map([parse_poly(t, ctx) for t in texts])
            assert j_multiplicity(spec) == box_multiplicity(exps)


def test_criterion_8_specialization_kind_jump():
    """Specializing the generic Rees basis: isomorphism at random
    nonzero parameters, proper kernel at a=0."""
    with criterion("8", "Rees specialization is iso generically, proper at a=0"):
        start = time.monotonic()
        fam = make_family(FamilySpec("dejonquieres", m=2))
        forms = list(fam.forms)
        rng = random.Random(88)
        for _ in range(3):
            a = rng.randrange(1, 32003)
            result = specialization_compare(forms, (a,), fam.generic_rees)
            assert result.kind == "isomorphism"
        special = specialization_compare(forms, (0,), fam.generic_rees)
        assert special.kind == "proper_kernel"
        assert special.witness is not None
        assert time.monotonic() - start <= 300.0


# ---------------------------------------------------------------------------
# criterion 9: randomized property suites, >= 100 cases each
# ---------------------------------------------------------------------------


def test_criterion_9a_spair_closure():
    """Every computed basis satisfies the S-pair reduction criterion."""
    with criterion("9a", "100 random bases pass the S-pair closure check"):
        rng = random.Random(901)
        cases = 0
        while cases < 100:
            n = rng.randint(2, 3)
            ctx = RingCtx(tuple("xyz"[:n]), FieldSpec(rng.choice([0, 7, 32003])))
            gens = []
            for _ in range(rng.randint(1, 3)):
                terms = {}
                for _ in range(rng.randint(1, 3)):
                    mon = tuple(rng.randint(0, 3) for _ in range(n))
                    p = ctx.field.characteristic
                    terms[mon] = rng.randrange(p) if p else rng.randint(-9, 9)
                g = Poly(ctx, terms)
                if g:
                    gens.append(g)
            if not gens:
                continue
            basis = [g.terms for g in groebner_basis(ideal(ctx, gens))]
            p = ctx.field.characteristic
            certificate.certify(basis, ctx.packing, p, [g.terms for g in gens])
            cases += 1
        assert cases >= 100


def test_criterion_9b_saturation_idempotent():
    """Saturating twice changes nothing, and the second run reports
    exponent zero."""
    with criterion("9b", "100 random saturations are idempotent"):
        rng = random.Random(902)
        cases = 0
        while cases < 100:
            n = rng.randint(2, 3)
            ctx = RingCtx(tuple("xyz"[:n]), FieldSpec(rng.choice([0, 32003])))
            gens = [
                nonzero_form(ctx, rng, rng.randint(1, 2), density=0.8)
                for _ in range(2)
            ]
            I = ideal(ctx, gens)
            J = ideal(ctx, [Poly.var(ctx, i) for i in range(n)])
            S = saturate(I, J)
            S2 = saturate(S, J)
            assert ideal_equal(S, S2)
            assert S2.sat_exponent == 0
            cases += 1
        assert cases >= 100


def test_criterion_9c_dimension_order_independent():
    """(dim, degree) of a homogeneous ideal is the same under grevlex,
    lex, and a block order."""
    with criterion("9c", "100 random (dim, degree) pairs agree across orders"):
        rng = random.Random(903)
        cases = 0
        while cases < 100:
            n = rng.randint(2, 3)
            names = tuple("xyz"[:n])
            char = rng.choice([0, 32003])
            seed_ctx = RingCtx(names, FieldSpec(char))
            texts = []
            for _ in range(rng.randint(1, 2)):
                f = nonzero_form(seed_ctx, rng, rng.randint(1, 3), density=0.8)
                texts.append(str(f))
            base = None
            for order in ("grevlex", "lex", ("block", 1)):
                ctx = RingCtx(names, FieldSpec(char), order=order)
                I = ideal(ctx, [parse_poly(t, ctx) for t in texts])
                s = dim_degree(I)
                if base is None:
                    base = (s.dim, s.degree)
                else:
                    assert (s.dim, s.degree) == base
            cases += 1
        assert cases >= 100


def test_criterion_9d_hilbert_function_counts_monomials():
    """The recursive Hilbert function equals brute-force counting of
    standard monomials up to degree 8."""
    with criterion("9d", "100 random Hilbert functions match direct counting"):
        rng = random.Random(904)
        cases = 0
        while cases < 100:
            n = rng.randint(1, 3)
            names = tuple("xyz"[:n])
            ctx = RingCtx(names, FieldSpec(rng.choice([0, 32003])))
            if cases % 3 == 0:
                gens = [
                    nonzero_form(ctx, rng, rng.randint(1, 3), density=0.8)
                    for _ in range(2)
                ]
                I = ideal(ctx, gens)
                mons = lead_ideal(I)
            else:
                picked = set()
                for _ in range(rng.randint(1, 5)):
                    m = tuple(rng.randint(0, 4) for _ in range(n))
                    if sum(m):
                        picked.add(m)
                if not picked:
                    continue
                mons = sorted(picked)
                I = ideal(ctx, [Poly.from_mon(ctx, m) for m in mons])
            for k in range(9):
                assert hilbert_function(I, k) == count_standard_monomials(
                    mons, n, k
                )
            cases += 1
        assert cases >= 100


def test_criterion_9e_degree_ignores_representative():
    """Multiplying every coordinate by a common form leaves the map
    degree unchanged."""
    with criterion("9e", "100 random maps keep their degree under rescaling"):
        rng = random.Random(905)
        ctx = RingCtx(("x0", "x1"), FP)
        cases = 0
        while cases < 100:
            s = 1 + cases % 2
            d = rng.choice([1, 2])
            forms = [nonzero_form(ctx, rng, d) for _ in range(s + 1)]
            h = nonzero_form(ctx, rng, 1)
            base = degree_map(rational_map(forms))[0]
            scaled = degree_map(rational_map([h * f for f in forms]))[0]
            assert base == scaled
            cases += 1
        assert cases >= 100


# --- binary-form gcd toolkit over F_7, used only by criterion 9f ----------

P7 = 7


def _utrim(c):
    while c and c[-1] % P7 == 0:
        c.pop()
    return c


def _umod(a, b):
    a = a[:]
    inv = pow(b[-1], -1, P7)
    while a and len(a) >= len(b):
        k = (a[-1] * inv) % P7
        shift = len(a) - len(b)
        for i, bc in enumerate(b):
            a[shift + i] = (a[shift + i] - k * bc) % P7
        _utrim(a)
    return a


def _ugcd(a, b):
    a, b = _utrim(a[:]), _utrim(b[:])
    while b:
        a, b = b, _umod(a, b)
    return a


def _split_binary(f, d):
    coeffs = [0] * (d + 1)
    for mon, c in f.terms.items():
        coeffs[f.ctx.packing.unpack(mon)[0]] = int(c) % P7
    lo = min(i for i in range(d + 1) if coeffs[i])
    hi = max(i for i in range(d + 1) if coeffs[i])
    return lo, d - hi, coeffs[lo : hi + 1]


def binary_gcd_degree(forms, d):
    """Total degree (with multiplicity) of the gcd of binary forms of
    common degree d, via Euclid on the dehomogenized cores."""
    parts = [_split_binary(f, d) for f in forms if f]
    x0_mult = min(p[0] for p in parts)
    x1_mult = min(p[1] for p in parts)
    core = parts[0][2]
    for p in parts[1:]:
        core = _ugcd(core, p[2])
    return x0_mult + x1_mult + len(core) - 1


def test_criterion_9f_fiber_lengths_match_gcd_oracle():
    """For line-to-line maps over F_7, fiber lengths computed through
    saturation agree with exact gcd fiber counting at all but at most
    three image points, and never undershoot the map degree."""
    with criterion("9f", "100 maps over F_7 match the gcd fiber-count oracle"):
        rng = random.Random(906)
        ctx = RingCtx(("x0", "x1"), FieldSpec(P7))
        rational_points = [(1, t) for t in range(P7)] + [(0, 1)]
        cases = 0
        while cases < 100:
            s = 1 if cases % 5 < 3 else 2
            d = rng.choice([1, 2, 3])
            forms = [
                Poly(ctx, {(i, d - i): rng.randrange(P7) for i in range(d + 1)})
                for _ in range(s + 1)
            ]
            if not all(forms) or binary_gcd_degree(forms, d) != 0:
                continue
            spec = rational_map(forms)
            deg, _ = degree_map(spec)
            assert isinstance(deg, int)
            images = set()
            for p0, p1 in rational_points:
                q = tuple(int(g.evaluate([p0, p1])) % P7 for g in forms)
                if not any(q):
                    continue
                first = next(i for i, c in enumerate(q) if c)
                inv = pow(q[first], -1, P7)
                images.add(tuple((c * inv) % P7 for c in q))
            agree = 0
            for q in images:
                minors = []
                for i, j in itertools.combinations(range(s + 1), 2):
                    minors.append(forms[i].scale(q[j]) - forms[j].scale(q[i]))
                minors = [m for m in minors if m]
                fiber_deg = binary_gcd_degree(minors, d)
                assert fiber_deg >= deg
                if fiber_deg == deg:
                    agree += 1
            assert agree >= len(images) - 3
            assert agree >= min(len(images), P7 - 3)
            cases += 1
        assert cases >= 100
