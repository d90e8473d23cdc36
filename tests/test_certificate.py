"""The basis certificate of `certificate` against the engine: engine
bases pass it, and bases with a fault the engine could make fail it."""

import pytest
from hypothesis import given, settings, strategies as st

import certificate
import reesdeg.groebner as gb_mod
from conftest import certify_bases
from reesdeg.blowup import rees_ideal
from reesdeg.groebner import groebner_basis, ideal
from reesdeg.ring import FieldSpec, Poly, RingCtx, monomials_of_degree, parse_poly

FIELDS = [FieldSpec(7), FieldSpec(32003), FieldSpec(0)]


@st.composite
def form_ideals(draw):
    """2-3 forms of degree 1-3 in three variables over F_7, F_32003 or
    Q, each with 1-4 terms, in a grevlex ring or one of two blocks."""
    field = draw(st.sampled_from(FIELDS))
    order = draw(st.sampled_from(["grevlex", ("blocks", (1, 2))]))
    ctx = RingCtx(("x0", "x1", "x2"), field, order)
    p = field.characteristic
    coeff = st.integers(1, p - 1) if p else st.integers(-9, 9).filter(bool)
    gens = []
    for _ in range(draw(st.integers(2, 3))):
        mons = list(monomials_of_degree(3, draw(st.integers(1, 3))))
        chosen = draw(st.lists(st.sampled_from(mons), min_size=1, max_size=4, unique=True))
        gens.append(Poly(ctx, {m: draw(coeff) for m in chosen}))
    return ideal(ctx, gens)


def mutants(reduced):
    """(dropped, changed, unreduced) of a reduced basis, packed term dicts
    sorted by lead: without its last row; with the first coefficient of
    a tail changed (None when no row has a tail); with the first row
    added to the last, a minimal basis that is not reduced (None for one
    row)."""
    dropped = reduced[:-1]
    changed = None
    for i, t in enumerate(reduced):
        tail = [m for m in t if m != max(t)]
        if tail:
            row = dict(t)
            row[tail[0]] += 1
            changed = reduced[:i] + [row] + reduced[i + 1 :]
            break
    unreduced = None
    if len(reduced) > 1:
        last = dict(reduced[-1])
        for m, c in reduced[0].items():
            last[m] = last.get(m, 0) + c
        unreduced = reduced[:-1] + [last]
    return dropped, changed, unreduced


class TestCertificate:
    @settings(max_examples=120, deadline=None)
    @given(form_ideals())
    def test_engine_bases_pass_and_mutants_fail(self, I):
        ctx = I.ctx
        pk, p = ctx.packing, ctx.field.characteristic
        gens = [g.terms for g in I.gens]
        minimal = list(gb_mod._basis(I))
        certificate.certify(minimal, pk, p, gens)
        reduced = [g.terms for g in groebner_basis(I)]
        certificate.certify(reduced, pk, p, gens)
        certificate.certify_reduction(reduced, minimal, pk.guard, p)
        dropped, changed, unreduced = mutants(reduced)
        with pytest.raises(AssertionError, match="certificate"):
            certificate.certify(dropped, pk, p, gens)
        if changed is not None:
            with pytest.raises(AssertionError, match="certificate"):
                certificate.certify(changed, pk, p, gens)
        if unreduced is not None:
            # a minimal Groebner basis, given as the reduced one
            certificate.certify(unreduced, pk, p, gens)
            with pytest.raises(AssertionError, match="not reduced"):
                certificate.certify_reduction(unreduced, minimal, pk.guard, p)

    @pytest.mark.parametrize("field", FIELDS, ids=["F_7", "F_32003", "QQ"])
    def test_twisted_cubic_mutants_fail(self, field):
        # the twisted cubic: three rows, each with a tail
        ctx = RingCtx(("x", "y", "z", "w"), field)
        texts = ["x*z - y^2", "x*w - y*z", "y*w - z^2"]
        I = ideal(ctx, [parse_poly(t, ctx) for t in texts])
        pk, p = ctx.packing, ctx.field.characteristic
        reduced = [g.terms for g in groebner_basis(I)]
        certificate.certify(reduced, pk, p, [g.terms for g in I.gens])
        dropped, changed, unreduced = mutants(reduced)
        assert changed is not None and unreduced is not None
        for mutant in (dropped, changed):
            with pytest.raises(AssertionError, match="certificate"):
                certificate.certify(mutant, pk, p, [g.terms for g in I.gens])
        with pytest.raises(AssertionError, match="not reduced"):
            certificate.certify_reduction(unreduced, reduced, pk.guard, p)

    def test_an_unclosed_basis_fails(self):
        # the S-pair of the first two rows leaves y^2*z - x*z^2, whose
        # grevlex lead no lead divides
        ctx = RingCtx(("x", "y", "z"), FieldSpec(32003))
        texts = ["x^2 - y*z", "x*y - z^2", "y^3 - x*z^2"]
        basis = [parse_poly(t, ctx).terms for t in texts]
        with pytest.raises(AssertionError, match="not closed"):
            certificate.certify(basis, ctx.packing, 32003)

    def test_a_divisible_lead_fails(self):
        ctx = RingCtx(("x", "y"), FieldSpec(0))
        basis = [parse_poly(t, ctx).terms for t in ("x - y", "x^2 - y^2")]
        with pytest.raises(AssertionError, match="not minimal"):
            certificate.certify(basis, ctx.packing, 0)

    @pytest.mark.parametrize("field", FIELDS, ids=["F_7", "F_32003", "QQ"])
    def test_rees_rows_vanish_and_a_changed_row_does_not(self, field):
        ctx = RingCtx(("x0", "x1", "x2"), field)
        forms = [parse_poly(t, ctx) for t in ("x0^2", "x0*x1 + x2^2", "x1^2 - x0*x2")]
        rees = rees_ideal(forms)
        certificate.certify_rees(forms, rees)
        # the first row with its lead coefficient changed
        row = rees.gens[0]
        wrong = ideal(rees.ctx, [row + Poly.from_mon(rees.ctx, row.lm())] + list(rees.gens[1:]))
        with pytest.raises(AssertionError, match="does not vanish"):
            certificate.certify_rees(forms, wrong)


class TestCertifiedBases:
    """`conftest.certify_bases` checks every basis the engine makes."""

    def test_a_wrong_s_polynomial_is_caught(self, monkeypatch):
        # an S-polynomial builder that cancels everything leaves the
        # basis unclosed, which the engine's own reducer cannot see
        monkeypatch.setattr(gb_mod, "_spoly", lambda *args: {})
        certify_bases(monkeypatch)
        ctx = RingCtx(("x", "y", "z"), FieldSpec(32003))
        I = ideal(ctx, [parse_poly(t, ctx) for t in ("x^2 - y*z", "x*y - z^2")])
        with pytest.raises(AssertionError, match="certificate: basis is not"):
            groebner_basis(I)
