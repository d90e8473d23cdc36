import random
import sys
from fractions import Fraction

import pytest

import certificate
import reesdeg.groebner as gb_mod
from reesdeg.families import FamilySpec, make_family
from reesdeg.ratmap import rational_map
from reesdeg.ring import FieldSpec, Poly, RingCtx, monomials_of_degree, parse_poly

# filled by tests/test_acceptance.py; one line per acceptance criterion
ACCEPTANCE_RESULTS = []


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance criteria:")
    for line in ACCEPTANCE_RESULTS:
        terminalreporter.write_line(line)


def rand_coeff(ctx, rng, nonzero=False):
    p = ctx.field.characteristic
    if p:
        return rng.randrange(1, p) if nonzero else rng.randrange(p)
    lo = 1 if nonzero else -9
    return rng.randint(lo, 9)


def rand_rational(ctx, rng, nonzero=False):
    """A rational of either sign with numerator and denominator up to
    10^6, for fields of characteristic 0."""
    while True:
        c = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
        if c or not nonzero:
            return c


def random_poly(ctx, rng, max_deg=3, max_terms=4, coeff=rand_coeff):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        mon = tuple(rng.randint(0, max_deg) for _ in range(ctx.nvars))
        terms[mon] = coeff(ctx, rng)
    return Poly(ctx, terms)


def random_form(ctx, rng, deg, density=0.7, coeff=rand_coeff):
    """Random homogeneous polynomial of exact degree deg (possibly zero),
    with coefficients drawn by `coeff`."""
    terms = {}
    for mon in monomials_of_degree(ctx.nvars, deg):
        if rng.random() < density:
            terms[mon] = coeff(ctx, rng)
    return Poly(ctx, terms)


def nonzero_random_form(ctx, rng, deg, density=0.7, coeff=rand_coeff):
    while True:
        f = random_form(ctx, rng, deg, density, coeff)
        if f:
            return f


def small_ctx(rng, chars=(0, 32003, 7), nmin=2, nmax=3):
    n = rng.randint(nmin, nmax)
    names = tuple("x%d" % i for i in range(n))
    return RingCtx(names, FieldSpec(rng.choice(chars)))


def in_order(I, order, series=False):
    """A fresh handle on the ideal I in a copy of its ring under the
    monomial order `order`, with nothing cached.  With `series`, the
    Hilbert series stated on I, if any, is stated on the copy too, since
    every order gives the same one; without it the copy is the undriven
    reference.  `eliminate` runs only in a ring whose leading blocks hold
    the eliminated variables, so a test eliminates from such a copy."""
    ctx = I.ctx
    ring = RingCtx(ctx.var_names, ctx.field, order, n_params=ctx.n_params)
    out = gb_mod.IdealHandle(ring, [g.map_vars(ring, range(ctx.nvars)) for g in I.gens])
    if series:
        out._series = I._series
    return out


def count_buchberger_runs(monkeypatch):
    """Patch the Buchberger core to log each run; returns the log."""
    runs = []
    inner = gb_mod._buchberger

    def counting(*args):
        runs.append(1)
        return inner(*args)

    monkeypatch.setattr(gb_mod, "_buchberger", counting)
    return runs


def certify_bases(monkeypatch):
    """Patch the engine so that every basis it computes, caches or
    reduces passes `certificate`: each `_buchberger` run's as a minimal
    Groebner basis of its seeds, each basis handed to `_basis_ideal` (in
    every reesdeg module that binds it) as a minimal Groebner basis, and
    each `_reduce_tails` pass's as the reduced basis of its input.
    Returns the log of (kind, sorted leads) of the bases checked, kind
    "computed", "given" or "reduced".  A run whose seeds and basis match
    an earlier one's is not checked again."""
    log = []
    computed, given, reduced = gb_mod._buchberger, gb_mod._basis_ideal, gb_mod._reduce_tails
    passed = set()

    def buchberger(seeds, pk, fld, budget, hilbert=None):
        basis = computed(seeds, pk, fld, budget, hilbert)
        key = (pk, fld, len(basis)) + tuple(tuple(sorted(t.items())) for t in basis + seeds)
        if key not in passed:
            certificate.certify(basis, pk, fld.characteristic, seeds)
            passed.add(key)
        log.append(("computed", sorted(max(t) for t in basis)))
        return basis

    def basis_ideal(ctx, basis):
        certificate.certify(basis, ctx.packing, ctx.field.characteristic)
        log.append(("given", sorted(max(t) for t in basis)))
        return given(ctx, basis)

    def reduce_tails(basis, guard, p, budget):
        out = reduced(basis, guard, p, budget)
        certificate.certify_reduction(out, basis, guard, p)
        log.append(("reduced", sorted(max(t) for t in out)))
        return out

    monkeypatch.setattr(gb_mod, "_buchberger", buchberger)
    monkeypatch.setattr(gb_mod, "_reduce_tails", reduce_tails)
    for module in [m for name, m in sys.modules.items() if name.startswith("reesdeg")]:
        if getattr(module, "_basis_ideal", None) is given:
            monkeypatch.setattr(module, "_basis_ideal", basis_ideal)
    return log


@pytest.fixture
def verified_bases(monkeypatch):
    """`certify_bases` for the whole test; its log."""
    return certify_bases(monkeypatch)


def record_shortcut(monkeypatch):
    """Log each attempt of the Bayer-Stillman saturation shortcut: True
    when it answered, False when `saturate` fell back."""
    taken = []
    inner = gb_mod._saturate_by_variables

    def recording(I):
        out = inner(I)
        taken.append(out is not None)
        return out

    monkeypatch.setattr(gb_mod, "_saturate_by_variables", recording)
    return taken


# the shapes the birationality certificate is checked on: Hilbert-Burch
# maps of the named column degrees, linear 5x5 Pfaffians, sparse
# quadrics of P^2, three forms of P^2 with a common linear factor, the
# dependent conic map of P^2, and one form on P^0
ORACLE_SHAPES = ("hb11", "hb12", "hb111", "hb112", "pf", "sparse", "factor", "dependent", "point")


def rees_route(forms):
    """The context of the map of `forms` once it holds its Rees ideal,
    so that no Jacobian certificate stands in for it."""
    spec = rational_map(forms)
    spec.rees
    return spec


def oracle_map(shape, prime, seed):
    """A map of the named shape over F_prime, or over Q at prime 0, drawn
    at `seed`; a draw that is no map fails with a RingError."""
    field = FieldSpec(prime)
    rng = random.Random(seed)
    if shape.startswith("hb"):
        mu = tuple(int(c) for c in shape[2:])
        return rational_map(
            make_family(FamilySpec("hilbert_burch", r=len(mu), mu=mu, seed=seed, prime=prime)).forms
        )
    if shape == "pf":
        return rational_map(
            make_family(FamilySpec("pfaffian", r=4, D=1, seed=seed, prime=prime)).forms
        )
    if shape == "dependent":
        ctx = RingCtx(("x0", "x1", "x2"), field)
        return rational_map([parse_poly(t, ctx) for t in ("x0^2", "x0*x1", "x1^2")])
    if shape == "point":
        ctx = RingCtx(("x0",), field)
        return rational_map([nonzero_random_form(ctx, rng, rng.randint(1, 3))])
    ctx = RingCtx(("x0", "x1", "x2"), field)
    if shape == "sparse":
        return rational_map([nonzero_random_form(ctx, rng, 2, density=0.4) for _ in range(3)])
    factor = nonzero_random_form(ctx, rng, 1)
    return rational_map([factor * nonzero_random_form(ctx, rng, 1) for _ in range(3)])
