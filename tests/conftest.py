from fractions import Fraction

import reesdeg.groebner as gb_mod
from reesdeg.ring import FieldSpec, Poly, RingCtx, monomials_of_degree

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
