"""Structured families of rational maps given by presentation matrices.

Three constructions are covered.  A Hilbert-Burch family on P^r uses an
(r+1) x r matrix whose column j is filled with dense forms of degree
mu_j; the map coordinates are the signed maximal minors.  A Pfaffian
family on P^r (r even) uses an alternating (r+1) x (r+1) matrix with
entries of one degree; the coordinates are the signed submaximal
Pfaffians.  The de Jonquieres family is a fixed plane matrix carrying
one deformation parameter, and is the one family the parametric blowup
route runs on.

Hilbert-Burch and Pfaffian instances draw every coefficient uniformly
from the nonzero field elements, seeded; eliminating over the full
generic coefficient ring is out of desk-scale reach.  The de Jonquieres
instance keeps its parameter in the ring.
"""

import random
from dataclasses import dataclass, field

from .blowup import gr_dimension_at, rees_ideal, specialize_forms
from .conditions import PresentationMatrix, check_Gm, minors
from .ratmap import DEFAULT_SEED, degree_report, rational_map
from .ring import (
    DEFAULT_PRIME,
    FieldSpec,
    Poly,
    RingCtx,
    RingError,
    monomials_of_degree,
)

ELL_NOT_MAXIMAL = "ell-not-maximal"


@dataclass(frozen=True)
class FamilySpec:
    """Recipe for one family instance.

    kind: hilbert_burch | pfaffian | dejonquieres | file.  `mu` gives
    the column degrees for hilbert_burch (weakly increasing, positive),
    `D` the entry degree for pfaffian, `m` the de Jonquieres parameter.
    `seed` draws the coefficients of the random kinds.  A `file` family
    is read from a family file, so `make_family` has no recipe for it.
    """

    kind: str
    r: int = 2
    mu: tuple = ()
    D: int = 1
    m: int = 2
    seed: int = DEFAULT_SEED
    prime: int = DEFAULT_PRIME

    def __post_init__(self):
        if self.kind not in ("hilbert_burch", "pfaffian", "dejonquieres", "file"):
            raise RingError("unknown family kind %r" % self.kind)
        if self.kind == "hilbert_burch":
            mu = tuple(self.mu)
            if len(mu) != self.r or not mu:
                raise RingError("hilbert_burch needs r column degrees")
            if any(d < 1 for d in mu) or list(mu) != sorted(mu):
                raise RingError("column degrees must be weakly increasing and >= 1")
            object.__setattr__(self, "mu", mu)
        if self.kind == "pfaffian":
            if self.r % 2 or self.r < 4:
                raise RingError("pfaffian needs even r >= 4 (odd matrix size >= 5)")
            if self.D < 1:
                raise RingError("pfaffian entry degree must be >= 1")
        if self.kind == "dejonquieres" and self.m < 2:
            raise RingError("dejonquieres needs m >= 2")


@dataclass
class Family:
    """A realized family: presentation matrix, map coordinates, degree.

    Parameter-free instances expose map coordinates directly; the
    parametric de Jonquieres instance keeps its parameter in the ring
    and caches the generic Rees ideal for reuse across sweep points.
    """

    spec: FamilySpec
    ctx: RingCtx
    matrix: PresentationMatrix
    forms: tuple
    degree: int
    _generic_rees: object = field(default=None, repr=False)

    @property
    def parametric(self):
        return self.ctx.n_params > 0

    def generic_rees(self):
        if not self.parametric:
            raise RingError("generic Rees ideal needs a parametric family")
        if self._generic_rees is None:
            self._generic_rees = rees_ideal(list(self.forms))
        return self._generic_rees


def dense_form(ctx, degree, rng, nx=None):
    """Dense form with coefficients uniform among nonzero field values."""
    p = ctx.field.characteristic
    nx = ctx.nvars - ctx.n_params if nx is None else nx
    terms = {}
    for mon in monomials_of_degree(nx, degree):
        c = rng.randrange(1, p) if p else rng.randint(1, 12)
        terms[mon + (0,) * (ctx.nvars - nx)] = c
    return Poly(ctx, terms)


def signed_maximal_minors(M):
    """Map coordinates from an (r+1) x r matrix: g_i is (-1)^i times the
    minor dropping row i.  The signs satisfy M^T g = 0, which is checked.
    The minors come from the matrix's own table, which lists them
    dropping row r, r-1, ..., 0."""
    if M.nrows != M.ncols + 1:
        raise RingError("maximal minors need an (r+1) x r matrix")
    forms = [d if i % 2 == 0 else -d for i, d in enumerate(reversed(minors(M, M.ncols)))]
    _check_syzygies(zip(*M.entries), forms, "minors")
    return forms


def _check_syzygies(rows, forms, what):
    """Each row times the column of forms vanishes; `what` names the
    forms in the error message."""
    for row in rows:
        acc = Poly.zero(forms[0].ctx)
        for e, g in zip(row, forms):
            acc = acc + e * g
        if acc:
            raise AssertionError("syzygy check failed for the signed %s" % what)


def _pfaffian(rows):
    """Pfaffian of an even alternating matrix by first-row expansion."""
    n = len(rows)
    if n == 0:
        raise RingError("pfaffian of an empty matrix")
    ctx = rows[0][0].ctx
    if n == 2:
        return rows[0][1]
    total = Poly.zero(ctx)
    for j in range(1, n):
        entry = rows[0][j]
        if not entry:
            continue
        keep = [k for k in range(1, n) if k != j]
        minor = [[rows[a][b] for b in keep] for a in keep]
        term = entry * _pfaffian(minor)
        total = total + term if j % 2 == 1 else total - term
    return total


def pfaffian(M):
    if M.nrows != M.ncols or M.nrows % 2:
        raise RingError("pfaffian needs an even square matrix")
    _check_alternating(M)
    return _pfaffian([list(r) for r in M.entries])


def _check_alternating(M):
    for i in range(M.nrows):
        if M.entries[i][i]:
            raise RingError("alternating matrix has a nonzero diagonal entry")
        for j in range(i + 1, M.ncols):
            if M.entries[i][j] + M.entries[j][i]:
                raise RingError("matrix is not alternating")


def submaximal_pfaffians(M):
    """Map coordinates from an odd alternating matrix: g_i is (-1)^i
    times the Pfaffian dropping row and column i; M g = 0 is checked."""
    if M.nrows != M.ncols or M.nrows % 2 == 0 or M.nrows < 5:
        raise RingError("submaximal pfaffians need an odd square matrix, size >= 5")
    _check_alternating(M)
    forms = []
    for i in range(M.nrows):
        keep = [k for k in range(M.nrows) if k != i]
        minor = [[M.entries[a][b] for b in keep] for a in keep]
        pf = _pfaffian(minor)
        forms.append(pf if i % 2 == 0 else -pf)
    _check_syzygies(M.entries, forms, "pfaffians")
    return forms


def _coord_ctx(n, prime):
    return RingCtx(tuple("x%d" % i for i in range(n)), FieldSpec(prime))


def make_family(spec):
    """Realize a FamilySpec: build the matrix, take the coordinates."""
    if spec.kind == "hilbert_burch":
        ctx = _coord_ctx(spec.r + 1, spec.prime)
        rng = random.Random(spec.seed)
        entries = [
            [dense_form(ctx, spec.mu[j], rng) for j in range(spec.r)]
            for _ in range(spec.r + 1)
        ]
        M = PresentationMatrix(ctx, entries)
        forms = signed_maximal_minors(M)
        return Family(spec, ctx, M, tuple(forms), sum(spec.mu))
    if spec.kind == "pfaffian":
        n = spec.r + 1
        ctx = _coord_ctx(n, spec.prime)
        rng = random.Random(spec.seed)
        entries = [[Poly.zero(ctx) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                f = dense_form(ctx, spec.D, rng)
                entries[i][j] = f
                entries[j][i] = -f
        M = PresentationMatrix(ctx, entries)
        forms = submaximal_pfaffians(M)
        return Family(spec, ctx, M, tuple(forms), spec.D * (spec.r // 2))
    if spec.kind != "dejonquieres":
        raise RingError("family kind %r has no recipe; read it from its file" % spec.kind)
    # de Jonquieres: one parameter, fixed shape
    ctx = RingCtx(("x", "y", "z", "a"), FieldSpec(spec.prime), n_params=1)
    x, y, z, a = (Poly.var(ctx, i) for i in range(4))
    m = spec.m
    M = PresentationMatrix(
        ctx,
        [
            [x, z * y.pow(m - 1)],
            [-y, z * x.pow(m - 1) + y.pow(m)],
            [a * z, z * x.pow(m - 1)],
        ],
    )
    forms = signed_maximal_minors(M)
    return Family(spec, ctx, M, tuple(forms), m + 1)


def specialized_family(fam, point):
    """Substitute parameter values into a parametric family."""
    if not fam.parametric:
        raise RingError("family carries no parameters")
    special = specialize_forms(list(fam.forms), point)
    sub = special[0].ctx
    matrix = None
    if fam.matrix is not None:
        entries = [
            [e.substitute_tail(sub, point) for e in row] for row in fam.matrix.entries
        ]
        matrix = PresentationMatrix(sub, entries)
    return Family(fam.spec, sub, matrix, tuple(special), fam.degree)


@dataclass(frozen=True)
class SweepRow:
    """One specialization: parameter point, degree data, special fiber
    dimension of the associated graded ring, G_{r+1} verdict, status."""

    point: tuple
    deg_map: object
    deg_image: object
    gr_dim: object
    g_condition: object
    status: str


def specialization_sweep(fam, points):
    """Evaluate a parametric family at the given parameter points.

    Each row records the map degree and image degree of the special
    member, the special fiber dimension of gr (computed through the one
    generic Rees basis shared across the sweep, from the forms
    specialized once per point), and whether the specialized matrix
    satisfies G_{r+1}.  A point whose member is malformed (a RingError)
    gets a row with the message in the status column; a failed internal
    check propagates.
    """
    if not fam.parametric:
        raise RingError("sweep needs a parametric family")
    generic = fam.generic_rees()
    r = fam.ctx.nvars - fam.ctx.n_params - 1
    rows = []
    for point in points:
        point = tuple(point) if isinstance(point, (tuple, list)) else (point,)
        try:
            sp = specialized_family(fam, point)
            rep = degree_report(rational_map(sp.forms))
            gdim = gr_dimension_at(
                list(fam.forms), point, generic=generic, special=list(sp.forms)
            )
            verdict = None
            if sp.matrix is not None:
                verdict = check_Gm(sp.matrix, r + 1).verdict
            rows.append(
                SweepRow(point, rep.deg_map, rep.deg_image, gdim, verdict, "ok")
            )
        except RingError as exc:
            rows.append(SweepRow(point, None, None, None, None, "error: %s" % exc))
    return rows


def j_multiplicity(spec):
    """j-multiplicity of the form ideal of a map, d * d_r, where
    d_r = deg(map) * deg(image) is the top projective degree.

    Defined this way only when the analytic spread is maximal; otherwise
    the marker is returned.
    """
    rep = degree_report(spec)
    if rep.analytic_spread != spec.r + 1:
        return ELL_NOT_MAXIMAL
    if not isinstance(rep.deg_map, int):
        raise AssertionError("maximal spread but no finite map degree")
    return spec.degree * rep.sfib_multiplicity
