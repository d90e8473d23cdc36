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

A parametric family gives each point a member context (`Family.member`),
which at a point the generic graph basis certifies already holds its
Rees ideal, so no basis is built and no Jacobian rule runs for it.
"""

import random
from dataclasses import dataclass
from functools import cached_property

from .blowup import (
    _gr_ideal,
    certified_rees,
    certifies,
    graph_ideal,
    leading_coefficients,
    specialize_forms,
    specialize_rees,
)
from .conditions import PresentationMatrix, check_Gm, is_alternating, pfaffians
from .conditions import signed_maximal_minors
from .groebner import eliminate
from .hilbert import dim_degree
from .ratmap import DEFAULT_SEED, degree_report, rational_map
from .ring import (
    DEFAULT_PRIME,
    FieldSpec,
    Poly,
    RingCtx,
    RingError,
    _product_sum,
    monomials_of_degree,
)

ELL_NOT_MAXIMAL = "ell-not-maximal"


@dataclass(frozen=True)
class FamilySpec:
    """Recipe for one family instance.

    kind: hilbert_burch | pfaffian | dejonquieres.  `mu` gives the
    column degrees for hilbert_burch (weakly increasing, positive), `D`
    the entry degree for pfaffian, `m` the de Jonquieres parameter.
    `seed` draws the coefficients of the random kinds.
    """

    kind: str
    r: int = 2
    mu: tuple = ()
    D: int = 1
    m: int = 2
    seed: int = DEFAULT_SEED
    prime: int = DEFAULT_PRIME

    def __post_init__(self):
        if self.kind not in ("hilbert_burch", "pfaffian", "dejonquieres"):
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
    """A realized family: its ring, presentation matrix (None for a
    family read from a file) and map coordinates.

    Parameter-free instances expose map coordinates directly.  A
    parametric instance keeps its parameters in the ring and computes, on
    first read, as the map context does, the generic graph ideal with its
    basis, the generic Rees ideal eliminated from it, and the leading
    coefficients of that basis in the parameters.  A point where none of
    them vanishes is certified: its member's context holds the
    specialized generic Rees basis, and no basis is built for it
    (`member`).  Every other point takes the full route.
    """

    ctx: RingCtx
    matrix: PresentationMatrix
    forms: tuple

    @property
    def parametric(self):
        return self.ctx.n_params > 0

    @cached_property
    def graph(self):
        """The generic graph ideal, whose basis the two facts below read."""
        if not self.parametric:
            raise RingError("generic Rees ideal needs a parametric family")
        return graph_ideal(list(self.forms))

    @cached_property
    def generic_rees(self):
        return eliminate(self.graph, 1)

    @cached_property
    def lead_coefficients(self):
        """The `blowup.leading_coefficients` of the generic graph basis."""
        return leading_coefficients(self.graph)

    def special_rees(self, point):
        """The Rees ideal of the member at `point`, with its basis read
        off the generic one, when the point is certified; else None."""
        return certified_rees(self.generic_rees, self.lead_coefficients, point)

    def member(self, point):
        """The map context of the member at `point`.  At a certified point
        it holds its Rees ideal, read off the generic basis, so no
        Jacobian rule runs.  A point that kills a form fails."""
        spec = rational_map(specialize_forms(list(self.forms), point))
        rees = self.special_rees(point)
        if rees is not None:
            spec.hold_rees(rees)
        return spec

    def gr_dimension(self, point):
        """Dimension of the special fiber of gr at `point`, read off
        spec(generic Rees) + (forms).  At a certified point that is the
        member's own Rees ideal, so this is r + 1, as for any map, from no
        basis.  A point that kills a form fails."""
        return self._gr_dimension(point, specialize_forms(list(self.forms), point))

    def _gr_dimension(self, point, special):
        """`gr_dimension` at `point`, given the forms specialized there."""
        if certifies(self.lead_coefficients, point):
            return self.ctx.nvars - self.ctx.n_params
        rees = specialize_rees(self.generic_rees, point)
        return dim_degree(_gr_ideal(rees, special)).dim


def dense_form(ctx, degree, rng, nx=None):
    """Dense form with coefficients uniform among nonzero field values."""
    p = ctx.field.characteristic
    nx = ctx.nvars - ctx.n_params if nx is None else nx
    terms = {}
    for mon in monomials_of_degree(nx, degree):
        c = rng.randrange(1, p) if p else rng.randint(1, 12)
        terms[mon + (0,) * (ctx.nvars - nx)] = c
    return Poly(ctx, terms)


def _check_syzygies(rows, forms, what):
    """Each row times the column of forms vanishes; `what` names the
    forms in the error message."""
    p = forms[0].ctx.field.characteristic
    for row in rows:
        if _product_sum([(False, e.terms, g.terms) for e, g in zip(row, forms)], p):
            raise AssertionError("syzygy check failed for the signed %s" % what)


def pfaffian(M):
    """Pfaffian of an even alternating matrix, the top of the chain of
    `conditions.pfaffians`."""
    if M.nrows != M.ncols or M.nrows % 2:
        raise RingError("pfaffian needs an even square matrix")
    if not is_alternating(M):
        raise RingError("matrix is not alternating")
    return pfaffians(M, M.nrows)[0]


def submaximal_pfaffians(M):
    """Map coordinates from an odd alternating matrix: g_i is (-1)^i
    times the Pfaffian dropping row and column i; M g = 0 is checked.
    The Pfaffians come from one chain, which lists them dropping row
    r, r-1, ..., 0, so they share their sub-Pfaffians."""
    if M.nrows != M.ncols or M.nrows % 2 == 0 or M.nrows < 5:
        raise RingError("submaximal pfaffians need an odd square matrix, size >= 5")
    if not is_alternating(M):
        raise RingError("matrix is not alternating")
    pfs = reversed(pfaffians(M, M.nrows - 1))
    forms = [pf if i % 2 == 0 else -pf for i, pf in enumerate(pfs)]
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
        _check_syzygies(zip(*M.entries), forms, "minors")
        return Family(ctx, M, tuple(forms))
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
        return Family(ctx, M, tuple(forms))
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
    _check_syzygies(zip(*M.entries), forms, "minors")
    return Family(ctx, M, tuple(forms))


def _specialized_matrix(fam, sub, point):
    """The presentation matrix of `fam` at `point`, in the ring `sub`;
    None for a family without one."""
    if fam.matrix is None:
        return None
    entries = [[e.substitute_tail(sub, point) for e in row] for row in fam.matrix.entries]
    return PresentationMatrix(sub, entries)


def specialized_family(fam, point):
    """Substitute parameter values into a parametric family."""
    if not fam.parametric:
        raise RingError("family carries no parameters")
    special = specialize_forms(list(fam.forms), point)
    sub = special[0].ctx
    return Family(sub, _specialized_matrix(fam, sub, point), tuple(special))


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
    member, the special fiber dimension of gr, and whether the
    specialized matrix satisfies G_{r+1}.  At a point the family
    certifies, the member's context holds the specialized generic Rees
    basis, off which the degrees are read, and the gr dimension is r + 1,
    so no basis is built; at any other point the member gets its own Rees
    basis and gr basis (`Family.member`, `Family.gr_dimension`).  A point
    whose member is malformed (a RingError) gets a row with the message
    in the status column, such as "parameter point kills generator i",
    the message of `gr-dim --family` there; a failed internal check
    propagates.
    """
    if not fam.parametric:
        raise RingError("sweep needs a parametric family")
    # forms that have no generic Rees ideal fail the sweep, not a row
    fam.generic_rees
    r = fam.ctx.nvars - fam.ctx.n_params - 1
    rows = []
    for point in points:
        point = tuple(point) if isinstance(point, (tuple, list)) else (point,)
        try:
            member = fam.member(point)
            rep = degree_report(member)
            gdim = fam._gr_dimension(point, member.forms)
            matrix = _specialized_matrix(fam, member.ctx, point)
            verdict = None if matrix is None else check_Gm(matrix, r + 1).verdict
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
