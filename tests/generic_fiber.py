"""The generic-fiber route to the degree of a rational map: a test-only
oracle for `ratmap.degree_map`, which reads the degree off the class of
the graph instead.

A minimal Groebner basis of the Rees ideal R in the block order (x | y),
built in a copy of its ring under that order, has the leads of the
reduced basis G.  The run is driven by the Hilbert series of the leads
of the grevlex Rees basis, which every order shares.  Every element of G that involves x has its x-leading coefficient
outside the image ideal P = R cap k[y]: the y-parts of its terms are
standard monomials modulo P, and P is prime.  By Kalkbrener's
specialization theorem ("On the stability of Groebner bases under
specializations", JSC 1997) those elements form a Groebner basis of R
over the function field K(Y) of the image, so the x-parts of their
leading monomials generate the initial ideal of the generic fiber.  That
fiber is a point of P^r over K(Y) whose residue field has degree deg F,
so deg F is the Hilbert degree of that monomial ideal in k[x] when its
Krull dimension is 1; otherwise F is not generically finite.
"""

from conftest import in_order
from reesdeg.blowup import rees_ideal
from reesdeg.groebner import seed_hilbert_series
from reesdeg.hilbert import lead_ideal, monomial_dim_degree, weighted_numerator
from reesdeg.ratmap import NOT_GENERICALLY_FINITE


def generic_fiber_degree(spec):
    """Degree of the map onto its image, or the not-generically-finite
    marker, from the leads of the (x | y) block basis of its Rees ideal."""
    rees = rees_ideal(list(spec.forms))
    nx = spec.r + 1
    ones = (1,) * rees.ctx.nvars
    seed_hilbert_series(rees, ones, weighted_numerator(lead_ideal(rees), ones))
    leads = lead_ideal(in_order(rees, ("block", nx), series=True))
    fiber = monomial_dim_degree([m[:nx] for m in leads if any(m[:nx])], nx)
    return fiber.degree if fiber.dim == 1 else NOT_GENERICALLY_FINITE
