"""The generic-fiber route to the degree of a rational map: a test-only
oracle for `ratmap.degree_map`, which reads the degree off the class of
the graph instead.

Eliminating x from the Rees ideal R builds a minimal Groebner basis of R
in the block order (x | y), whose leads are those of the reduced basis
G.  Every element of G that involves x has its x-leading coefficient
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

from reesdeg.blowup import rees_ideal
from reesdeg.groebner import elimination_order
from reesdeg.hilbert import lead_ideal, monomial_dim_degree
from reesdeg.ratmap import NOT_GENERICALLY_FINITE


def generic_fiber_degree(spec):
    """Degree of the map onto its image, or the not-generically-finite
    marker, from the leads of the (x | y) block basis of its Rees ideal."""
    rees = rees_ideal(list(spec.forms))
    nx = spec.r + 1
    leads = lead_ideal(rees, order=elimination_order(rees.ctx, nx))
    fiber = monomial_dim_degree([m[:nx] for m in leads if any(m[:nx])], nx)
    return fiber.degree if fiber.dim == 1 else NOT_GENERICALLY_FINITE
