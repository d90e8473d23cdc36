"""Test-only oracle for the saturated fiber cone Hilbert function.

`saturated_power_dim` is the route of `blowup.saturated_fiber_dim`,
which `ratmap.sfib_hilbert_function` takes for every map it does not
answer by theorem: form every product of I^n, saturate the ideal they
generate by the irrelevant ideal, and count the degree n*d piece of the
saturation.  Tests compare the answers read off the Jacobian dual
certificate and off the Hilbert-Burch matrix against it.
"""

from itertools import combinations_with_replacement
from math import comb

from reesdeg.blowup import _form_degree
from reesdeg.groebner import IdealHandle, _budget, _charge, saturate
from reesdeg.hilbert import hilbert_function
from reesdeg.ring import Poly, RingError


def saturated_power_dim(forms, n):
    """Value of the saturated fiber cone Hilbert function at n: the
    dimension of the degree n*d piece of the saturation of I^n.  Each
    product forming I^n costs one step of the step budget."""
    if n < 0:
        raise ValueError("power must be nonnegative")
    forms = list(forms)
    d = _form_degree(forms)
    ctx = forms[0].ctx
    if ctx.n_params:
        raise RingError("saturated fiber needs specialized (parameter-free) forms")
    if n == 0:
        return 1
    nx = ctx.nvars
    budget = _budget()
    power = {}
    for combo in combinations_with_replacement(range(len(forms)), n):
        g = forms[combo[0]]
        for i in combo[1:]:
            _charge(budget)
            g = g * forms[i]
        power[frozenset(g.terms.items())] = g
    maxi = IdealHandle(ctx, [Poly.var(ctx, i) for i in range(nx)])
    sat = saturate(IdealHandle(ctx, list(power.values())), maxi)
    ambient_dim = comb(n * d + nx - 1, nx - 1)
    return ambient_dim - hilbert_function(sat, n * d)
