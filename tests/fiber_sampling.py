"""Fiber sampling: a test-only oracle for the degree of a rational map.

Pick a random source point, cut out the fiber through its image value
with the 2x2 minors of the evaluation matrix, remove the base locus by
saturating with one form that does not vanish at the point, and read
the fiber length off the Hilbert degree.  The minimum over seeded trials
estimates the degree; a special point can give a fiber of the wrong
length, so this is an independent check, not an exact answer.
"""

import random

from reesdeg.groebner import IdealHandle, saturate
from reesdeg.hilbert import dim_degree
from reesdeg.ring import RingError

MAX_POINT_RESAMPLES = 50
# over Q, sample point coordinates are drawn from [-bound, bound]
Q_SAMPLE_BOUND = 2**16


def trial_rng(seed, index):
    return random.Random(seed * 2654435761 + index)


def sample_point(spec, rng):
    """A source point off the base locus and its image values."""
    ctx = spec.ctx
    p = ctx.field.characteristic
    for _ in range(MAX_POINT_RESAMPLES):
        if p:
            pt = [rng.randrange(p) for _ in range(ctx.nvars)]
        else:
            pt = [rng.randint(-Q_SAMPLE_BOUND, Q_SAMPLE_BOUND) for _ in range(ctx.nvars)]
        values = [g.evaluate(pt) for g in spec.forms]
        if any(values):
            return pt, values
    raise RingError("could not sample a point off the base locus")


def fiber_ideal(spec, values):
    """2x2 minors of the matrix with rows (forms) and (values): the fiber
    through a point with image `values`, base locus included."""
    forms = spec.forms
    gens = []
    for i in range(len(forms)):
        for j in range(i + 1, len(forms)):
            g = forms[i].scale(values[j]) - forms[j].scale(values[i])
            if g:
                gens.append(g)
    return IdealHandle(spec.ctx, gens)


def fiber_length(spec, values):
    """Length of the saturated fiber through a point with image `values`;
    None when that fiber is not zero-dimensional in P^r.

    Saturating by the single form g_j with values[j] != 0 removes the
    whole base locus: on an associated prime P of the fiber ideal the
    minors give g_i*values[j] = g_j*values[i], so g_j lies in P exactly
    when every form does.  That saturation also leaves no component
    primary to (x0, ..., xr), since every form lies in that ideal.
    """
    fiber = fiber_ideal(spec, values)
    if not fiber.gens:
        return None
    j = next(i for i, v in enumerate(values) if v)
    fiber = saturate(fiber, IdealHandle(spec.ctx, [spec.forms[j]]))
    summ = dim_degree(fiber)
    if summ.dim != 1:
        return None
    return summ.degree


def sampled_degree(spec, trials, seed):
    """Minimum finite fiber length over `trials` seeded sample points,
    or None when no sampled fiber is finite."""
    lengths = []
    for idx in range(trials):
        _, values = sample_point(spec, trial_rng(seed, idx))
        length = fiber_length(spec, values)
        if length is not None:
            lengths.append(length)
    return min(lengths, default=None)
