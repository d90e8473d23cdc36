"""The associated graded ring through its Groebner basis: a test-only
oracle for the r + 1 that `gr-dim --map` answers for parameter-free
forms, dim S, the number of variables, with nothing computed;
`test_blowup.TestGrDimension` checks that answer against this one.

gr_I(S) is S[y] modulo the Rees ideal R of I = (forms) plus I itself,
so its dimension is the Krull dimension of R + I, read off a basis in
the blowup ring after one elimination for R.
"""

from reesdeg.blowup import _gr_ideal, rees_ideal
from reesdeg.hilbert import dim_degree


def gr_dimension(forms):
    """dim gr_I(S) from a basis of the Rees ideal plus the forms."""
    forms = list(forms)
    return dim_degree(_gr_ideal(rees_ideal(forms), forms)).dim
