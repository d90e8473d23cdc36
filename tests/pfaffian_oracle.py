"""Pfaffians by the recursion on `Poly` arithmetic that built the
Pfaffian family before `conditions.pfaffians`: a test-only oracle for
that chain, and for the family forms it gives.
"""

from reesdeg.ring import Poly


def pfaffian(rows):
    """Pfaffian of an even alternating matrix, given as a list of rows of
    polynomials, by first-row expansion."""
    n = len(rows)
    if n == 2:
        return rows[0][1]
    total = Poly.zero(rows[0][0].ctx)
    for j in range(1, n):
        entry = rows[0][j]
        if not entry:
            continue
        keep = [k for k in range(1, n) if k != j]
        term = entry * pfaffian([[rows[a][b] for b in keep] for a in keep])
        total = total + term if j % 2 == 1 else total - term
    return total


def submaximal_pfaffians(M):
    """g_i = (-1)^i times the Pfaffian of the odd alternating matrix M
    without row and column i."""
    forms = []
    for i in range(M.nrows):
        keep = [k for k in range(M.nrows) if k != i]
        pf = pfaffian([[M.entries[a][b] for b in keep] for a in keep])
        forms.append(pf if i % 2 == 0 else -pf)
    return forms
