"""The map commands agree with each other.

Each route has an oracle for its own command; here the answers of
different commands on one map are checked against the theorems that
link them, all run in-process through `cli.main`:

- `image` and `fiber-cone` give `degree`'s dim_image and deg_image;
- `jmult` is d * sfib_multiplicity when the analytic spread is r + 1,
  and the marker otherwise;
- `gr-dim --map` is r + 1 (Matsumura, Commutative Ring Theory, Th. 15.7);
- for a map of P^2 of finite degree, the second differences of `sfib-hf`
  at n = 0..4 are sfib_multiplicity = deg F * deg Y, the multiplicity of
  the saturated fiber cone (Buse, Cid-Ruiz and D'Andrea, Proc. LMS 2020).
  The law is asymptotic; on the shapes drawn here the differences are
  constant from n = 0 on.  On the Hilbert-Burch maps of column degrees
  (1, 2), (2, 2), (2, 3) and (1, 1, 2) that the Hilbert-Burch rule
  certifies, the r-th differences at n = 3..8 are prod mu_j: a scan of
  450 such maps (these shapes, (1, 3) and (1, 2, 2), at 25 seeds over
  F_7, F_32003 and Q) found them constant from n = 3 on;
- a `sweep` row's deg_map and deg_image are those `degree` gives on the
  member's forms, at points the family certifies, where the sweep reads
  them off the specialized generic Rees basis, and at a = 0, where it
  builds the member's own.

A wrong certificate in one route breaks one of these links: an
independence rule that certifies dependent forms gives `image` a
dimension that `degree` does not have, a saturated fiber rule that
answers C(n+r, r) for a map of degree above 1 breaks the sfib law, and
so does a Hilbert-Burch kernel that drops the map on top cohomology,
and a certified Rees basis that misses a row breaks the sweep's link.
"""

import contextlib
import io
import json
from math import prod

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import ORACLE_SHAPES, oracle_map
from reesdeg.blowup import certifies, specialize_forms
from reesdeg.cli import main
from reesdeg.families import ELL_NOT_MAXIMAL, FamilySpec, make_family
from reesdeg.groebner import parse_ideal
from reesdeg.hilbert import dim_degree
from reesdeg.ring import RingError, format_poly, format_ring_header


def payload(argv):
    """The JSON payload of the command line `argv`."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0, argv
    return json.loads(out.getvalue())


def run(command, forms, *extra):
    """The JSON payload of `command` on the map of `forms`."""
    # glued to its flag, as a form may start with a minus sign
    argv = [command, "--map=" + ", ".join(format_poly(g) for g in forms)]
    return payload(argv + ["--ring", format_ring_header(forms[0].ctx)] + list(extra))


def image_of(payload):
    """(dim, degree) of the image whose ideal a payload lists."""
    summ = dim_degree(parse_ideal("\n".join([payload["ring"]] + payload["generators"])))
    return summ.proj_dim_of_scheme, summ.degree


@settings(max_examples=60, deadline=None)
@given(
    shape=st.sampled_from(ORACLE_SHAPES),
    prime=st.sampled_from([2, 7, 32003, 0]),
    seed=st.integers(0, 10**6),
)
# the conic map of P^2, whose forms are dependent, and a sparse map of
# P^2 of degree 4 whose s = r does not make it birational
@example(shape="dependent", prime=32003, seed=0)
@example(shape="sparse", prime=32003, seed=1)
@example(shape="hb12", prime=0, seed=4)
@example(shape="pf", prime=7, seed=3)
def test_commands_agree(shape, prime, seed):
    try:
        spec = oracle_map(shape, prime, seed)
    except RingError:
        assume(False)
    degree = run("degree", spec.forms)
    image = run("image", spec.forms)
    want = (degree["dim_image"], degree["deg_image"])
    assert (image["dim_image"], image["deg_image"]) == want
    assert image_of(image) == want
    assert image_of(run("fiber-cone", spec.forms)) == want

    jmult = run("jmult", spec.forms)["j_multiplicity"]
    if degree["analytic_spread"] == spec.r + 1:
        assert jmult == spec.degree * degree["sfib_multiplicity"]
    else:
        assert jmult == ELL_NOT_MAXIMAL

    assert run("gr-dim", spec.forms)["rows"] == [{"point": [], "gr_dim": spec.r + 1}]

    if spec.r == 2 and isinstance(degree["deg_map"], int):
        values = [v["value"] for v in run("sfib-hf", spec.forms, "--points", "0,1,2,3,4")["values"]]
        second = [c - 2 * b + a for a, b, c in zip(values, values[1:], values[2:])]
        assert second == [degree["sfib_multiplicity"]] * 3


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10**6))
@pytest.mark.parametrize("prime", [7, 32003, 0], ids=["F_7", "F_32003", "QQ"])
@pytest.mark.parametrize("shape", ["hb12", "hb22", "hb23", "hb112"])
def test_sfib_law_on_hilbert_burch_maps(shape, prime, seed):
    try:
        spec = oracle_map(shape, prime, seed)
    except RingError:
        assume(False)
    assume(spec.hilbert_burch is not None)
    mu = spec.hilbert_burch.mu
    assert mu == tuple(int(c) for c in shape[2:])
    assert run("degree", spec.forms)["sfib_multiplicity"] == prod(mu)
    points = ["--points", "3,4,5,6,7,8"]
    differences = [v["value"] for v in run("sfib-hf", spec.forms, *points)["values"]]
    for _ in range(spec.r):
        differences = [b - a for a, b in zip(differences, differences[1:])]
    assert differences == [prod(mu)] * (6 - spec.r)


@pytest.mark.parametrize("prime", [7, 32003, 0], ids=["F_7", "F_32003", "QQ"])
@pytest.mark.parametrize("m", [2, 3])
def test_sweep_rows_are_the_degrees_of_their_members(m, prime):
    fam = make_family(FamilySpec("dejonquieres", m=m, prime=prime))
    points = [0, 1, 2, 5, -3]
    # the degree drops to 1 at a = 0 alone, and the family certifies the rest
    certified = [a for a in points if certifies(fam.lead_coefficients, (a,))]
    assert certified == points[1:]
    argv = ["sweep", "--family", "dejonquieres", "--m", str(m), "--prime", str(prime)]
    rows = payload(argv + ["--points", ",".join(map(str, points))])["rows"]
    assert [row["point"] for row in rows] == [[a % prime if prime else a] for a in points]
    for a, row in zip(points, rows):
        degree = run("degree", specialize_forms(list(fam.forms), (a,)))
        assert (row["deg_map"], row["deg_image"]) == (degree["deg_map"], degree["deg_image"])
    assert [row["deg_map"] for row in rows] == [1] + [m] * 4
