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
  constant from n = 0 on.

A wrong certificate in one route breaks one of these links: an
independence rule that certifies dependent forms gives `image` a
dimension that `degree` does not have, and a saturated fiber rule that
answers C(n+r, r) for a map of degree above 1 breaks the sfib law.
"""

import contextlib
import io
import json

from hypothesis import assume, example, given, settings, strategies as st

from conftest import ORACLE_SHAPES, oracle_map
from reesdeg.cli import main
from reesdeg.families import ELL_NOT_MAXIMAL
from reesdeg.groebner import parse_ideal
from reesdeg.hilbert import dim_degree
from reesdeg.ring import RingError, format_poly, format_ring_header


def run(command, spec, *extra):
    """The JSON payload of `command` on the map `spec`."""
    # glued to its flag, as a form may start with a minus sign
    argv = [command, "--map=" + ", ".join(format_poly(g) for g in spec.forms)]
    argv += ["--ring", format_ring_header(spec.ctx)] + list(extra)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0, argv
    return json.loads(out.getvalue())


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
    degree = run("degree", spec)
    image = run("image", spec)
    want = (degree["dim_image"], degree["deg_image"])
    assert (image["dim_image"], image["deg_image"]) == want
    assert image_of(image) == want
    assert image_of(run("fiber-cone", spec)) == want

    jmult = run("jmult", spec)["j_multiplicity"]
    if degree["analytic_spread"] == spec.r + 1:
        assert jmult == spec.degree * degree["sfib_multiplicity"]
    else:
        assert jmult == ELL_NOT_MAXIMAL

    assert run("gr-dim", spec)["rows"] == [{"point": [], "gr_dim": spec.r + 1}]

    if spec.r == 2 and isinstance(degree["deg_map"], int):
        values = [v["value"] for v in run("sfib-hf", spec, "--points", "0,1,2,3,4")["values"]]
        second = [c - 2 * b + a for a, b, c in zip(values, values[1:], values[2:])]
        assert second == [degree["sfib_multiplicity"]] * 3
