"""Command line front end.

Subcommands: degree, image, rees, fiber-cone, sfib-hf, conditions,
sweep, jmult, gr-dim.  Each takes only the flags it reads, as listed in
SUBCOMMAND_FLAGS, plus --seed, --budget, --format and --out.  Its input
(--map, --matrix or --family; gr-dim takes a map or a family) is
required.  Output is a JSON envelope carrying schema, the command, seed
and prime; every subcommand also prints plain text, and sweep prints
CSV.  No answer depends on the seed, which is only echoed; an explicit
--prime must name the field that --ring or a file header fixes.  Exit
codes: 0 success, 2 malformed input or usage, 3 budget exceeded; a
failed internal check (AssertionError) is not caught and exits 1;
--ring with a map file or a family, --m with a family file, and
--points or --m on gr-dim with a map are usage errors, since the input
does not read them.  A --points value must name at least one point of
integer coordinates; parameter points over F_p are reduced mod p before
they are used and echoed.  A flag's value may start with a minus sign,
as in `--points -1,2`.  A command line that starts with a subcommand is
parsed by that subcommand's parser alone; any other, and one that
leaves arguments unrecognized, goes through the full parser, so every
usage error keeps the text and exit code the full parser gives it.
One step budget covers the whole command; `groebner.step_budget` lists
what costs a step.  It is DEFAULT_BUDGET steps unless --budget, the
one way to set it, says otherwise; no environment variable is read.
Each map command reads its map's facts off one context
(`ratmap.RationalMapSpec`), which computes each fact once, so sfib-hf
reads the Jacobian dual verdict once for all its points.
"""

import argparse
import json
import math
import os
import re
import sys
from functools import lru_cache

from .blowup import _form_degree
from .conditions import check_Fm, check_Gm, parse_matrix_file
from .families import Family, FamilySpec, j_multiplicity, make_family, specialization_sweep
from .groebner import DEFAULT_BUDGET, BudgetExceeded, groebner_basis, parse_generators, step_budget
from .ratmap import (
    DEFAULT_SEED,
    degree_report,
    parse_map_file,
    rational_map,
    sfib_hilbert_function,
)
from .ring import (
    DEFAULT_PRIME,
    FieldSpec,
    RingCtx,
    RingError,
    format_poly,
    format_ring_header,
    parse_poly,
    parse_ring_header,
)

SCHEMA = 1


def _ring_from_text(text):
    text = text.strip()
    if not text.startswith("ring"):
        text = "ring " + text
    return parse_ring_header(text)


def _infer_ring(map_text, prime):
    seen = []
    for name in re.findall(r"[A-Za-z_][A-Za-z_0-9]*", map_text):
        if name not in seen:
            seen.append(name)

    def natural(n):
        m = re.fullmatch(r"([A-Za-z_]+)(\d*)", n)
        return (m.group(1), int(m.group(2)) if m.group(2) else -1)

    return RingCtx(tuple(sorted(seen, key=natural)), FieldSpec(prime))


def _prime(args):
    """The --prime value, DEFAULT_PRIME when the flag is not given."""
    return DEFAULT_PRIME if args.prime is None else args.prime


def _fixed_field(args, ctx, source):
    """`ctx`, whose field `source` (--ring or a file header) fixed; an
    explicit --prime must name the same field."""
    prime = ctx.field.characteristic
    if args.prime not in (None, prime):
        raise RingError("--prime %d disagrees with %s over %d" % (args.prime, source, prime))
    return ctx


def _load_map(args):
    if os.path.exists(args.map):
        if args.ring:
            raise RingError("--ring does not apply to a map file, whose header names its ring")
        with open(args.map) as fh:
            spec = parse_map_file(fh.read())
        _fixed_field(args, spec.ctx, "the map file's ring")
        return spec
    if args.ring:
        ctx = _fixed_field(args, _ring_from_text(args.ring), "--ring")
    else:
        ctx = _infer_ring(args.map, _prime(args))
    return rational_map([parse_poly(part, ctx) for part in args.map.split(",")])


def _load_family(args):
    name = args.family
    if os.path.exists(name):
        if args.m is not None:
            raise RingError("--m does not apply to a family file")
        with open(name) as fh:
            ctx, forms = parse_generators(fh.read())
        if ctx.n_params == 0:
            raise RingError("family file must declare params in its ring header")
        _fixed_field(args, ctx, "the family file's ring")
        # a zero form is rejected here, as in a map
        _form_degree(forms)
        return Family(ctx, None, tuple(forms))
    if name == "dejonquieres":
        spec = FamilySpec("dejonquieres", m=2 if args.m is None else args.m, prime=_prime(args))
        return make_family(spec)
    raise RingError("unknown family %r" % name)


def _parse_points(text, default, arity=1, prime=0):
    """The points of a --points value, `default` when the flag is not
    given: comma separated, each of `arity` colon separated integers in
    ASCII digits, with an optional sign, reduced mod `prime` unless it is
    0.  A value naming no point is an error, as is a coordinate that is
    no such integer, which int() alone would let through as "1_0" or in
    other scripts' digits."""
    pts = []
    for part in (default if text is None else text).split(","):
        part = part.strip()
        if not part:
            continue
        coords = [v.strip() for v in part.split(":")]
        if not all(re.fullmatch(r"[+-]?[0-9]+", v) for v in coords):
            raise RingError("--points coordinates must be integers, got %r" % part)
        vals = tuple(int(v) for v in coords)
        if len(vals) != arity:
            raise RingError("point %r needs %d coordinates" % (part, arity))
        pts.append(tuple(v % prime for v in vals) if prime else vals)
    if not pts:
        raise RingError("--points %r names no point" % text)
    return pts


def _family_points(args, fam):
    """The parameter points of --points, default 0 and 1, over the
    family's field."""
    return _parse_points(args.points, "0,1", fam.ctx.n_params, fam.ctx.field.characteristic)


def _cert_payload(cert):
    return {
        "condition": cert.condition,
        "verdict": cert.verdict,
        "table": [
            {
                "i": i,
                "minor_size": size,
                # JSON has no infinity
                "height": "inf" if ht is math.inf else ht,
                "threshold": thr,
                "ok": ok,
            }
            for i, size, ht, thr, ok in cert.table
        ],
    }


def _emit(args, payload, lines):
    """Write the JSON payload, or `lines` under --format text or csv
    (only sweep offers csv, and its text lines are the CSV rows)."""
    if args.format == "json":
        out = json.dumps(payload, sort_keys=True) + "\n"
    else:
        out = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)


def _envelope(args, command, ctx, **payload):
    base = {
        "schema": SCHEMA,
        "command": command,
        "seed": args.seed,
        # the characteristic of the ring actually used, not the flag
        "prime": ctx.field.characteristic,
    }
    base.update(payload)
    return base


def _emit_ideal(args, command, ctx, handle, **payload):
    """Emit `payload` with the ring and the reduced Groebner basis of
    `handle`, each generator formatted once: the text lines are the ring
    header and the generators, as `serialize_ideal` writes them."""
    ring = format_ring_header(handle.ctx)
    gens = [format_poly(g) for g in groebner_basis(handle)]
    payload = _envelope(args, command, ctx, ring=ring, generators=gens, **payload)
    _emit(args, payload, [ring] + gens)


def cmd_degree(args):
    spec = _load_map(args)
    rep = degree_report(spec)
    payload = _envelope(
        args,
        "degree",
        ctx=spec.ctx,
        deg_map=rep.deg_map,
        deg_image=rep.deg_image,
        dim_image=rep.dim_image,
        analytic_spread=rep.analytic_spread,
        sfib_multiplicity=rep.sfib_multiplicity,
        trials=[],
    )
    text = [
        "deg_map: %s" % rep.deg_map,
        "deg_image: %s" % rep.deg_image,
        "dim_image: %s" % rep.dim_image,
    ]
    _emit(args, payload, text)


def cmd_image(args):
    spec = _load_map(args)
    img = spec.image
    _emit_ideal(
        args, "image", spec.ctx, spec.fiber, dim_image=img.proj_dim_of_scheme, deg_image=img.degree
    )


def cmd_rees(args):
    spec = _load_map(args)
    _emit_ideal(args, "rees", spec.ctx, spec.rees)


def cmd_fiber_cone(args):
    spec = _load_map(args)
    _emit_ideal(args, "fiber-cone", spec.ctx, spec.fiber)


def cmd_sfib_hf(args):
    spec = _load_map(args)
    points = _parse_points(args.points, "0,1,2,3,4,5")
    # every power is checked before the first value is read
    if any(n < 0 for (n,) in points):
        raise ValueError("power must be nonnegative")
    values = [{"n": n, "value": sfib_hilbert_function(spec, n)} for (n,) in points]
    payload = _envelope(args, "sfib-hf", ctx=spec.ctx, values=values)
    text = ["n=%d: %d" % (v["n"], v["value"]) for v in values]
    _emit(args, payload, text)


def cmd_conditions(args):
    with open(args.matrix) as fh:
        M = parse_matrix_file(fh.read())
    level = args.m if args.m is not None else M.ctx.nvars
    g = check_Gm(M, level)
    f = check_Fm(M, 0)
    payload = _envelope(
        args, "conditions", ctx=M.ctx, G=_cert_payload(g), F=_cert_payload(f)
    )
    text = [
        "%s: %s" % (g.condition, "holds" if g.verdict else "fails"),
        "%s: %s" % (f.condition, "holds" if f.verdict else "fails"),
    ]
    _emit(args, payload, text)


def cmd_sweep(args):
    fam = _load_family(args)
    points = _family_points(args, fam)
    rows = specialization_sweep(fam, points)
    payload = _envelope(
        args,
        "sweep",
        ctx=fam.ctx,
        rows=[
            {
                "point": list(r.point),
                "deg_map": r.deg_map,
                "deg_image": r.deg_image,
                "gr_dim": r.gr_dim,
                "G": r.g_condition,
                "status": r.status,
            }
            for r in rows
        ],
    )
    csv = ["point,deg_map,deg_image,gr_dim,G_{r+1},status"]
    for r in rows:
        pt = ":".join(str(v) for v in r.point)
        csv.append(
            "%s,%s,%s,%s,%s,%s"
            % (pt, r.deg_map, r.deg_image, r.gr_dim, r.g_condition, r.status)
        )
    _emit(args, payload, csv)


def cmd_jmult(args):
    spec = _load_map(args)
    value = j_multiplicity(spec)
    payload = _envelope(args, "jmult", ctx=spec.ctx, j_multiplicity=value)
    _emit(args, payload, ["j_multiplicity: %s" % value])


def cmd_gr_dim(args):
    if args.family:
        if args.ring is not None:
            raise RingError("--ring does not apply to --family, whose ring is its own")
        fam = _load_family(args)
        used_ctx = fam.ctx
        rows = [
            {"point": list(pt), "gr_dim": fam.gr_dimension(pt)} for pt in _family_points(args, fam)
        ]
    else:
        for flag, value in (("--points", args.points), ("--m", args.m)):
            if value is not None:
                raise RingError("%s does not apply to --map, only to --family" % flag)
        spec = _load_map(args)
        used_ctx = spec.ctx
        # dim gr_I(S) = dim S (Matsumura, Th. 15.7), from no basis
        rows = [{"point": [], "gr_dim": spec.r + 1}]
    payload = _envelope(args, "gr-dim", ctx=used_ctx, rows=rows)
    text = [
        "%s: %s" % (":".join(str(v) for v in r["point"]) or "-", r["gr_dim"])
        for r in rows
    ]
    _emit(args, payload, text)


HANDLERS = {
    "degree": cmd_degree,
    "image": cmd_image,
    "rees": cmd_rees,
    "fiber-cone": cmd_fiber_cone,
    "sfib-hf": cmd_sfib_hf,
    "conditions": cmd_conditions,
    "sweep": cmd_sweep,
    "jmult": cmd_jmult,
    "gr-dim": cmd_gr_dim,
}


def _integer(text):
    """An int flag value: ASCII digits with an optional sign, which int()
    alone would widen to "1_0" and other scripts' digits."""
    if not re.fullmatch(r"\s*[+-]?[0-9]+\s*", text):
        raise argparse.ArgumentTypeError("invalid integer %r" % text)
    return int(text)


# add_argument keywords of every flag
FLAGS = {
    "--map": {"help": "comma separated forms, or a map file path"},
    "--ring": {"help": "ring header, e.g. 'x0 x1 over 32003'"},
    "--prime": {
        "type": _integer,
        "help": "field characteristic, 0 for Q (default %d)" % DEFAULT_PRIME,
    },
    "--matrix": {"help": "matrix file path"},
    "--family": {"help": "dejonquieres, or a family file whose ring declares params"},
    "--m": {"type": _integer, "help": "de Jonquieres parameter m (default 2), or condition level"},
    "--points": {"help": "comma separated points (colon for tuples)"},
    "--seed": {"type": _integer, "default": DEFAULT_SEED, "help": "echoed in the output"},
    "--budget": {
        "type": _integer, "default": DEFAULT_BUDGET, "help": "step budget for the whole command"
    },
    "--format": {"choices": ("json", "text"), "default": "json"},
    "--out": {"help": "write output to a file instead of stdout"},
}
COMMON_FLAGS = ("--seed", "--budget", "--format", "--out")
MAP_FLAGS = ("--map", "--ring", "--prime")
# the flags each subcommand reads besides COMMON_FLAGS
SUBCOMMAND_FLAGS = {
    "degree": MAP_FLAGS,
    "image": MAP_FLAGS,
    "rees": MAP_FLAGS,
    "fiber-cone": MAP_FLAGS,
    "sfib-hf": MAP_FLAGS + ("--points",),
    "conditions": ("--matrix", "--m"),
    "sweep": ("--family", "--m", "--points", "--prime"),
    "jmult": MAP_FLAGS,
    "gr-dim": ("--map", "--family", "--ring", "--prime", "--m", "--points"),
}
# per-subcommand changes to FLAGS
OVERRIDES = {
    ("sweep", "--format"): {"choices": ("json", "csv", "text")},
}
# a subcommand requires its input flag; gr-dim takes a map or a family
INPUT_FLAGS = ("--map", "--matrix", "--family")


@lru_cache(maxsize=1)
def _parsers():
    """(the argument parser, {subcommand: its subparser}), built once."""
    parser = argparse.ArgumentParser(
        prog="reesdeg",
        description="Degrees and images of rational maps via blowup algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    subparsers = {}
    for name, flags in SUBCOMMAND_FLAGS.items():
        p = subparsers[name] = sub.add_parser(name)
        inputs = [f for f in flags if f in INPUT_FLAGS]
        one_of = p.add_mutually_exclusive_group(required=True) if len(inputs) > 1 else None
        for flag in flags + COMMON_FLAGS:
            kw = {**FLAGS[flag], **OVERRIDES.get((name, flag), {})}
            if one_of is not None and flag in inputs:
                one_of.add_argument(flag, **kw)
            else:
                p.add_argument(flag, required=flag in inputs, **kw)
    return parser, subparsers


def build_parser():
    """The argument parser."""
    return _parsers()[0]


# what _glue_negative_values never reads as a flag's value
_FLAG_WORDS = frozenset({*FLAGS, "-h", "--help"})


def _glue_negative_values(argv):
    """argv with each flag of FLAGS followed by a value that starts with
    '-' and names no flag (of FLAGS, alone or with `=`, or -h, --help)
    joined to it as `flag=value`: argparse reads such a value as a flag of
    its own unless it is a number, so `--map -x0^2,x1^2` would lack its value."""
    out = []
    for arg in argv:
        if out and out[-1] in FLAGS and arg[:1] == "-" and arg.split("=", 1)[0] not in _FLAG_WORDS:
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _parse_args(argv):
    """The parsed command line.  A command line that starts with a
    subcommand goes straight to its subparser, which gives what the
    full parser would; any other, and one that leaves arguments
    unrecognized, goes through the full parser, whose usage line and
    messages they need."""
    parser, subparsers = _parsers()
    if argv and argv[0] in subparsers:
        args, rest = subparsers[argv[0]].parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


def main(argv=None):
    args = _parse_args(_glue_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        with step_budget(args.budget):
            HANDLERS[args.command](args)
    except BudgetExceeded as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 3
    except (RingError, OSError, ValueError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
