"""Command line front end.

Subcommands: degree, image, rees, fiber-cone, sfib-hf, conditions,
sweep, jmult, gr-dim.  Each takes only the flags it reads, as listed in
SUBCOMMAND_FLAGS, plus --seed, --budget, --format and --out.  Its input
(--map, --matrix or --family; gr-dim takes a map or a family) is
required.  Output is a JSON envelope carrying schema, the command, seed
and prime; every subcommand also prints plain text, and sweep prints
CSV.  No answer depends on the seed, which is only echoed.  Exit codes:
0 success, 2 malformed input or usage, 3 budget exceeded.  The default
step budget can be set through the REESDEG_BUDGET environment variable
and overridden per run with --budget.
"""

import argparse
import json
import math
import os
import sys

from .blowup import (
    fiber_cone_ideal,
    gr_dimension_at,
    rees_ideal,
    sfib_hilbert_function,
)
from .conditions import check_Fm, check_Gm, parse_matrix_file
from .families import Family, FamilySpec, j_multiplicity, make_family, specialization_sweep
from .groebner import BudgetExceeded, serialize_ideal, parse_ideal
from .hilbert import dim_degree
from .ratmap import (
    DEFAULT_SEED,
    degree_report,
    parse_map_file,
    rational_map,
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
    import re

    seen = []
    for name in re.findall(r"[A-Za-z_][A-Za-z_0-9]*", map_text):
        if name not in seen:
            seen.append(name)

    def natural(n):
        m = re.fullmatch(r"([A-Za-z_]+)(\d*)", n)
        return (m.group(1), int(m.group(2)) if m.group(2) else -1)

    return RingCtx(tuple(sorted(seen, key=natural)), FieldSpec(prime))


def _load_map(args):
    if os.path.exists(args.map):
        with open(args.map) as fh:
            return parse_map_file(fh.read())
    if args.ring:
        ctx = _ring_from_text(args.ring)
    else:
        ctx = _infer_ring(args.map, args.prime)
    return rational_map([parse_poly(part, ctx) for part in args.map.split(",")])


def _load_family(args):
    name = args.family
    if os.path.exists(name):
        with open(name) as fh:
            handle = parse_ideal(fh.read())
        if handle.ctx.n_params == 0:
            raise RingError("family file must declare params in its ring header")
        spec = FamilySpec("dejonquieres", mode="generic-parametric", prime=args.prime)
        return Family(spec, handle.ctx, None, tuple(handle.gens), 0)
    if name == "dejonquieres":
        spec = FamilySpec("dejonquieres", m=args.m, mode="generic-parametric", prime=args.prime)
        return make_family(spec)
    raise RingError("unknown family %r" % name)


def _parse_points(text, arity=1):
    pts = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        vals = tuple(int(v) for v in part.split(":"))
        if len(vals) != arity:
            raise RingError("point %r needs %d coordinates" % (part, arity))
        pts.append(vals)
    return pts


def _jsonable(v):
    if v is math.inf:
        return "inf"
    if isinstance(v, tuple):
        return [_jsonable(x) for x in v]
    return v


def _cert_payload(cert):
    return {
        "condition": cert.condition,
        "verdict": cert.verdict,
        "table": [
            {
                "i": i,
                "minor_size": size,
                "height": _jsonable(ht),
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


def _ideal_payload(handle):
    return {
        "ring": format_ring_header(handle.ctx),
        "generators": [format_poly(g) for g in handle.gens],
    }


def cmd_degree(args):
    spec = _load_map(args)
    rep = degree_report(spec, budget=args.budget)
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
    fib = fiber_cone_ideal(list(spec.forms), budget=args.budget)
    summ = dim_degree(fib, budget=args.budget)
    payload = _envelope(
        args,
        "image",
        ctx=spec.ctx,
        dim_image=summ.proj_dim_of_scheme,
        deg_image=summ.degree,
        **_ideal_payload(fib),
    )
    _emit(args, payload, serialize_ideal(fib).splitlines())


def cmd_rees(args):
    spec = _load_map(args)
    handle = rees_ideal(list(spec.forms), budget=args.budget)
    payload = _envelope(args, "rees", ctx=spec.ctx, **_ideal_payload(handle))
    _emit(args, payload, serialize_ideal(handle).splitlines())


def cmd_fiber_cone(args):
    spec = _load_map(args)
    handle = fiber_cone_ideal(list(spec.forms), budget=args.budget)
    payload = _envelope(args, "fiber-cone", ctx=spec.ctx, **_ideal_payload(handle))
    _emit(args, payload, serialize_ideal(handle).splitlines())


def cmd_sfib_hf(args):
    spec = _load_map(args)
    points = _parse_points(args.points or "0,1,2,3,4,5")
    values = [
        {"n": pt[0], "value": sfib_hilbert_function(list(spec.forms), pt[0], budget=args.budget)}
        for pt in points
    ]
    payload = _envelope(args, "sfib-hf", ctx=spec.ctx, values=values)
    text = ["n=%d: %d" % (v["n"], v["value"]) for v in values]
    _emit(args, payload, text)


def cmd_conditions(args):
    with open(args.matrix) as fh:
        M = parse_matrix_file(fh.read())
    level = args.m if args.m is not None else M.ctx.nvars
    g = check_Gm(M, level, budget=args.budget)
    f = check_Fm(M, 0, budget=args.budget)
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
    points = _parse_points(args.points or "0,1", arity=fam.ctx.n_params)
    rows = specialization_sweep(fam, points, budget=args.budget)
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
    value = j_multiplicity(spec, budget=args.budget)
    payload = _envelope(args, "jmult", ctx=spec.ctx, j_multiplicity=value)
    _emit(args, payload, ["j_multiplicity: %s" % value])


def cmd_gr_dim(args):
    if args.family:
        fam = _load_family(args)
        used_ctx = fam.ctx
        points = _parse_points(args.points or "0,1", arity=fam.ctx.n_params)
        generic = fam.generic_rees(budget=args.budget)
        rows = [
            {
                "point": list(pt),
                "gr_dim": gr_dimension_at(
                    list(fam.forms), pt, generic=generic, budget=args.budget
                ),
            }
            for pt in points
        ]
    else:
        spec = _load_map(args)
        used_ctx = spec.ctx
        rows = [
            {
                "point": [],
                "gr_dim": gr_dimension_at(list(spec.forms), (), budget=args.budget),
            }
        ]
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


# add_argument keywords of every flag
FLAGS = {
    "--map": {"help": "comma separated forms, or a map file path"},
    "--ring": {"help": "ring header, e.g. 'x0 x1 over 32003'"},
    "--prime": {"type": int, "default": DEFAULT_PRIME, "help": "field characteristic, 0 for Q"},
    "--matrix": {"help": "matrix file path"},
    "--family": {"help": "dejonquieres, or a family file whose ring declares params"},
    "--m": {"type": int, "help": "de Jonquieres parameter m, or condition level"},
    "--points": {"help": "comma separated points (colon for tuples)"},
    "--seed": {"type": int, "default": DEFAULT_SEED, "help": "echoed in the output"},
    "--budget": {"type": int, "help": "reduction step budget per basis computation"},
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
    ("sweep", "--m"): {"default": 2},
    ("gr-dim", "--m"): {"default": 2},
}
# a subcommand requires its input flag; gr-dim takes a map or a family
INPUT_FLAGS = ("--map", "--matrix", "--family")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="reesdeg",
        description="Degrees and images of rational maps via blowup algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    env_budget = os.environ.get("REESDEG_BUDGET") or None
    for name, flags in SUBCOMMAND_FLAGS.items():
        p = sub.add_parser(name)
        inputs = [f for f in flags if f in INPUT_FLAGS]
        one_of = p.add_mutually_exclusive_group(required=True) if len(inputs) > 1 else None
        for flag in flags + COMMON_FLAGS:
            kw = {**FLAGS[flag], **OVERRIDES.get((name, flag), {})}
            if one_of is not None and flag in inputs:
                one_of.add_argument(flag, **kw)
            else:
                p.add_argument(flag, required=flag in inputs, **kw)
        # argparse runs string defaults through `type`, so a malformed
        # REESDEG_BUDGET is a usage error like a malformed --budget
        p.set_defaults(budget=env_budget)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.budget is not None and args.budget < 1:
        sys.stderr.write("error: --budget must be at least 1\n")
        return 2
    try:
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
