"""Command line front end.

Subcommands: degree, image, rees, fiber-cone, sfib-hf, conditions,
sweep, jmult, gr-dim.  Output is a JSON envelope carrying schema, the
command, seed and prime (CSV and plain text are available where noted).
Exit codes: 0 success, 2 malformed input, 3 budget exceeded.  The
default step budget can be set through the REESDEG_BUDGET environment
variable and overridden per run with --budget.
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
    if not args.map:
        raise RingError("this command needs --map")
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
    if name is None:
        raise RingError("this command needs --family")
    if os.path.exists(name):
        with open(name) as fh:
            handle = parse_ideal(fh.read())
        if handle.ctx.n_params == 0:
            raise RingError("family file must declare params in its ring header")
        spec = FamilySpec("dejonquieres", mode="generic-parametric", prime=args.prime)
        return Family(spec, handle.ctx, None, tuple(handle.gens), 0)
    if name == "dejonquieres":
        return make_family(
            FamilySpec(
                "dejonquieres",
                m=args.m,
                mode="generic-parametric",
                seed=args.seed,
                prime=args.prime,
            )
        )
    if name == "hilbert_burch":
        mu = tuple(int(v) for v in args.mu.split(",")) if args.mu else ()
        return make_family(
            FamilySpec(
                "hilbert_burch",
                r=len(mu),
                mu=mu,
                seed=args.seed,
                prime=args.prime,
            )
        )
    if name == "pfaffian":
        return make_family(
            FamilySpec(
                "pfaffian", r=args.r, D=args.D, seed=args.seed, prime=args.prime
            )
        )
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


def _emit(args, payload, text_lines=None, csv_lines=None):
    fmt = args.format
    if fmt == "csv" and csv_lines is not None:
        out = "\n".join(csv_lines) + "\n"
    elif fmt == "text" and text_lines is not None:
        out = "\n".join(text_lines) + "\n"
    else:
        out = json.dumps(payload, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)


def _envelope(args, command, ctx=None, **payload):
    # report the characteristic of the ring actually used, not the flag
    prime = ctx.field.characteristic if ctx is not None else args.prime
    base = {
        "schema": SCHEMA,
        "command": command,
        "seed": args.seed,
        "prime": prime,
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
    rep = degree_report(spec, trials=args.trials, seed=args.seed, budget=args.budget)
    payload = _envelope(
        args,
        "degree",
        ctx=spec.ctx,
        deg_map=rep.deg_map,
        deg_image=rep.deg_image,
        dim_image=rep.dim_image,
        analytic_spread=rep.analytic_spread,
        sfib_multiplicity=rep.sfib_multiplicity,
        trials=[{"trial": t, "value": v} for t, v in rep.trials],
    )
    text = [
        "deg_map: %s" % rep.deg_map,
        "deg_image: %s" % rep.deg_image,
        "dim_image: %s" % rep.dim_image,
    ]
    _emit(args, payload, text_lines=text)


def cmd_image(args):
    spec = _load_map(args)
    from .ratmap import image_ideal

    fib = image_ideal(spec, budget=args.budget)
    summ = dim_degree(fib, budget=args.budget)
    payload = _envelope(
        args,
        "image",
        ctx=spec.ctx,
        dim_image=summ.proj_dim_of_scheme,
        deg_image=summ.degree,
        **_ideal_payload(fib),
    )
    _emit(args, payload, text_lines=serialize_ideal(fib).splitlines())


def cmd_rees(args):
    spec = _load_map(args)
    handle = rees_ideal(list(spec.forms), budget=args.budget)
    payload = _envelope(args, "rees", ctx=spec.ctx, **_ideal_payload(handle))
    _emit(args, payload, text_lines=serialize_ideal(handle).splitlines())


def cmd_fiber_cone(args):
    spec = _load_map(args)
    handle = fiber_cone_ideal(list(spec.forms), budget=args.budget)
    payload = _envelope(args, "fiber-cone", ctx=spec.ctx, **_ideal_payload(handle))
    _emit(args, payload, text_lines=serialize_ideal(handle).splitlines())


def cmd_sfib_hf(args):
    spec = _load_map(args)
    points = _parse_points(args.points or "0,1,2,3,4,5")
    values = [
        {"n": pt[0], "value": sfib_hilbert_function(list(spec.forms), pt[0], budget=args.budget)}
        for pt in points
    ]
    payload = _envelope(args, "sfib-hf", ctx=spec.ctx, values=values)
    text = ["n=%d: %d" % (v["n"], v["value"]) for v in values]
    _emit(args, payload, text_lines=text)


def cmd_conditions(args):
    if not args.matrix:
        raise RingError("conditions needs --matrix <file>")
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
    _emit(args, payload, text_lines=text)


def cmd_sweep(args):
    fam = _load_family(args)
    points = _parse_points(args.points or "0,1", arity=fam.ctx.n_params)
    rows = specialization_sweep(
        fam, points, trials=args.trials, seed=args.seed, budget=args.budget
    )
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
    _emit(args, payload, csv_lines=csv, text_lines=csv)


def cmd_jmult(args):
    spec = _load_map(args)
    value = j_multiplicity(spec, trials=args.trials, seed=args.seed, budget=args.budget)
    payload = _envelope(args, "jmult", ctx=spec.ctx, j_multiplicity=value)
    _emit(args, payload, text_lines=["j_multiplicity: %s" % value])


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
    _emit(args, payload, text_lines=text)


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


def build_parser():
    parser = argparse.ArgumentParser(
        prog="reesdeg",
        description="Degrees and images of rational maps via blowup algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    env_budget = os.environ.get("REESDEG_BUDGET")
    for name in HANDLERS:
        p = sub.add_parser(name)
        p.add_argument("--ring", help="ring header, e.g. 'x0 x1 over 32003'")
        p.add_argument("--map", help="comma separated forms, or a map file path")
        p.add_argument("--matrix", help="matrix file path")
        p.add_argument("--family", help="dejonquieres | hilbert_burch | pfaffian | file")
        p.add_argument("--m", type=int, default=None,
                       help="family parameter m, or condition level")
        p.add_argument("--mu", help="comma separated column degrees")
        p.add_argument("--D", type=int, default=1, help="pfaffian entry degree")
        p.add_argument("--r", type=int, default=4, help="pfaffian source dimension")
        p.add_argument("--points", help="comma separated points (colon for tuples)")
        p.add_argument("--trials", type=int, default=3)
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--prime", type=int, default=DEFAULT_PRIME)
        p.add_argument(
            "--budget",
            type=int,
            # argparse runs string defaults through `type`, so a malformed
            # REESDEG_BUDGET is a usage error like a malformed --budget
            default=env_budget or None,
            help="reduction step budget per basis computation",
        )
        p.add_argument("--format", choices=("json", "csv", "text"), default="json")
        p.add_argument("--out", help="write output to a file instead of stdout")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in ("sweep", "gr-dim") and args.m is None:
        args.m = 2
    if args.trials < 1 or (args.budget is not None and args.budget < 1):
        sys.stderr.write("error: --trials and --budget must be at least 1\n")
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
