"""Workload inputs, operation schedules and answer checks.

Everything here is generated from the workload seed.  A workload is a
list of *rounds*; a round runs every operation class of the workload
once, round j on its own instance j of each shape, so any whole number
of rounds has the same mix of operation classes and a run averages over
as many instances as it has rounds.  Instances are drawn in order from
one stream, so instance j is the same whatever the round count.  Warm-up
runs one operation per command on instances drawn from a separate
stream, so it never touches a timed input.

Each operation is one ``reesdeg`` subcommand invocation, given only the
flags that subcommand reads.  Its answer is checked against the known
laws of its family on every seed, and against the answers recorded in
``expected.json`` when its input was recorded there.
"""

import hashlib
import json
import os
import random
from dataclasses import dataclass

RECORD_ROUNDS = 20  # rounds of seed 1 whose answers expected.json holds
HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")

FP = 32003
WORKLOADS = ("saturate_fp", "eliminate_fp", "rational_q")


@dataclass(frozen=True)
class Op:
    """One subcommand invocation plus what its answer must satisfy."""

    label: str
    argv: tuple
    key: str
    law: object = None  # callable(payload) -> error message or None


def canonical_digest(payload):
    """Digest of the mathematically determined fields of an answer.

    The fiber-trial log is left out: it records which sample points were
    drawn, not the answer.
    """
    fields = {k: v for k, v in payload.items() if k != "trials"}
    text = json.dumps(fields, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:24]


def load_expected():
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def check_answer(op, rc, out, expected):
    """None when the answer is right, else a one-line reason."""
    if isinstance(rc, str):  # an exception escaped main
        return rc
    if rc != 0:
        return "exit code %d" % rc
    try:
        payload = json.loads(out)
    except ValueError:
        return "output is not JSON"
    if payload.get("command") != op.argv[0]:
        return "envelope names command %r" % payload.get("command")
    if op.law is not None:
        msg = op.law(payload)
        if msg:
            return msg
    want = expected.get(op.key)
    if want is not None and canonical_digest(payload) != want:
        return "answer differs from the recorded one"
    return None


# -- laws ------------------------------------------------------------------


def _law_product(prod):
    """Hilbert-Burch under G_3: deg_map * deg_image = mu1 * mu2."""

    def law(p):
        dm, di = p.get("deg_map"), p.get("deg_image")
        if not isinstance(dm, int) or dm * di != prod:
            return "deg_map*deg_image = %s*%s, want %d" % (dm, di, prod)
        return None

    return law


def _law_fields(**want):
    def law(p):
        for k, v in want.items():
            if p.get(k) != v:
                return "%s = %r, want %r" % (k, p.get(k), v)
        return None

    return law


def _law_g_holds(p):
    if p.get("G", {}).get("verdict") is not True:
        return "G_3 certificate fails on a matrix drawn to satisfy it"
    return None


def _law_sfib_odd(p):
    """sfib-hf of x0^2, x1^2 takes the value 2n + 1 at n."""
    for v in p.get("values", []):
        if v["value"] != 2 * v["n"] + 1:
            return "sfib-hf(%d) = %d, want %d" % (v["n"], v["value"], 2 * v["n"] + 1)
    return None


def _law_dejonquieres(m, with_degree):
    """gr_dim is 4 at a = 0 and 3 elsewhere; deg_map is 1 at a = 0 and m
    elsewhere."""

    def law(p):
        rows = p.get("rows", [])
        if not rows:
            return "no rows"
        for r in rows:
            at_zero = r["point"] == [0]
            if r["gr_dim"] != (4 if at_zero else 3):
                return "gr_dim %s at %s" % (r["gr_dim"], r["point"])
            if with_degree and r["deg_map"] != (1 if at_zero else m):
                return "deg_map %s at %s" % (r["deg_map"], r["point"])
        return None

    return law


# -- input generation --------------------------------------------------------


class Inputs:
    """Writes map and matrix files into `workdir` and builds operations.

    The key of an operation hashes the command, its flags and the text of
    its input file, never the file's path, so it names the same input in
    every checkout.
    """

    def __init__(self, workdir, prime):
        self.workdir = workdir
        self.prime = prime
        self.count = 0

    def _write(self, text, suffix):
        self.count += 1
        path = os.path.join(self.workdir, "in%04d.%s" % (self.count, suffix))
        with open(path, "w") as fh:
            fh.write(text)
        return path, text

    def map_file(self, forms):
        from reesdeg.ratmap import rational_map, serialize_map

        return self._write(serialize_map(rational_map(forms)), "map")

    def matrix_file(self, M):
        from reesdeg.conditions import serialize_matrix

        return self._write(serialize_matrix(M), "mat")

    def text_map(self, names, text):
        from reesdeg.ring import FieldSpec, RingCtx, parse_poly

        ctx = RingCtx(tuple(names), FieldSpec(self.prime))
        return self.map_file([parse_poly(part, ctx) for part in text.split(",")])

    def hilbert_burch(self, mu, rng):
        """Map and matrix of a Hilbert-Burch instance satisfying G_3."""
        from reesdeg.conditions import check_Gm
        from reesdeg.families import FamilySpec, make_family

        while True:
            spec = FamilySpec(
                "hilbert_burch", r=2, mu=mu, seed=rng.randrange(1 << 30), prime=self.prime
            )
            fam = make_family(spec)
            if check_Gm(fam.matrix, 3).verdict:
                return self.map_file(fam.forms), self.matrix_file(fam.matrix)

    def pfaffian(self, rng):
        from reesdeg.families import FamilySpec, make_family

        spec = FamilySpec("pfaffian", r=4, D=1, seed=rng.randrange(1 << 30), prime=self.prime)
        fam = make_family(spec)
        return self.map_file(fam.forms), self.matrix_file(fam.matrix)

    def linear_matrix(self, rows, cols, nvars, rng):
        from reesdeg.conditions import PresentationMatrix
        from reesdeg.families import dense_form
        from reesdeg.ring import FieldSpec, RingCtx

        ctx = RingCtx(tuple("x%d" % i for i in range(nvars)), FieldSpec(self.prime))
        entries = [[dense_form(ctx, 1, rng) for _ in range(cols)] for _ in range(rows)]
        return self.matrix_file(PresentationMatrix(ctx, entries))

    def param_values(self, rng, count):
        """Distinct nonzero parameter values for a de Jonquieres point list."""
        hi = self.prime - 1 if self.prime else 50
        vals = rng.sample(range(1, hi + 1), count)
        return "0," + ",".join(str(v) for v in vals)

    def op(self, label, command, flags=(), source=None, law=None):
        """`source` is a (path, text) pair passed as --map or --matrix."""
        argv = [command]
        keyed = [command]
        if source is not None:
            flag = "--matrix" if command == "conditions" else "--map"
            argv += [flag, source[0]]
            keyed += [flag, source[1]]
        argv += list(flags)
        keyed += list(flags)
        key = hashlib.sha256(json.dumps(keyed).encode()).hexdigest()[:24]
        return Op(label, tuple(argv), key, law)


# Over Q the cost of one instance varies more from instance to instance,
# so rational_q keeps to small shapes and runs many cheap rounds: with
# (2,2) and the Pfaffian a run held too few instances for steady figures.
HB_SHAPES = {
    "saturate_fp": ((1, 1), (1, 2), (2, 2), (2, 3)),
    "eliminate_fp": ((1, 1), (1, 2), (2, 2), (2, 3)),
    "rational_q": ((1, 1), (1, 2)),
}
# sfib-hf cost grows steeply with the shape: at n <= 3 over F_32003 on a
# 2-vCPU x86-64 VM it takes 6 s at (2,2), 20 s at (2,3), 62 s on the Pfaffian
SFIB_SHAPES = {"saturate_fp": ((1, 1), (1, 2)), "rational_q": ((1, 1),)}
ELIMINATE = ("rees", "fiber-cone", "image", "gr-dim")


def _fixed_maps(inputs):
    return {
        "sq": inputs.text_map(("x0", "x1"), "x0^2, x1^2"),
        "conic": inputs.text_map(("x0", "x1"), "x0^2, x0*x1, x1^2"),
        # forms free of x2: the image is a conic, not a surface
        "ngf": inputs.text_map(("x0", "x1", "x2"), "x0^2, x0*x1, x1^2"),
    }


class Workload:
    """Instances and operation schedule of one workload at one seed."""

    def __init__(self, name, seed, workdir, rounds):
        if name not in WORKLOADS:
            raise ValueError("unknown workload %r" % name)
        self.name = name
        self.prime = 0 if name == "rational_q" else FP
        self.inputs = Inputs(workdir, self.prime)
        rng = random.Random("%s:%d" % (name, seed))
        warm_rng = random.Random("%s:%d:warm-up" % (name, seed))
        self.fixed = _fixed_maps(self.inputs)
        self.pool = [self._instances(rng) for _ in range(max(rounds, 1))]
        self.warm = self._instances(warm_rng, warm_up=True)

    def _instances(self, rng, warm_up=False):
        inp = self.inputs
        shapes = ((1, 1),) if warm_up else HB_SHAPES[self.name]
        inst = {"cli_seed": str(rng.randrange(1, 1 << 20))}
        for mu in shapes:
            inst["hb%d%d" % mu] = inp.hilbert_burch(mu, rng)
        if not warm_up and self.name != "rational_q":
            inst["pf"] = inp.pfaffian(rng)
            if self.name == "eliminate_fp":
                inst["m65"] = inp.linear_matrix(6, 5, 4, rng)
        inst["points2"] = inp.param_values(rng, 2)
        inst["points3"] = inp.param_values(rng, 2)
        return inst

    def warm_up_ops(self):
        """One operation per command of the workload, on warm-up instances."""
        seen = set()
        out = []
        for op in self._round_ops(self.warm, warm_up=True):
            if op.argv[0] not in seen:
                seen.add(op.argv[0])
                out.append(op)
        return out

    def round_ops(self, j):
        return self._round_ops(self.pool[j])

    def _round_ops(self, inst, warm_up=False):
        inp = self.inputs
        name = self.name
        seed_flag = ("--seed", inst["cli_seed"])
        prime_flag = ("--prime", str(self.prime))
        hb = {k: v for k, v in inst.items() if k.startswith("hb")}
        maps = {k: v[0] for k, v in hb.items()}
        if "pf" in inst:
            maps["pf"] = inst["pf"][0]
        if not warm_up:
            maps.update(self.fixed)
        ops = []

        def mu_of(label):
            return int(label[2]), int(label[3])

        if name in ("saturate_fp", "rational_q"):
            for label, src in maps.items():
                law = None
                if label.startswith("hb"):
                    a, b = mu_of(label)
                    law = _law_product(a * b)
                elif label == "pf":
                    law = _law_fields(deg_map=1, dim_image=4, deg_image=1)
                ops.append(inp.op("degree " + label, "degree", seed_flag, src, law))
            for label, src in maps.items():
                # jmult repeats degree's work; on the Pfaffian that alone
                # would take a fifth of the round
                if label == "pf" or label == "ngf":
                    continue
                law = None
                if label.startswith("hb"):
                    a, b = mu_of(label)
                    law = _law_fields(j_multiplicity=(a + b) * a * b)
                ops.append(inp.op("jmult " + label, "jmult", seed_flag, src, law))
            pts = ("--points", "1,2,3")
            sfib = ["sq", "conic"] + ["hb%d%d" % mu for mu in SFIB_SHAPES[name]]
            for label in sfib:
                if label in maps:
                    law = _law_sfib_odd if label == "sq" else None
                    ops.append(inp.op("sfib-hf " + label, "sfib-hf", pts, maps[label], law))
            flags = ("--family", "dejonquieres", "--m", "2", "--points", inst["points2"])
            flags += seed_flag + prime_flag
            ops.append(inp.op("sweep dj2", "sweep", flags, None, _law_dejonquieres(2, True)))
        if name in ("eliminate_fp", "rational_q"):
            for command in ELIMINATE:
                for label, src in maps.items():
                    if name == "rational_q" and label in ("sq", "conic"):
                        continue
                    law = None
                    if command == "image" and label == "pf":
                        law = _law_fields(dim_image=4, deg_image=1)
                    ops.append(inp.op("%s %s" % (command, label), command, (), src, law))
            ms = ("2", "3") if name == "eliminate_fp" else ("2",)
            for m in ms:
                flags = ("--family", "dejonquieres", "--m", m)
                flags += ("--points", inst["points" + m]) + prime_flag
                law = _law_dejonquieres(int(m), False)
                ops.append(inp.op("gr-dim dj" + m, "gr-dim", flags, None, law))
            for label, pair in hb.items():
                ops.append(inp.op("conditions " + label, "conditions", (), pair[1], _law_g_holds))
            if name == "eliminate_fp" and "pf" in inst:
                ops.append(inp.op("conditions pf", "conditions", (), inst["pf"][1]))
            if "m65" in inst:
                ops.append(inp.op("conditions m65", "conditions", (), inst["m65"]))
        return ops
