"""The benchmark's workloads: how each op's input is made, run and checked.

A workload is a closed loop with one client.  Its ops run in rounds of
one op per backend, so every measured stretch covers the backends in
equal numbers.  Op ``i`` of a run with workload seed ``n`` gets the seed
string ``<workload>/<n>/<i>``; that string is both the only source of
the op's input and the trace id of its spans.

``tail_pct`` is the percentile reported as ``op_s.tail``: the highest
that leaves at least ten samples beyond it in a 25-second run at the
baseline, capped at p85.  It is fixed per workload, because a
percentile that moved with the number of ops a run completes would jump
between the backends' clusters of audit times when the host or the
program got faster.

Each workload splits an op into three steps, and only ``run`` is timed:

``prepare(op_seed, backend)``
    builds the input (config argv, morphisms, a failing check result);
``run(inp)``
    calls the program's public functions and returns their outputs;
``check(inp, out, verdicts)``
    verifies the outputs (audit verdicts against the expected ones) and
    returns the canonical bytes they digest to.  It raises
    ``CheckFailed`` on any wrong output.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random

from preab import cli
from preab.audit import instance_size, shrink
from preab.backends import get_backend
from preab.conditions import FAIL, MorphismInstance, instance_from_json, run_check
from preab.core import classify, decompose, pullback, pushout
from preab.report import ReportDocument

AUDIT_CONFIG = os.path.join(os.path.dirname(os.path.abspath(__file__)), "audit_config.json")
SHRINK_BUDGET = 200
DRAW_CAP = 200  # random morphisms tried per shrink-strict op before giving up


class CheckFailed(Exception):
    """An op's output is wrong."""


def _canonical(blob) -> bytes:
    return json.dumps(blob, sort_keys=True, separators=(",", ":")).encode()


def _mor(f) -> dict:
    return f.category.morphism_to_json(f)


def _square(sq) -> dict:
    return {"top": _mor(sq.top), "left": _mor(sq.left),
            "bottom": _mor(sq.bottom), "right": _mor(sq.right),
            "provenance": sq.provenance}


class AuditWorkload:
    """One op is ``preab audit`` in process, at the fixed baseline config."""

    def __init__(self, name, backends, trace_rounds, tail_pct):
        self.name = name
        self.backends = backends
        self.trace_rounds = trace_rounds
        self.tail_pct = tail_pct

    def prepare(self, op_seed, backend):
        return ["audit", "--config", AUDIT_CONFIG, "--backend", backend, "--seed", op_seed]

    def run(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    def check(self, argv, out, verdicts):
        code, text = out
        if code != 0:
            raise CheckFailed(f"preab audit exited {code}")
        if ReportDocument.parse(text).emit() != text:
            raise CheckFailed("report bytes are not canonical")
        report = json.loads(text)["report"]
        backend = argv[argv.index("--backend") + 1]
        # a backend that is not abelian may draw no non-strict morphism in a
        # small strictness scan; the audit then rightly says abelian-consistent
        expected = verdicts[backend]
        if report["strictness"]["non_strict"] == 0:
            expected = "abelian-consistent"
        if report["verdict"] != expected:
            raise CheckFailed(f"{backend}: verdict {report['verdict']}, expected {expected}")
        if report["witnesses"]:
            raise CheckFailed(f"{backend}: unexpected witnesses")
        return text.encode()


class DecomposeWorkload:
    """One op decomposes and classifies a fresh morphism, then squares it off."""

    name = "decompose-wide"
    backends = ("vectq", "subvect", "filtvect3", "latz")
    trace_rounds = 25
    tail_pct = 85
    # latz stops at 4: smith_with_transforms runs for minutes on some
    # morphisms (coefficient growth), e.g. the latz ops decompose-wide/21/391
    # drawn at bound 8 and decompose-wide/999/695 at bound 5; see README.md
    dim_bounds = {"vectq": 8, "subvect": 8, "filtvect3": 8, "latz": 4}

    def prepare(self, op_seed, backend):
        cat = get_backend(backend)
        rng = random.Random(op_seed)
        bound = self.dim_bounds[backend]
        f = cat.random_morphism(rng, cat.random_object(rng, bound), cat.random_object(rng, bound))
        alpha = cat.random_morphism(rng, f.dom, cat.random_object(rng, bound))
        t = cat.random_morphism(rng, cat.random_object(rng, bound), f.cod)
        return f, alpha, t

    def run(self, inp):
        f, alpha, t = inp
        return decompose(f), classify(f), pushout(alpha, f), pullback(f, t)

    def check(self, inp, out, verdicts):
        f, alpha, t = inp
        d, flags, po, pb = out
        if d.recompose() != f:
            raise CheckFailed("decomposition does not recompose to f")
        if flags.is_kernel != (flags.mono and flags.strict) or \
                flags.is_cokernel != (flags.epi and flags.strict) or \
                flags.bimorphism != (flags.mono and flags.epi):
            raise CheckFailed("inconsistent classification flags")
        if (po.top, po.left) != (f, alpha) or (pb.bottom, pb.right) != (f, t):
            raise CheckFailed("square does not sit on its span or cospan")
        return _canonical({
            "f": _mor(f),
            "decomposition": {"coim": _mor(d.coim), "fbar": _mor(d.fbar), "im": _mor(d.im)},
            "flags": flags.to_json(),
            "pushout": _square(po),
            "pullback": _square(pb),
        })


class ShrinkWorkload:
    """One op shrinks a genuine ``strict`` failure and replays the witness."""

    name = "shrink-strict"
    backends = ("latz", "subvect", "filtvect3")
    trace_rounds = 8
    tail_pct = 85
    dim_bound = 4

    def prepare(self, op_seed, backend):
        cat = get_backend(backend)
        rng = random.Random(op_seed)
        for _ in range(DRAW_CAP):
            f = cat.random_morphism(rng, cat.random_object(rng, self.dim_bound),
                                    cat.random_object(rng, self.dim_bound))
            res = run_check("strict", MorphismInstance(f))
            if res.verdict == FAIL:
                return res
        raise CheckFailed(f"no non-strict {backend} morphism in {DRAW_CAP} draws")

    def run(self, res):
        small, spent = shrink(res, SHRINK_BUDGET)
        return small, spent, run_check("strict", small.instance)

    def check(self, res, out, verdicts):
        small, spent, replay = out
        if small.verdict != FAIL or replay.verdict != FAIL:
            raise CheckFailed("shrunk witness does not fail")
        if not 0 < spent <= SHRINK_BUDGET:
            raise CheckFailed(f"shrink spent {spent} checks")
        if instance_size(small.instance) > instance_size(res.instance):
            raise CheckFailed("shrinking grew the instance")
        blob = small.to_json()
        # the replay a user runs: the serialized witness through `preab check`
        reparsed = instance_from_json(json.loads(json.dumps(blob["instance"])))
        if run_check("strict", reparsed).verdict != FAIL:
            raise CheckFailed("serialized witness does not replay as fail")
        return _canonical({"witness": blob, "checks_used": spent})


WORKLOADS = {w.name: w for w in (
    AuditWorkload("audit-rational", ("vectq", "subvect", "filtvect3"), trace_rounds=2,
                  tail_pct=55),
    AuditWorkload("audit-latz", ("latz",), trace_rounds=4, tail_pct=65),
    DecomposeWorkload(),
    ShrinkWorkload(),
)}
