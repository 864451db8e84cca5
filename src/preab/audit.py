"""Randomized audit campaigns over one backend.

An audit samples three kinds of evidence, entirely determined by its
config: a strictness scan of random morphisms, per-condition instances
for the full two-sided catalog (built non-vacuous by construction), and
semi-stability probes of constructed kernels and cokernels.  Each
condition sample is checked once: generation checks every attempt to
reject vacuous ones, and its first non-vacuous result is what gets
tallied.  The tallies feed a documented decision table that places the
backend in a hierarchy of consistency verdicts; every failing check is
shrunk to a small replayable witness.  Shrinking edits an instance
through the generating edges it states (see conditions), whatever its kind.

Passing verdicts are sampling claims ("no counterexample found"), never
proofs; a recorded failure is a hard fact, witnessed by its instance.

Decision table (after the coverage gate):

    any right.* and any left.* fail          -> preabelian-only
    any right.* fail, left side clean        -> left-only
    any left.* fail, right side clean        -> right-only
    both sides clean, no non-strict sample   -> abelian-consistent
    ... non-strict seen, probes all clean    -> quasi-abelian-consistent
    ... non-strict seen, probe failures or
        no probes configured                 -> semi-abelian-consistent

Coverage gate: every catalog condition needs at least max(1,
min_nonvacuous) non-vacuous samples, and the strictness scan at least as
many samples, otherwise the audit is inconclusive.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, fields

from .backends import get_backend
from .conditions import (
    ALL_CONDITIONS,
    FAIL,
    PASS,
    VACUOUS,
    CheckResult,
    ConditionId,
    MorphismInstance,
    PairInstance,
    SquareInstance,
    check_condition,
    classify,
    probe_semistable,
    run_check,
)
from .core import Category, ConstraintViolation, cokernel, kernel, pushout
from .linalg import RatMatrix

CONDITION_NAMES = tuple(str(c) for c in ALL_CONDITIONS)
EXTRA_SAMPLE_KEYS = ("strictness", "semistable")
KNOWN_SAMPLE_KEYS = frozenset(CONDITION_NAMES) | set(EXTRA_SAMPLE_KEYS) | {"default"}

WITNESS_CAP = 3  # shrunk witnesses kept per failing check
GENERATION_RETRIES = 5
# the largest dim_bound a config may set.  Audit time grows steeply with
# it: a one-sample audit takes at most about 0.5 s at 16 on every
# backend, but filtvect3 takes 2.5 s at 32 and 15 s at 64 (2-CPU machine)
MAX_DIM_BOUND = 16


class GenerationExhausted(Exception):
    """Raised when no non-vacuous instance could be built within the retry budget."""


def _positive_int(value, name, minimum=0):
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}")
    return value


@dataclass(frozen=True)
class AuditConfig:
    """Everything a reproducible audit depends on.

    samples maps a job name (a condition like "right.iii", or
    "strictness" / "semistable") to its sample count; missing names fall
    back to samples["default"].  The semistable count is the number of
    constructed kernels (and, separately, cokernels) to probe, each with
    probe_steps pushout (pullback) samples.
    """

    backend: str
    seed: str = "0"
    dim_bound: int = 3
    samples: dict = field(default_factory=lambda: {"default": 50})
    min_nonvacuous: int = 10
    shrink_budget: int = 200
    probe_steps: int = 25

    def __post_init__(self):
        get_backend(self.backend)
        if not isinstance(self.seed, str):
            raise ValueError("seed must be a string (a JSON config may give an integer)")
        _positive_int(self.dim_bound, "dim_bound", 1)
        if self.dim_bound > MAX_DIM_BOUND:
            raise ValueError(f"dim_bound {self.dim_bound} is above the limit of {MAX_DIM_BOUND}")
        _positive_int(self.min_nonvacuous, "min_nonvacuous")
        _positive_int(self.shrink_budget, "shrink_budget")
        _positive_int(self.probe_steps, "probe_steps")
        if not isinstance(self.samples, dict):
            raise ValueError("samples must be a mapping")
        for key, count in self.samples.items():
            if key not in KNOWN_SAMPLE_KEYS:
                raise ValueError(f"unknown sample key: {key!r}")
            _positive_int(count, f"samples.{key}")

    def sample_count(self, name: str) -> int:
        return self.samples.get(name, self.samples.get("default", 50))

    def to_json(self) -> dict:
        return {"backend": self.backend, "seed": self.seed,
                "dim_bound": self.dim_bound,
                "samples": {k: self.samples[k] for k in sorted(self.samples)},
                "min_nonvacuous": self.min_nonvacuous,
                "shrink_budget": self.shrink_budget,
                "probe_steps": self.probe_steps}

    @classmethod
    def from_json(cls, blob: dict) -> "AuditConfig":
        if not isinstance(blob, dict):
            raise ValueError("config must be a JSON object")
        known = {f.name for f in fields(cls)}
        for key in blob:
            if key not in known:
                raise ValueError(f"unknown config key: {key!r}")
        if "backend" not in blob:
            raise ValueError("config needs a backend")
        kwargs = dict(blob)
        if type(kwargs.get("seed")) is int:
            kwargs["seed"] = str(kwargs["seed"])
        return cls(**kwargs)


# ---------------------------------------------------------------------------
# instance generation


def _rand_morphism(cat: Category, rng: random.Random, bound: int):
    a = cat.random_object(rng, bound)
    b = cat.random_object(rng, bound)
    return cat.random_morphism(rng, a, b)


def _rand_kernel_leg(cat: Category, rng: random.Random, bound: int):
    return kernel(_rand_morphism(cat, rng, bound)).leg


def _rand_cokernel_leg(cat: Category, rng: random.Random, bound: int):
    return cokernel(_rand_morphism(cat, rng, bound)).leg


def _generate_right(cat: Category, index: str, rng: random.Random, bound: int):
    """Build an instance for a right-side condition, non-vacuous by design."""
    if index == "i":
        return MorphismInstance(_rand_morphism(cat, rng, bound))
    if index == "ii":
        # split a kernel k through a biproduct: the composite of the two
        # pieces is exactly k, so the hypothesis holds on the nose
        k = _rand_kernel_leg(cat, rng, bound)
        extra = cat.random_object(rng, bound)
        bp = cat.biproduct(k.dom, extra)
        u = cat.random_iso(rng, k.dom)
        inner = bp.pair(u, cat.zero_morphism(k.dom, extra))
        spill = cat.random_morphism(rng, extra, k.cod)
        outer = bp.copair(k @ cat.divide_left(u, cat.identity(k.dom)), spill)
        return PairInstance(outer=outer, inner=inner)
    if index == "vi":
        h = _rand_kernel_leg(cat, rng, bound)
        l = kernel(cat.random_morphism(rng, h.dom, cat.random_object(rng, bound))).leg
        return PairInstance(outer=h, inner=l)
    if index in ("iii", "iv", "v"):
        k = _rand_kernel_leg(cat, rng, bound)
        if index == "v":
            # a cokernel left edge pushes out to a cokernel right edge
            feed = cat.random_morphism(rng, cat.random_object(rng, bound), k.dom)
            alpha = cokernel(feed).leg
        else:
            alpha = cat.random_morphism(rng, k.dom, cat.random_object(rng, bound))
        return SquareInstance(pushout(alpha, k))
    if index == "vii":
        # strict top edge: cokernel leg, then a split mono, then an iso
        e = _rand_cokernel_leg(cat, rng, bound)
        extra = cat.random_object(rng, bound)
        bp = cat.biproduct(e.cod, extra)
        w = cat.random_iso(rng, bp.ob)
        top = bp.split_out(w)[0] @ e
        alpha = cat.random_morphism(rng, top.dom, cat.random_object(rng, bound))
        return SquareInstance(pushout(alpha, top))
    raise ValueError(f"unknown condition index: {index!r}")


def generate_instance(backend: str, cond, dim_bound: int, seed) -> CheckResult:
    """Deterministically build and check a non-vacuous instance for one condition.

    Returns the CheckResult of the first attempt whose verdict is not
    vacuous; the instance is its .instance.  Checkers are pure, so this is
    exactly what checking that instance afresh returns.  A left condition
    is checked as its right-side mirror on the opposite-category instance
    just built; only the returned result is dualized, so its instance
    serializes on the base side.  Retries a few
    reseeded attempts when a construction degenerates into a vacuous
    instance; raises GenerationExhausted when they all do.
    """
    cond = ConditionId.parse(cond)
    base = get_backend(backend)
    cat = base if cond.side == "right" else base.opposite()
    mirror = ConditionId("right", cond.index)
    for attempt in range(GENERATION_RETRIES):
        rng = random.Random(f"{seed}:try:{attempt}")
        inst = _generate_right(cat, cond.index, rng, dim_bound)
        # a left condition is its right mirror on the opposite-side instance
        res = check_condition(mirror, inst)
        if res.verdict != VACUOUS:
            if cond.side == "left":
                res = CheckResult(str(cond), res.verdict, inst.dualize(), res.witness)
            return res
    raise GenerationExhausted(f"no non-vacuous instance for {cond} from seed {seed!r}")


# ---------------------------------------------------------------------------
# shrinking


def _objects(edges: dict) -> list:
    """An instance's distinct objects by slot, each read off the first edge touching it."""
    objects = {}
    for f, dom, cod in edges.values():
        objects.setdefault(dom, f.dom)
        objects.setdefault(cod, f.cod)
    return [objects[i] for i in range(len(objects))]


def instance_size(inst) -> int:
    """Total ambient dimension across the instance's distinct objects."""
    cat = inst.category
    return sum(cat.ambient_dim(a.payload) for a in _objects(inst.edges()))


def _plan(inst):
    """Shrink plan: (payloads, matrices, sites, rebuild), all read off inst.edges().

    payloads lists the distinct objects, matrices the raw edge matrices.
    Each site is (payload index, {matrix name: axis}) tying one deletable
    ambient coordinate to the matrix columns (edges out of that object)
    and rows (edges into it) it removes.  rebuild turns edited payloads
    and matrices back into an instance, raising on anything invalid.  It
    validates only the payloads an edit replaced: one that is still the
    plan's own (``ps[i] is payloads[i]``) keeps the instance's object.
    """
    cat = inst.category
    edges = inst.edges()
    objects = _objects(edges)
    payloads = [a.payload for a in objects]
    mats = {name: f.payload for name, (f, _, _) in edges.items()}
    sites = [(i, {name: "col" if dom == i else "row"
                  for name, (_, dom, cod) in edges.items() if i in (dom, cod)})
             for i in range(len(payloads))]

    def rebuild(ps, ms):
        obs = [a if p is a.payload else cat.make_object(p) for a, p in zip(objects, ps)]
        built = {}
        for name, (_, dom, cod) in edges.items():
            f = cat.try_morphism(obs[dom], obs[cod], ms[name])
            if f is None:
                raise ConstraintViolation("edited matrix violates structure")
            built[name] = f
        return inst.with_edges(built)

    return payloads, mats, sites, rebuild


def _delete_axis(m: RatMatrix, axis: str, j: int) -> RatMatrix:
    return m.delete_column(j) if axis == "col" else m.delete_row(j)


def shrink(result: CheckResult, budget: int = 200) -> tuple[CheckResult, int]:
    """Greedily minimize a failing check's instance.

    Moves, in order: delete an ambient coordinate anywhere in the
    instance, starting over after each kept deletion; zero a matrix
    entry; replace a remaining entry by +-1.  A move is kept only when
    the edited instance still fails the same check.  A move that cannot
    be built costs nothing; every other costs one checker invocation,
    and budget caps those.  Returns the minimized result and the number
    of invocations spent.

    >>> latz = get_backend("latz")
    >>> f = latz.make_morphism(latz.make_object(3), latz.make_object(3),
    ...                        RatMatrix.from_rows([[2, 0, 0], [0, 1, 0], [0, 0, 1]]))
    >>> small, spent = shrink(run_check("strict", MorphismInstance(f)))
    >>> small.instance.to_json()["morphism"]["matrix"]["entries"], spent
    ([['2']], 14)
    """
    if result.verdict != FAIL:
        raise ValueError("only failing results can be shrunk")
    current, spent = result, 0

    def kept(rebuild, ps, ms) -> bool:
        """Check the edited instance; make it current if it still fails."""
        nonlocal current, spent
        try:
            inst = rebuild(ps, ms)
        except (ValueError, RuntimeError):
            return False
        spent += 1
        try:
            res = run_check(result.check, inst)
        except (ValueError, RuntimeError):
            return False
        if res.verdict == FAIL:
            current = res
        return res.verdict == FAIL

    def deletion_kept() -> bool:
        """Try current's coordinate deletions in sites order up to the first kept one."""
        payloads, mats, sites, rebuild = _plan(current.instance)
        cat = current.instance.category
        for i, touched in sites:
            for j in range(cat.ambient_dim(payloads[i])):
                if spent >= budget:
                    return False
                ps = list(payloads)
                ps[i] = cat.drop_coordinate(ps[i], j)
                ms = {name: _delete_axis(m, touched[name], j) if name in touched else m
                      for name, m in mats.items()}
                if kept(rebuild, ps, ms):
                    return True
        return False

    while spent < budget and deletion_kept():
        pass
    # entry edits replace no payload, so a kept edit's matrices are the
    # next plan's: each pass plans once
    for unit in (False, True):
        if spent >= budget:
            break
        payloads, mats, _, rebuild = _plan(current.instance)
        cells = [(name, i, j) for name in sorted(mats)
                 for i in range(mats[name].rows) for j in range(mats[name].cols)]
        for name, i, j in cells:
            if spent >= budget:
                break
            e = mats[name].entry(i, j)
            new = (1 if e > 0 else -1) if unit else 0
            if e != 0 and e != new:
                ms = {**mats, name: mats[name].with_entry(i, j, new)}
                if kept(rebuild, payloads, ms):
                    mats = ms
    return current, spent


# ---------------------------------------------------------------------------
# the audit itself


@dataclass(frozen=True)
class AuditReport:
    """Tallies, witnesses and the verdict of one audit run."""

    config: AuditConfig
    tallies: dict
    strictness: dict
    semistability: dict
    witnesses: tuple
    verdict: str
    caveats: tuple

    def to_json(self) -> dict:
        return {"backend": self.config.backend,
                "verdict": self.verdict,
                "caveats": list(self.caveats),
                "tallies": {k: dict(v) for k, v in sorted(self.tallies.items())},
                "strictness": dict(self.strictness),
                "semistability": {k: dict(v) for k, v in sorted(self.semistability.items())},
                "witnesses": [dict(w) for w in self.witnesses]}


def _evaluate_condition_job(backend, cond_name, dim_bound, seed):
    try:
        res = generate_instance(backend, cond_name, dim_bound, seed)
    except GenerationExhausted:
        return ("exhausted", None)
    return (res.verdict, res)


def _evaluate_strictness_job(backend, dim_bound, seed):
    cat = get_backend(backend)
    rng = random.Random(seed)
    f = _rand_morphism(cat, rng, dim_bound)
    flags = classify(f)
    return (flags.strict, MorphismInstance(f), flags)


def _evaluate_probe_job(backend, role, dim_bound, probe_steps, seed):
    cat = get_backend(backend)
    rng = random.Random(f"{seed}:pick")
    if role == "kernel":
        probed = _rand_kernel_leg(cat, rng, dim_bound)
    else:
        probed = _rand_cokernel_leg(cat, rng, dim_bound)
    return probe_semistable(probed, role, probe_steps, seed, dim_bound=dim_bound)


def run_audit(cfg: AuditConfig) -> AuditReport:
    """Run a full audit; a pure function of cfg.

    Each job depends only on its seed string "<seed>:<check>:<i>".  Jobs
    are tallied in a fixed order (conditions, strictness, probes), which
    decides the witnesses and the non-strict example that are kept.
    """
    backend, bound = cfg.backend, cfg.dim_bound

    tallies = {name: {"pass": 0, "fail": 0, "vacuous": 0, "exhausted": 0}
               for name in CONDITION_NAMES}
    failures = {name: [] for name in CONDITION_NAMES}
    for cond_name in CONDITION_NAMES:
        for i in range(cfg.sample_count(cond_name)):
            verdict, res = _evaluate_condition_job(
                backend, cond_name, bound, f"{cfg.seed}:{cond_name}:{i}")
            tallies[cond_name][verdict] += 1
            if verdict == FAIL and len(failures[cond_name]) < WITNESS_CAP:
                failures[cond_name].append(res)

    strict_tally = {"samples": 0, "strict": 0, "non_strict": 0, "non_strict_example": None}
    for i in range(cfg.sample_count("strictness")):
        strict, inst, flags = _evaluate_strictness_job(
            backend, bound, f"{cfg.seed}:strictness:{i}")
        strict_tally["samples"] += 1
        if strict:
            strict_tally["strict"] += 1
        else:
            strict_tally["non_strict"] += 1
            if strict_tally["non_strict_example"] is None:
                strict_tally["non_strict_example"] = {
                    "instance": inst.to_json(), "flags": flags.to_json()}

    probe_tally = {role: {"probes": 0, "clean": 0, "failures": 0}
                   for role in ("kernel", "cokernel")}
    probe_failures = []
    for role in ("kernel", "cokernel"):
        for i in range(cfg.sample_count("semistable")):
            res = _evaluate_probe_job(backend, role, bound, cfg.probe_steps,
                                      f"{cfg.seed}:semistable:{role}:{i}")
            probe_tally[role]["probes"] += 1
            if res.verdict == PASS:
                probe_tally[role]["clean"] += 1
            else:
                probe_tally[role]["failures"] += 1
                if len(probe_failures) < WITNESS_CAP:
                    probe_failures.append(("semistable", {"role": role}, res))

    # (check, extra witness keys, failing result), conditions first
    to_shrink = [(name, {}, res) for name in CONDITION_NAMES for res in failures[name]]
    witnesses = []
    for check, extra, res in to_shrink + probe_failures:
        small, spent = shrink(res, cfg.shrink_budget)
        witnesses.append({"check": check, **extra,
                          "result": small.to_json(),
                          "original_instance": res.instance.to_json(),
                          "shrink_checks_used": spent})

    verdict = decide_verdict(cfg, tallies, strict_tally, probe_tally)
    caveats = _caveats(tallies, strict_tally, probe_tally)
    return AuditReport(config=cfg, tallies=tallies, strictness=strict_tally,
                       semistability=probe_tally, witnesses=tuple(witnesses),
                       verdict=verdict, caveats=caveats)


def _coverage_ok(cfg: AuditConfig, tallies, strict_tally) -> bool:
    floor = max(1, cfg.min_nonvacuous)
    if strict_tally["samples"] < floor:
        return False
    for name in CONDITION_NAMES:
        t = tallies[name]
        if t["pass"] + t["fail"] < floor:
            return False
    return True


def decide_verdict(cfg: AuditConfig, tallies, strict_tally, probe_tally) -> str:
    """Apply the decision table documented in the module docstring."""
    if not _coverage_ok(cfg, tallies, strict_tally):
        return "inconclusive"
    right_fail = any(tallies[n]["fail"] for n in CONDITION_NAMES if n.startswith("right."))
    left_fail = any(tallies[n]["fail"] for n in CONDITION_NAMES if n.startswith("left."))
    if right_fail and left_fail:
        return "preabelian-only"
    if right_fail:
        return "left-only"
    if left_fail:
        return "right-only"
    if strict_tally["non_strict"] == 0:
        return "abelian-consistent"
    probes = sum(probe_tally[r]["probes"] for r in probe_tally)
    probe_failures = sum(probe_tally[r]["failures"] for r in probe_tally)
    if probes > 0 and probe_failures == 0:
        return "quasi-abelian-consistent"
    return "semi-abelian-consistent"


def _caveats(tallies, strict_tally, probe_tally) -> tuple:
    out = ["passing-verdicts-are-sampling-claims-not-proofs"]
    probes = sum(probe_tally[r]["probes"] for r in probe_tally)
    if probes > 0:
        out.append("semistability-probes-are-falsification-only")
    elif strict_tally["non_strict"]:
        out.append("semistability-unprobed")
    for name in CONDITION_NAMES:
        n = tallies[name]["exhausted"]
        if n:
            out.append(f"generation-exhausted:{name}:{n}")
    return tuple(out)
