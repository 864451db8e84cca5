"""Audit engine: config validation, generation, shrinking, verdicts.

Condition failures are unreachable through honest construction on the
registered backends, so the witness pipeline is exercised by injecting
synthetic failures (mislabeled squares, fabricated probe results) into
the generation layer.
"""

import json
import random

import pytest

from preab import BACKENDS
from preab.audit import (
    CONDITION_NAMES,
    GENERATION_RETRIES,
    MAX_DIM_BOUND,
    WITNESS_CAP,
    AuditConfig,
    AuditReport,
    GenerationExhausted,
    _plan,
    decide_verdict,
    generate_instance,
    instance_size,
    run_audit,
    shrink,
)
from preab.backends import get_backend
from preab.backends.flags import FlagBackend
from preab.conditions import (
    CheckResult,
    MorphismInstance,
    PairInstance,
    ProbeInstance,
    SquareInstance,
    check_condition,
    instance_from_json,
    run_check,
)
from preab.core import (
    ConstraintViolation,
    Opposite,
    Square,
    classify,
    cokernel,
    kernel,
    pullback,
    pushout,
)
from preab.linalg import RatMatrix, Subspace

import preab.audit as audit_module

BACKEND_NAMES = sorted(BACKENDS)

SMALL = dict(seed="audit-tests", dim_bound=3,
             samples={"default": 6, "strictness": 40, "semistable": 2},
             min_nonvacuous=3, probe_steps=5)


def small_config(backend, **overrides):
    kwargs = {**SMALL, **overrides}
    return AuditConfig(backend=backend, **kwargs)


# ---------------------------------------------------------------------------
# config


class TestAuditConfig:
    def test_defaults(self):
        cfg = AuditConfig(backend="vectq")
        assert cfg.seed == "0"
        assert cfg.dim_bound == 3
        assert cfg.sample_count("right.iii") == 50
        assert cfg.sample_count("strictness") == 50

    def test_sample_count_fallback(self):
        cfg = AuditConfig(backend="vectq",
                          samples={"default": 7, "right.ii": 2, "semistable": 1})
        assert cfg.sample_count("right.ii") == 2
        assert cfg.sample_count("left.ii") == 7
        assert cfg.sample_count("semistable") == 1

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            AuditConfig(backend="setoids")

    @pytest.mark.parametrize("kwargs", [
        dict(dim_bound=0),
        dict(dim_bound="3"),
        dict(dim_bound=MAX_DIM_BOUND + 1),
        dict(min_nonvacuous=-1),
        dict(shrink_budget=True),
        dict(probe_steps=-2),
        dict(samples=[50]),
        dict(samples={"default": -1}),
        dict(samples={"right.viii": 5}),
        dict(samples={"sideways.ii": 5}),
        dict(seed=5),
        dict(seed=None),
    ])
    def test_bad_fields_rejected(self, kwargs):
        with pytest.raises(ValueError):
            AuditConfig(backend="vectq", **kwargs)

    def test_dim_bound_cap_accepted(self):
        assert AuditConfig(backend="latz", dim_bound=MAX_DIM_BOUND).dim_bound == MAX_DIM_BOUND

    def test_json_round_trip(self):
        cfg = small_config("subvect")
        again = AuditConfig.from_json(json.loads(json.dumps(cfg.to_json())))
        assert again == cfg

    def test_from_json_requires_backend(self):
        with pytest.raises(ValueError):
            AuditConfig.from_json({"seed": "x"})

    def test_from_json_rejects_unknown_keys(self):
        with pytest.raises(ValueError):
            AuditConfig.from_json({"backend": "vectq", "retries": 3})

    def test_from_json_rejects_non_object(self):
        with pytest.raises(ValueError):
            AuditConfig.from_json([1, 2])

    def test_from_json_coerces_seed_to_string(self):
        cfg = AuditConfig.from_json({"backend": "vectq", "seed": 17})
        assert cfg.seed == "17"


# ---------------------------------------------------------------------------
# instance generation


class TestGeneration:
    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    @pytest.mark.parametrize("cond", CONDITION_NAMES)
    def test_generated_instances_are_non_vacuous(self, backend, cond):
        res = generate_instance(backend, cond, 3, "gen-tests")
        fresh = check_condition(cond, res.instance)
        assert fresh.verdict in ("pass", "fail")
        # generation hands over exactly the result a fresh check computes
        assert fresh == res

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    @pytest.mark.parametrize("cond", CONDITION_NAMES)
    def test_generated_instances_round_trip(self, backend, cond):
        inst = generate_instance(backend, cond, 3, "gen-tests").instance
        blob = json.loads(json.dumps(inst.to_json()))
        assert instance_from_json(blob).to_json() == inst.to_json()

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    @pytest.mark.parametrize("cond", ["left.iii", "left.iv", "left.v", "left.vii"])
    def test_dualized_squares_replay_to_their_verdict(self, backend, cond):
        # these squares are dualized pushouts of the opposite category; each
        # is the canonical pullback of its cospan, so it replays to itself
        # and re-checking it gives back the generated result
        for i in range(25):
            res = generate_instance(backend, cond, 3, f"replay:{i}")
            blob = json.loads(json.dumps(res.instance.to_json()))
            assert blob["provenance"] == "pullback"
            replayed = instance_from_json(blob)
            assert replayed == res.instance
            assert check_condition(cond, replayed) == res

    def test_generation_is_deterministic(self):
        a = generate_instance("subvect", "right.iii", 3, "repeat").instance
        b = generate_instance("subvect", "right.iii", 3, "repeat").instance
        c = generate_instance("subvect", "right.iii", 3, "other").instance
        assert a.to_json() == b.to_json()
        assert c.to_json() != a.to_json()

    def test_each_condition_sample_is_checked_once(self, monkeypatch):
        calls = {"check": 0, "build": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(audit_module, "check_condition",
                            counted("check", audit_module.check_condition))
        monkeypatch.setattr(audit_module, "_generate_right",
                            counted("build", audit_module._generate_right))
        run_audit(small_config("vectq"))
        # one check per built attempt; none repeated by the condition job
        assert calls["check"] == calls["build"] >= 14 * 6

    def test_instance_size_sums_ambient_dims(self):
        cat = get_backend("vectq")
        f = cat.make_morphism(cat.make_object((2, ())), cat.make_object((3, ())),
                              RatMatrix.zeros(3, 2))
        assert instance_size(MorphismInstance(f)) == 5


# ---------------------------------------------------------------------------
# shrinking


def subvect_witness(ambient):
    cat = get_backend("subvect")
    dom = cat.make_object((ambient, (Subspace.zero(ambient),)))
    cod = cat.make_object((ambient, (Subspace.full(ambient),)))
    return cat.make_morphism(dom, cod, RatMatrix.identity(ambient))


def _subvect_edge(dom, cod, rows):
    """A subvect morphism between (dim, layer spanned by cols) objects."""
    cat = get_backend("subvect")
    ends = [cat.make_object((dim, (Subspace.span(dim, cols),))) for dim, cols in (dom, cod)]
    return cat.make_morphism(ends[0], ends[1], RatMatrix.from_rows(rows, cols=dom[0]))


# ambient dimension and spanning columns of the marked layer
DIAG2 = (2, [[1, 1]])
FULL1 = (1, [[1]])
ZERO1 = (1, [])
AXIS2 = (2, [[1, 0]])


def _shape_instances():
    edge = _subvect_edge
    return {
        "morphism": MorphismInstance(edge(DIAG2, DIAG2, [[1, 0], [0, 1]])),
        "pair": PairInstance(outer=edge(DIAG2, FULL1, [[1, 0]]),
                             inner=edge(FULL1, DIAG2, [[1], [1]])),
        "pushout": SquareInstance(pushout(edge(DIAG2, FULL1, [[1, 0]]),
                                          edge(DIAG2, DIAG2, [[1, 0], [0, 1]]))),
        "pullback": SquareInstance(pullback(edge(FULL1, DIAG2, [[1], [1]]),
                                            edge(DIAG2, DIAG2, [[1, 0], [0, 1]]))),
        # zero left and right edges keep every coordinate deletion commutative
        "commutative": SquareInstance(Square(
            top=edge(DIAG2, DIAG2, [[1, 0], [0, 1]]), left=edge(DIAG2, FULL1, [[0, 0]]),
            bottom=edge(FULL1, DIAG2, [[1], [1]]), right=edge(DIAG2, DIAG2, [[0, 0], [0, 0]]))),
        "kernel-probe": ProbeInstance(role="kernel", f=edge(FULL1, DIAG2, [[1], [1]]),
                                      along=edge(FULL1, AXIS2, [[1], [0]])),
        "cokernel-probe": ProbeInstance(role="cokernel", f=edge(DIAG2, FULL1, [[1, 0]]),
                                        along=edge(ZERO1, FULL1, [[1]])),
    }


PLAN_SITES = {
    "morphism": [(0, {"morphism": "col"}), (1, {"morphism": "row"})],
    "pair": [(0, {"inner": "col"}), (1, {"inner": "row", "outer": "col"}),
             (2, {"outer": "row"})],
    "pushout": [(0, {"left": "col", "top": "col"}), (1, {"left": "row"}),
                (2, {"top": "row"})],
    "pullback": [(0, {"bottom": "col"}), (1, {"right": "col"}),
                 (2, {"bottom": "row", "right": "row"})],
    "commutative": [(0, {"top": "col", "left": "col"}), (1, {"left": "row", "bottom": "col"}),
                    (2, {"top": "row", "right": "col"}), (3, {"bottom": "row", "right": "row"})],
    "kernel-probe": [(0, {"morphism": "col", "along": "col"}), (1, {"morphism": "row"}),
                     (2, {"along": "row"})],
    "cokernel-probe": [(0, {"morphism": "col"}), (1, {"morphism": "row", "along": "row"}),
                       (2, {"along": "col"})],
}


def _generated_instances():
    """A generated instance of every condition, and kernel and cokernel
    probes, on every backend, each also dualized."""
    insts = []
    for name in BACKEND_NAMES:
        cat = get_backend(name)
        for i, cond in enumerate(CONDITION_NAMES):
            insts.append(generate_instance(name, cond, 3, f"edges:{i}").instance)
            rng = random.Random(f"edges:{name}:{i}")
            f = cat.random_morphism(rng, cat.random_object(rng, 3), cat.random_object(rng, 3))
            k, c = kernel(f).leg, cokernel(f).leg
            insts += [ProbeInstance(role="kernel", f=k, along=cat.random_morphism(
                          rng, k.dom, cat.random_object(rng, 3))),
                      ProbeInstance(role="cokernel", f=c, along=cat.random_morphism(
                          rng, cat.random_object(rng, 3), c.cod))]
    return insts + [inst.dualize() for inst in insts]


def test_instances_state_their_edges_once():
    extra = {"square": ["provenance"], "probe": ["role"]}
    kinds = set()
    for inst in list(_shape_instances().values()) + _generated_instances():
        edges = inst.edges()
        rebuilt = inst.with_edges({k: f for k, (f, _, _) in edges.items()})
        assert rebuilt.edges() == edges
        assert rebuilt == inst
        kinds.add(inst.kind)
        if isinstance(inst.category, Opposite):
            continue
        blob = inst.to_json()
        assert instance_from_json(blob) == rebuilt
        assert list(blob) == ["kind", "backend", *extra.get(inst.kind, []), *edges]
    assert kinds == {"morphism", "pair", "square", "probe"}


@pytest.mark.parametrize("shape", sorted(PLAN_SITES))
def test_shrink_plan_sites_and_coordinate_deletion(shape):
    inst = _shape_instances()[shape]
    payloads, mats, sites, rebuild = _plan(inst)
    assert sites == PLAN_SITES[shape]
    cat = inst.category
    size = instance_size(inst)
    rebuilt = 0
    for obj_idx, touched in sites:
        for j in range(cat.ambient_dim(payloads[obj_idx])):
            ps = list(payloads)
            ps[obj_idx] = cat.drop_coordinate(ps[obj_idx], j)
            ms = {name: (mat if name not in touched else
                         mat.delete_column(j) if touched[name] == "col" else mat.delete_row(j))
                  for name, mat in mats.items()}
            try:
                smaller = rebuild(ps, ms)
            except ConstraintViolation:
                continue
            assert type(smaller) is type(inst)
            assert instance_size(smaller) == size - 1
            rebuilt += 1
    assert rebuilt > 0


def latz_strict(rows):
    """The strict check on a latz morphism Z^cols -> Z^rows."""
    cat = get_backend("latz")
    f = cat.make_morphism(cat.make_object(len(rows[0])), cat.make_object(len(rows)),
                          RatMatrix.from_rows(rows))
    return run_check("strict", MorphismInstance(f))


DIAG_211 = [[2, 0, 0], [0, 1, 0], [0, 0, 1]]


class TestShrink:
    def test_padded_inclusion_witness_shrinks_to_a_line(self):
        res = run_check("strict", MorphismInstance(subvect_witness(2)))
        assert res.verdict == "fail"
        small, spent = shrink(res)
        assert spent == 6
        assert small.verdict == "fail"
        assert small.instance.to_json() == {
            "kind": "morphism", "backend": "subvect",
            "morphism": {
                "backend": "subvect",
                "dom": {"dim": 1, "subspace": {"rows": 1, "cols": 0, "entries": [[]]}},
                "cod": {"dim": 1, "subspace": {"rows": 1, "cols": 1, "entries": [["1"]]}},
                "matrix": {"rows": 1, "cols": 1, "entries": [["1"]]}}}

    def test_lattice_witness_shrinks_to_doubling(self):
        res = latz_strict(DIAG_211)
        assert res.verdict == "fail"
        small, spent = shrink(res)
        assert instance_size(small.instance) == 2
        assert small.instance.to_json()["morphism"]["matrix"]["entries"] == [["2"]]
        assert spent == 14

    def test_budget_caps_checker_invocations(self):
        small, spent = shrink(latz_strict(DIAG_211), budget=3)
        assert spent <= 3
        assert small.verdict == "fail"

    def test_spent_budget_reads_no_entry(self, monkeypatch):
        res = latz_strict(DIAG_211)
        reads = []
        real = RatMatrix.entry
        monkeypatch.setattr(RatMatrix, "entry", lambda m, i, j: reads.append((i, j)) or real(m, i, j))
        _, spent = shrink(res, budget=3)
        assert spent == 3 and reads == []

    def test_plans_once_per_object_change(self, monkeypatch):
        """One plan per kept deletion, one for the last deletion round and
        one per entry pass: a kept entry edit replaces no object."""
        res = latz_strict([[0, 1, 1], [0, 1, 3]])
        plans = []
        monkeypatch.setattr(audit_module, "_plan", lambda inst: plans.append(inst) or _plan(inst))
        small, spent = shrink(res)
        # the zero column goes, then two entry edits are kept
        assert small.instance.to_json()["morphism"]["matrix"]["entries"] == [["1", "0"], ["0", "3"]]
        assert spent == 10
        kept_deletions = instance_size(res.instance) - instance_size(small.instance)
        assert kept_deletions == 1
        assert len(plans) == kept_deletions + 3

    def test_only_failures_shrink(self):
        cat = get_backend("vectq")
        f = cat.make_morphism(cat.make_object((1, ())), cat.make_object((1, ())),
                              RatMatrix.identity(1))
        res = run_check("strict", MorphismInstance(f))
        assert res.verdict == "pass"
        with pytest.raises(ValueError):
            shrink(res)

    def test_shrunk_witness_replays_from_json(self):
        res = run_check("strict", MorphismInstance(subvect_witness(3)))
        small, _ = shrink(res)
        replayed = instance_from_json(json.loads(json.dumps(small.instance.to_json())))
        assert run_check("strict", replayed).verdict == "fail"


def _remaking_plan(inst):
    """_plan with the rebuild that makes every object afresh from its payload."""
    payloads, mats, sites, _ = _plan(inst)
    cat, edges = inst.category, inst.edges()

    def rebuild(ps, ms):
        built = {}
        for name, (_, dom, cod) in edges.items():
            f = cat.try_morphism(cat.make_object(ps[dom]), cat.make_object(ps[cod]), ms[name])
            if f is None:
                raise ConstraintViolation("edited matrix violates structure")
            built[name] = f
        return inst.with_edges(built)

    return payloads, mats, sites, rebuild


def _strict_failures(name, count):
    """The first count non-strict morphisms drawn at dimension <= 4, checked."""
    cat = get_backend(name)
    rng = random.Random(f"strict failures:{name}")
    out = []
    while len(out) < count:
        f = cat.random_morphism(rng, cat.random_object(rng, 4), cat.random_object(rng, 4))
        res = run_check("strict", MorphismInstance(f))
        if res.verdict == "fail":
            out.append(res)
    return out


def _stand_in_check(check, inst):
    """Fails while the instance has three coordinates and a non-zero edge."""
    fails = instance_size(inst) >= 3 and any(
        not f.payload.is_zero() for f, _, _ in inst.edges().values())
    return CheckResult(check, "fail" if fails else "pass", inst)


def _stand_in_failures():
    """Pushout, pullback and probe instances on every backend, failing the stand-in."""
    insts = []
    for name in BACKEND_NAMES:
        cat = get_backend(name)
        for i in range(3):
            insts += [generate_instance(name, "right.iii", 3, f"reuse:{i}").instance,
                      generate_instance(name, "left.iii", 3, f"reuse:{i}").instance]
            rng = random.Random(f"reuse:{name}:{i}")
            f = cat.random_morphism(rng, cat.random_object(rng, 3), cat.random_object(rng, 3))
            k, c = kernel(f).leg, cokernel(f).leg
            insts += [ProbeInstance(role="kernel", f=k, along=cat.random_morphism(
                          rng, k.dom, cat.random_object(rng, 3))),
                      ProbeInstance(role="cokernel", f=c, along=cat.random_morphism(
                          rng, cat.random_object(rng, 3), c.cod))]
    return [_stand_in_check("stand-in", inst) for inst in insts]


def _shrink_both_ways(monkeypatch, res):
    small, spent = shrink(res)
    with monkeypatch.context() as m:
        m.setattr(audit_module, "_plan", _remaking_plan)
        reference = shrink(res)
    assert (small, spent) == reference
    assert small.to_json() == reference[0].to_json()
    return spent


@pytest.mark.parametrize("backend", ["latz", "subvect", "filtvect3"])
def test_shrinking_strict_failures_matches_remaking_every_object(monkeypatch, backend):
    spent = [_shrink_both_ways(monkeypatch, res) for res in _strict_failures(backend, 4)]
    assert all(spent)


def test_shrinking_under_a_stand_in_check_matches_remaking_every_object(monkeypatch):
    monkeypatch.setattr(audit_module, "run_check", _stand_in_check)
    failures = [res for res in _stand_in_failures() if res.verdict == "fail"]
    assert {res.instance.kind for res in failures} == {"square", "probe"}
    assert {res.instance.square.provenance for res in failures
            if res.instance.kind == "square"} == {"pushout", "pullback"}
    assert sum(_shrink_both_ways(monkeypatch, res) for res in failures) > 0


def test_shrink_makes_only_the_objects_an_edit_replaced(monkeypatch):
    """Each coordinate deletion replaces one payload, which is the only one
    rebuilt through make_object; entry edits rebuild none."""
    square = next(res for res in _stand_in_failures()
                  if res.verdict == "fail" and res.instance.category.name == "filtvect3")
    strict = run_check("strict", MorphismInstance(subvect_witness(3)))
    calls = {"make_object": 0, "drop_coordinate": 0}

    def counted(name):
        real = getattr(FlagBackend, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(FlagBackend, name, counted(name))
    for res in (strict, square):
        calls.update(make_object=0, drop_coordinate=0)
        with monkeypatch.context() as m:
            if res is square:
                m.setattr(audit_module, "run_check", _stand_in_check)
            shrink(res)
        assert calls["make_object"] == calls["drop_coordinate"] > 0


# ---------------------------------------------------------------------------
# full runs on the registered backends


class TestRunAudit:
    @pytest.mark.parametrize("backend,verdict,non_strict", [
        ("vectq", "abelian-consistent", 0),
        ("subvect", "quasi-abelian-consistent", 5),
        ("filtvect3", "quasi-abelian-consistent", 7),
        ("latz", "quasi-abelian-consistent", 4),
    ])
    def test_zoo_verdicts(self, backend, verdict, non_strict):
        rep = run_audit(small_config(backend))
        assert rep.verdict == verdict
        assert rep.witnesses == ()
        assert rep.strictness["non_strict"] == non_strict
        assert rep.strictness["samples"] == 40
        for name in CONDITION_NAMES:
            t = rep.tallies[name]
            assert t["fail"] == 0
            assert t["pass"] >= 3
        for role in ("kernel", "cokernel"):
            assert rep.semistability[role] == {"probes": 2, "clean": 2, "failures": 0}

    def test_reports_are_deterministic(self):
        cfg = small_config("subvect")
        assert run_audit(cfg).to_json() == run_audit(cfg).to_json()

    def test_insufficient_coverage_is_inconclusive(self):
        cfg = AuditConfig(backend="vectq", seed="thin",
                          samples={"default": 2, "semistable": 1},
                          min_nonvacuous=5, probe_steps=2)
        rep = run_audit(cfg)
        assert rep.verdict == "inconclusive"

    def test_non_strict_example_is_recorded(self):
        rep = run_audit(small_config("subvect"))
        example = rep.strictness["non_strict_example"]
        assert not example["flags"]["strict"]
        inst = instance_from_json(example["instance"])
        assert run_check("strict", inst).verdict == "fail"

    def test_probe_caveats(self):
        rep = run_audit(small_config("subvect"))
        assert "passing-verdicts-are-sampling-claims-not-proofs" in rep.caveats
        assert "semistability-probes-are-falsification-only" in rep.caveats
        unprobed = run_audit(small_config(
            "subvect", samples={"default": 4, "strictness": 40, "semistable": 0},
            min_nonvacuous=2))
        assert unprobed.verdict == "semi-abelian-consistent"
        assert "semistability-unprobed" in unprobed.caveats

    def test_report_json_shape(self):
        rep = run_audit(small_config("vectq"))
        blob = rep.to_json()
        assert set(blob) == {"backend", "verdict", "caveats", "tallies",
                             "strictness", "semistability", "witnesses"}
        assert set(blob["tallies"]) == set(CONDITION_NAMES)
        assert all(set(t) == {"pass", "fail", "vacuous", "exhausted"}
                   for t in blob["tallies"].values())


# ---------------------------------------------------------------------------
# synthetic failure injection


def lying_pushout_square():
    """A commuting square mislabeled as a pushout; its top is a kernel."""
    cat = get_backend("vectq")
    z = cat.make_object((0, ()))
    q = cat.make_object((1, ()))
    return Square(top=cat.make_morphism(z, q, RatMatrix.zeros(1, 0)),
                  left=cat.make_morphism(z, q, RatMatrix.zeros(1, 0)),
                  bottom=cat.make_morphism(q, q, RatMatrix.identity(1)),
                  right=cat.make_morphism(q, q, RatMatrix.zeros(1, 1)),
                  provenance="pushout")


class TestFailureInjection:
    def test_condition_failures_become_shrunk_witnesses(self, monkeypatch):
        real = generate_instance

        def planted(backend, cond, dim_bound, seed):
            if cond == "right.iii":
                return check_condition("right.iii", SquareInstance(lying_pushout_square()))
            return real(backend, cond, dim_bound, seed)

        monkeypatch.setattr(audit_module, "generate_instance", planted)
        rep = run_audit(small_config("vectq"))
        assert rep.verdict == "left-only"
        assert rep.tallies["right.iii"]["fail"] == 6
        assert len(rep.witnesses) == WITNESS_CAP
        for entry in rep.witnesses:
            assert entry["check"] == "right.iii"
            assert entry["result"]["verdict"] == "fail"
            assert entry["result"]["witness"]["reason"] == "pushout-square-not-pullback"
            # serialization keeps only the generating cospan, so replaying a
            # mislabeled square rebuilds the honest pushout, which passes;
            # honestly generated squares rebuild identically instead
            replayed = instance_from_json(entry["result"]["instance"])
            assert run_check("right.iii", replayed).verdict == "pass"

    def test_exhausted_generation_is_reported(self, monkeypatch):
        real = generate_instance

        def starved(backend, cond, dim_bound, seed):
            if cond == "left.vii":
                raise GenerationExhausted(cond)
            return real(backend, cond, dim_bound, seed)

        monkeypatch.setattr(audit_module, "generate_instance", starved)
        rep = run_audit(small_config("vectq"))
        assert rep.verdict == "inconclusive"
        assert rep.tallies["left.vii"] == {"pass": 0, "fail": 0, "vacuous": 0,
                                           "exhausted": 6}
        assert "generation-exhausted:left.vii:6" in rep.caveats

    def test_probe_failures_carry_their_role(self, monkeypatch):
        cat = get_backend("subvect")

        a = cat.make_object((2, (Subspace.full(2),)))
        b = cat.make_object((1, (Subspace.full(1),)))
        p = cat.make_morphism(a, b, RatMatrix.from_rows([[1, 0]]))
        k = kernel(p).leg

        def fabricated(backend, role, dim_bound, probe_steps, seed):
            inst = ProbeInstance(role="kernel", f=k, along=cat.identity(k.dom))
            return CheckResult(check="semistable", verdict="fail", instance=inst,
                               witness={"reason": "synthetic"})

        monkeypatch.setattr(audit_module, "_evaluate_probe_job", fabricated)
        rep = run_audit(small_config("subvect"))
        assert rep.semistability["kernel"]["failures"] == 2
        roles = [w["role"] for w in rep.witnesses if w["check"] == "semistable"]
        assert roles and set(roles) <= {"kernel", "cokernel"}
        assert rep.witnesses  # exit-code-2 territory for the CLI


# ---------------------------------------------------------------------------
# verdict decision table


def clean_tallies(n=5):
    return {name: {"pass": n, "fail": 0, "vacuous": 0, "exhausted": 0}
            for name in CONDITION_NAMES}


def strict_tally(samples=5, non_strict=0):
    return {"samples": samples, "strict": samples - non_strict,
            "non_strict": non_strict, "non_strict_example": None}


def probe_tally(probes=2, kernel_failures=0):
    return {"kernel": {"probes": probes, "clean": probes - kernel_failures,
                       "failures": kernel_failures},
            "cokernel": {"probes": probes, "clean": probes, "failures": 0}}


class TestDecideVerdict:
    CFG = AuditConfig(backend="vectq", min_nonvacuous=3)

    def test_all_strict_is_abelian_consistent(self):
        assert decide_verdict(self.CFG, clean_tallies(), strict_tally(),
                              probe_tally()) == "abelian-consistent"

    def test_non_strict_with_clean_probes_is_quasi_abelian(self):
        assert decide_verdict(self.CFG, clean_tallies(), strict_tally(non_strict=2),
                              probe_tally()) == "quasi-abelian-consistent"

    def test_non_strict_without_probes_is_semi_abelian(self):
        assert decide_verdict(self.CFG, clean_tallies(), strict_tally(non_strict=2),
                              probe_tally(probes=0)) == "semi-abelian-consistent"

    def test_probe_failure_blocks_quasi_abelian(self):
        assert decide_verdict(self.CFG, clean_tallies(), strict_tally(non_strict=2),
                              probe_tally(kernel_failures=1)) == "semi-abelian-consistent"

    def test_right_failure_leaves_left_only(self):
        t = clean_tallies()
        t["right.iv"]["fail"] = 1
        assert decide_verdict(self.CFG, t, strict_tally(), probe_tally()) == "left-only"

    def test_left_failure_leaves_right_only(self):
        t = clean_tallies()
        t["left.ii"]["fail"] = 1
        assert decide_verdict(self.CFG, t, strict_tally(), probe_tally()) == "right-only"

    def test_two_sided_failure_is_preabelian_only(self):
        t = clean_tallies()
        t["right.i"]["fail"] = 1
        t["left.vi"]["fail"] = 1
        assert decide_verdict(self.CFG, t, strict_tally(),
                              probe_tally()) == "preabelian-only"

    def test_thin_condition_coverage_is_inconclusive(self):
        t = clean_tallies()
        t["left.iii"] = {"pass": 1, "fail": 0, "vacuous": 4, "exhausted": 0}
        assert decide_verdict(self.CFG, t, strict_tally(),
                              probe_tally()) == "inconclusive"

    def test_thin_strictness_coverage_is_inconclusive(self):
        assert decide_verdict(self.CFG, clean_tallies(), strict_tally(samples=2),
                              probe_tally()) == "inconclusive"

    def test_failures_count_toward_coverage(self):
        t = clean_tallies()
        t["right.vii"] = {"pass": 2, "fail": 1, "vacuous": 2, "exhausted": 0}
        assert decide_verdict(self.CFG, t, strict_tally(), probe_tally()) == "left-only"
