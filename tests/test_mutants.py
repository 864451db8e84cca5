"""Failure paths that no registered backend reaches, driven by mutants.

The registered backends satisfy every check, so a failing branch runs
only when something is broken.  Each test installs a test-only mutant
with monkeypatch: a decomposition that loses one of its legs, a
classification that denies that one morphism is strict (so a kernel),
an opposite classification that does not trade mono and epi, or a
generator that draws only vacuous instances.  A failure must carry its
reason, and its instance must replay through ``preab check`` to the
same result, with exit code 2.
"""

import dataclasses
import json
import random

import pytest

import preab.audit as audit_module
import preab.conditions as conditions
from preab import BACKENDS
from preab.audit import AuditConfig, run_audit
from preab.cli import main
from preab.conditions import (
    FAIL,
    MorphismInstance,
    PairInstance,
    ProbeInstance,
    probe_semistable,
    run_check,
)
from preab.core import Opposite, kernel, pushout

ALL = sorted(BACKENDS)

# a small audit config at which every backend, unmutated, reads -consistent
MUTANT_AUDIT = dict(seed="mutants", dim_bound=3,
                    samples={"default": 3, "strictness": 5, "semistable": 1},
                    min_nonvacuous=1, probe_steps=2)


def zero_leg(monkeypatch, leg):
    """Mutant: each decomposition the checkers read has its ``leg`` zeroed."""
    real = conditions.decompose

    def mutant(f):
        d = real(f)
        old = getattr(d, leg)
        return dataclasses.replace(d, **{leg: old.category.zero_morphism(old.dom, old.cod)})

    monkeypatch.setattr(conditions, "decompose", mutant)


def deny_kernel(monkeypatch, target):
    """Mutant: the checkers' classification says ``target`` is not strict,
    so not a kernel."""
    real = conditions.classify

    def mutant(f):
        flags = real(f)
        return dataclasses.replace(flags, strict=False) if f == target else flags

    monkeypatch.setattr(conditions, "classify", mutant)


def replay(instance_json, check, tmp_path, capsys):
    """Run ``preab check`` on a serialized instance: (exit code, printed result)."""
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(instance_json))
    capsys.readouterr()
    code = main(["check", check, "--instance", str(path)])
    return code, json.loads(capsys.readouterr().out)


def assert_fails_and_replays(res, check, reason, tmp_path, capsys):
    assert res.check == check and res.verdict == FAIL
    assert res.witness["reason"] == reason
    code, printed = replay(res.instance.to_json(), check, tmp_path, capsys)
    assert code == 2
    assert printed == json.loads(json.dumps(res.to_json()))


def nonzero_pair(cat, rng, outer_is_kernel=False):
    """A composable pair (outer, inner) with a nonzero composite."""
    while True:
        a, b = cat.random_object(rng, 3), cat.random_object(rng, 3)
        outer = cat.random_morphism(rng, a, b)
        if outer_is_kernel:
            outer = kernel(outer).leg
        inner = cat.random_morphism(rng, cat.random_object(rng, 3), outer.dom)
        if not cat.is_zero_morphism(outer @ inner):
            return outer, inner


@pytest.mark.parametrize("name", ALL)
@pytest.mark.parametrize("check, reason", [("right.i", "middle-arrow-not-epi"),
                                           ("semi_abelian", "middle-arrow-not-bimorphism")])
def test_lost_middle_arrow_fails_the_middle_arrow_checks(name, check, reason, monkeypatch,
                                                        tmp_path, capsys):
    cat = BACKENDS[name]
    outer, inner = nonzero_pair(cat, random.Random(f"mutants:middle:{name}"))
    f = outer @ inner
    assert run_check(check, MorphismInstance(f)).verdict == "pass"
    zero_leg(monkeypatch, "fbar")
    assert_fails_and_replays(run_check(check, MorphismInstance(f)), check, reason,
                             tmp_path, capsys)


def nonzero_object(cat, rng):
    a = cat.random_object(rng, 3)
    while cat.is_zero_object(a):
        a = cat.random_object(rng, 3)
    return a


def injection(c, a, b):
    """A -> A (+) B in c, the kernel of the second projection."""
    return c.biproduct(a, b).pair(c.identity(a), c.zero_morphism(a, b))


@pytest.mark.parametrize("name", ALL)
def test_denied_inner_kernel_fails_right_ii(name, monkeypatch, tmp_path, capsys):
    cat = BACKENDS[name]
    rng = random.Random(f"mutants:right.ii:{name}")
    a, b = nonzero_object(cat, rng), nonzero_object(cat, rng)
    # the injection of a, then the projection back: the composite is id_a
    inner = injection(cat, a, b)
    outer = cat.biproduct(a, b).copair(cat.identity(a), cat.zero_morphism(b, a))
    inst = PairInstance(outer=outer, inner=inner)
    assert run_check("right.ii", inst).verdict == "pass"
    deny_kernel(monkeypatch, inner)
    assert_fails_and_replays(run_check("right.ii", inst), "right.ii",
                             "inner-factor-not-kernel", tmp_path, capsys)


@pytest.mark.parametrize("name", ALL)
def test_denied_composite_kernel_fails_right_vi(name, monkeypatch, tmp_path, capsys):
    cat = BACKENDS[name]
    rng = random.Random(f"mutants:right.vi:{name}")
    a, b, c = (nonzero_object(cat, rng) for _ in range(3))
    inner = injection(cat, a, b)
    inst = PairInstance(outer=injection(cat, inner.cod, c), inner=inner)
    assert run_check("right.vi", inst).verdict == "pass"
    deny_kernel(monkeypatch, inst.composite)
    assert_fails_and_replays(run_check("right.vi", inst), "right.vi",
                             "composite-of-kernels-not-kernel", tmp_path, capsys)


@pytest.mark.parametrize("name", ALL)
def test_lost_image_leg_fails_composite_cones(name, monkeypatch, tmp_path, capsys):
    outer, inner = nonzero_pair(BACKENDS[name], random.Random(f"mutants:cones:{name}"))
    inst = PairInstance(outer=outer, inner=inner)
    assert run_check("composite_cones", inst).verdict == "pass"
    zero_leg(monkeypatch, "im")
    res = run_check("composite_cones", inst)
    assert_fails_and_replays(res, "composite_cones", "composite-cone-mismatch",
                             tmp_path, capsys)
    assert res.witness["cokernel_side_ok"] is False
    assert res.witness["kernel_side_ok"] is True


@pytest.mark.parametrize("name", ALL)
def test_lost_image_leg_fails_the_image_slide(name, monkeypatch, tmp_path, capsys):
    outer, inner = nonzero_pair(BACKENDS[name], random.Random(f"mutants:slide:{name}"),
                                outer_is_kernel=True)
    inst = PairInstance(outer=outer, inner=inner)
    assert run_check("image_slide.kernels", inst).verdict == "pass"
    zero_leg(monkeypatch, "im")
    assert_fails_and_replays(run_check("image_slide.kernels", inst), "image_slide.kernels",
                             "image-does-not-slide", tmp_path, capsys)


@pytest.mark.parametrize("name", ALL)
def test_probe_failure_names_its_sample(name, monkeypatch, tmp_path, capsys):
    cat = BACKENDS[name]
    seed, steps = f"mutants:probe:{name}", 6
    rng = random.Random(f"mutants:probe leg:{name}")
    f = injection(cat, nonzero_object(cat, rng), nonzero_object(cat, rng))
    assert probe_semistable(f, "kernel", steps, seed).verdict == "pass"
    # each sample's map and moved copy, drawn as probe_semistable draws them;
    # the mutant denies the first copy after sample 0 that no earlier sample made
    alongs = []
    for i in range(steps):
        rng = random.Random(f"{seed}:semistable:{i}")
        alongs.append(cat.random_morphism(rng, f.dom, cat.random_object(rng, 3)))
    moved = [pushout(along, f).bottom for along in alongs]
    bad = next(i for i in range(1, steps) if moved[i] not in moved[:i] + [f])
    deny_kernel(monkeypatch, moved[bad])

    res = probe_semistable(f, "kernel", steps, seed)
    assert res.verdict == FAIL
    assert res.instance == ProbeInstance(role="kernel", f=f, along=alongs[bad])
    assert res.witness["reason"] == "moved-copy-not-kernel"
    assert res.witness["sample_index"] == bad
    code, printed = replay(res.instance.to_json(), "semistable", tmp_path, capsys)
    assert code == 2
    step = {k: v for k, v in res.witness.items() if k != "sample_index"}
    assert printed == json.loads(json.dumps({**res.to_json(), "witness": step}))


def test_vacuous_instances_are_tallied_and_named(monkeypatch):
    """A generator that draws only zero vi pairs, which are never kernels."""
    real = audit_module._generate_right

    def vacuous(cat, index, rng, bound):
        if index != "vi":
            return real(cat, index, rng, bound)
        a = nonzero_object(cat, rng)
        zero = cat.zero_morphism(a, a)
        return PairInstance(outer=zero, inner=zero)

    monkeypatch.setattr(audit_module, "_generate_right", vacuous)
    rep = run_audit(AuditConfig(backend="subvect", **MUTANT_AUDIT))
    assert rep.verdict == "inconclusive"
    for cond in ("right.vi", "left.vi"):
        assert rep.tallies[cond] == {"pass": 0, "fail": 0, "vacuous": 3, "exhausted": 0}
        assert f"generation-vacuous:{cond}:3" in rep.caveats
    assert all(t["vacuous"] == 0 for cond, t in rep.tallies.items() if not cond.endswith(".vi"))


@pytest.mark.parametrize("name", ALL)
def test_unswapped_opposite_classification_spoils_the_verdict(name, monkeypatch):
    """Mutant: ``Opposite.classify``, the one place where mono and epi
    trade, keeps its base's mono and epi.  The left side then misreads
    kernels, and no verdict of the -consistent family survives."""
    cfg = AuditConfig(backend=name, **MUTANT_AUDIT)
    assert run_audit(cfg).verdict.endswith("-consistent")
    monkeypatch.setattr(Opposite, "classify", lambda op, f: op.base.classify(op.unwrap(f)))
    rep = run_audit(cfg)
    assert not rep.verdict.endswith("-consistent")
    assert rep.tallies["left.ii"]["fail"] > 0


def test_audit_shrinks_mutant_failures_to_replayable_witnesses(monkeypatch, tmp_path, capsys):
    zero_leg(monkeypatch, "fbar")
    rep = run_audit(AuditConfig(backend="vectq", **MUTANT_AUDIT))
    assert rep.verdict == "preabelian-only"
    assert {w["check"] for w in rep.witnesses} == {"right.i", "left.i"}
    for w in rep.witnesses:
        witness = w["result"]["witness"]
        if w["check"] == "left.i":
            # the right.i witness of the dual instance, which speaks of
            # the opposite category, nests whole under "dual"
            assert list(witness) == ["dual"]
            witness = witness["dual"]
        assert witness["reason"] == "middle-arrow-not-epi"
        code, printed = replay(w["result"]["instance"], w["check"], tmp_path, capsys)
        assert code == 2
        assert printed == w["result"]
