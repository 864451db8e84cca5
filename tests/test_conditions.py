"""Checker behaviour: verdicts, vacuity, duality transport, replay.

The registered backends satisfy all catalog conditions, so genuine fail
verdicts for the conditional checks are unreachable through honest
construction; those branches are exercised with deliberately mislabeled
squares (a synthetic provenance the audit path never produces).
"""

import random

import pytest

from preab import BACKENDS
from preab.backends import LATZ, SUBVECT, VECTQ
from preab.conditions import (
    ALL_CONDITIONS,
    CHECKS,
    CheckResult,
    ConditionId,
    MorphismInstance,
    PairInstance,
    ProbeInstance,
    SquareInstance,
    check_composite_cones,
    check_condition,
    check_image_slide,
    check_left,
    check_right_i,
    check_right_ii,
    check_right_iii,
    check_right_iv,
    check_right_v,
    check_right_vi,
    check_right_vii,
    check_semi_abelian,
    check_semistable_step,
    check_strict,
    instance_from_json,
    probe_semistable,
    run_check,
)
from preab.core import Square, classify, cokernel, dualize, kernel, pullback, pushout
from preab.linalg import RatMatrix, Subspace

import preab.conditions as conditions_module

ALL = sorted(BACKENDS)


def subvect_witness():
    a = SUBVECT.obj(1, (Subspace.zero(1),))
    b = SUBVECT.obj(1, (Subspace.full(1),))
    return SUBVECT.make_morphism(a, b, RatMatrix.identity(1))


# ---------------------------------------------------------------------------
# condition ids


def test_condition_id():
    c = ConditionId.parse("right.iii")
    assert (c.side, c.index) == ("right", "iii")
    assert str(c) == "right.iii"
    assert len(ALL_CONDITIONS) == 14
    with pytest.raises(ValueError):
        ConditionId.parse("middle.iii")
    with pytest.raises(ValueError):
        ConditionId.parse("right.viii")
    with pytest.raises(ValueError):
        ConditionId.parse("right")


def test_registry_covers_catalog():
    for cond in ALL_CONDITIONS:
        assert str(cond) in CHECKS


@pytest.mark.parametrize("name", ALL)
def test_mirrored_checks_are_the_relabelled_mirror(name):
    """Each left condition, and image_slide.cokernels, is its mirror check
    run on the dualized instance, relabelled, with the original instance."""
    from preab.audit import generate_instance

    cat = BACKENDS[name]
    rng = random.Random(f"mirror:{name}")
    cases = []
    for index in ("i", "ii", "iii", "iv", "v", "vi", "vii"):
        for i in range(3):
            inst = generate_instance(name, f"left.{index}", 3, f"mirror:{i}")
            cases.append((f"left.{index}", f"right.{index}", inst))
    for _ in range(5):
        m = cat.random_object(rng, 3)
        f = cokernel(cat.random_morphism(rng, cat.random_object(rng, 3), m)).leg
        g = cat.random_morphism(rng, f.cod, cat.random_object(rng, 3))
        cases.append(("image_slide.cokernels", "image_slide.kernels",
                      PairInstance(outer=g, inner=f)))
    for check, mirror, inst in cases:
        res = run_check(mirror, inst.dualize())
        assert run_check(check, inst) == CheckResult(check, res.verdict, inst, res.witness)


# ---------------------------------------------------------------------------
# unconditional morphism checks


@pytest.mark.parametrize("name", ALL)
def test_middle_arrow_checks_pass_on_random(name):
    cat = BACKENDS[name]
    rng = random.Random(f"mid:{name}")
    for _ in range(30):
        a, b = cat.random_object(rng, 3), cat.random_object(rng, 3)
        f = cat.random_morphism(rng, a, b)
        assert check_right_i(f).verdict == "pass"
        assert check_left("left.i", MorphismInstance(f)).verdict == "pass"
        assert check_semi_abelian(f).verdict == "pass"


def test_semi_abelian_is_conjunction_of_sides():
    rng = random.Random("conj")
    for name in ALL:
        cat = BACKENDS[name]
        for _ in range(15):
            f = cat.random_morphism(rng, cat.random_object(rng, 3), cat.random_object(rng, 3))
            r = check_right_i(f).verdict == "pass"
            l = check_left("left.i", MorphismInstance(f)).verdict == "pass"
            both = check_semi_abelian(f).verdict == "pass"
            assert both == (r and l)


def test_strict_check_fails_on_witnesses():
    r = check_strict(subvect_witness())
    assert r.verdict == "fail"
    assert r.witness["reason"] == "middle-arrow-not-iso"
    assert r.witness["flags"]["mono"] and r.witness["flags"]["epi"]
    two = LATZ.make_morphism(LATZ.obj(1), LATZ.obj(1), RatMatrix.from_rows([[2]]))
    assert check_strict(two).verdict == "fail"
    assert check_strict(LATZ.identity(LATZ.obj(2))).verdict == "pass"


def test_witnesses_still_semi_abelian():
    # non-strict but the middle arrow is a bimorphism in both witnesses
    assert check_semi_abelian(subvect_witness()).verdict == "pass"
    two = LATZ.make_morphism(LATZ.obj(1), LATZ.obj(1), RatMatrix.from_rows([[2]]))
    assert check_semi_abelian(two).verdict == "pass"


# ---------------------------------------------------------------------------
# pair conditions


def test_right_ii_pass_and_vacuous():
    rng = random.Random("rii")
    m = SUBVECT.random_object(rng, 3)
    f = SUBVECT.random_morphism(rng, m, SUBVECT.random_object(rng, 3))
    l = kernel(f).leg
    h = SUBVECT.identity(l.cod)
    r = check_right_ii(h, l)
    assert r.verdict == "pass"
    one = VECTQ.obj(1)
    zero_map = VECTQ.zero_morphism(one, one)
    r2 = check_right_ii(VECTQ.identity(one), zero_map)
    assert r2.verdict == "vacuous"  # 0: Q->Q is not mono, hence never a kernel


@pytest.mark.parametrize("name", ALL)
def test_right_vi_on_stacked_kernels(name):
    cat = BACKENDS[name]
    rng = random.Random(f"rvi:{name}")
    seen_pass = 0
    for _ in range(25):
        m = cat.random_object(rng, 3)
        h = kernel(cat.random_morphism(rng, m, cat.random_object(rng, 3))).leg
        l = kernel(cat.random_morphism(rng, h.dom, cat.random_object(rng, 2))).leg
        r = check_right_vi(h, l)
        assert r.verdict != "fail", r.witness
        seen_pass += r.verdict == "pass"
    assert seen_pass >= 20


def test_right_vi_vacuous_on_non_kernel():
    one = VECTQ.obj(1)
    zero_map = VECTQ.zero_morphism(one, one)
    assert check_right_vi(VECTQ.identity(one), zero_map).verdict == "vacuous"


# ---------------------------------------------------------------------------
# square conditions


def constructed_pushout_along_kernel(cat, rng):
    m = cat.random_object(rng, 3)
    k = kernel(cat.random_morphism(rng, m, cat.random_object(rng, 3))).leg
    alpha = cat.random_morphism(rng, k.dom, cat.random_object(rng, 3))
    return pushout(alpha, k)


@pytest.mark.parametrize("name", ALL)
def test_square_conditions_pass_on_construction(name):
    cat = BACKENDS[name]
    rng = random.Random(f"sqc:{name}")
    for _ in range(20):
        sq = constructed_pushout_along_kernel(cat, rng)
        for fn in (check_right_iii, check_right_iv, check_right_vii):
            r = fn(sq)
            assert r.verdict == "pass", (fn.__name__, r.witness)


@pytest.mark.parametrize("name", ALL)
def test_right_v_with_cokernel_edge(name):
    cat = BACKENDS[name]
    rng = random.Random(f"rv:{name}")
    for _ in range(20):
        m = cat.random_object(rng, 3)
        k = kernel(cat.random_morphism(rng, m, cat.random_object(rng, 3))).leg
        alpha = cokernel(cat.random_morphism(rng, cat.random_object(rng, 3), k.dom)).leg
        sq = pushout(alpha, k)
        # the right edge inherits the cokernel property from the left edge
        assert classify(sq.right).is_cokernel
        r = check_right_v(sq)
        assert r.verdict == "pass", r.witness


def test_square_conditions_vacuous_without_kernel_top():
    # top edge epi and not mono, so never a kernel
    proj = VECTQ.make_morphism(VECTQ.obj(2), VECTQ.obj(1), RatMatrix.from_rows([[1, 0]]))
    alpha = VECTQ.make_morphism(VECTQ.obj(2), VECTQ.obj(1), RatMatrix.from_rows([[0, 1]]))
    sq = pushout(alpha, proj)
    assert check_right_iii(sq).verdict == "vacuous"
    assert check_right_iv(sq).verdict == "vacuous"
    assert check_right_v(sq).verdict == "vacuous"
    # vii is not vacuous: the top edge is still strict
    assert check_right_vii(sq).verdict == "pass"


def test_vii_vacuous_along_a_non_strict_edge():
    # the bimorphism (V,0) -> (V,V) is not strict
    b = subvect_witness()
    assert check_condition("right.vii", SquareInstance(pushout(b, b))).verdict == "vacuous"
    assert check_condition("left.vii", SquareInstance(pullback(b, b))).verdict == "vacuous"


def test_opposite_instances_do_not_serialize():
    with pytest.raises(ValueError, match="base-side"):
        MorphismInstance(dualize(subvect_witness())).to_json()


def lying_pushout_square():
    # synthetic: a commuting square mislabeled as a pushout, to reach the
    # fail branches, which honest constructions never hit in these backends
    one = VECTQ.obj(1)
    zero = VECTQ.zero_object()
    into = VECTQ.zero_morphism(zero, one)
    return Square(top=into, left=into, bottom=VECTQ.zero_morphism(one, one),
                  right=VECTQ.identity(one), provenance="pushout")


def test_fail_branches_on_mislabeled_square():
    sq = lying_pushout_square()
    r3 = check_right_iii(sq)
    assert r3.verdict == "fail" and r3.witness["reason"] == "pushout-square-not-pullback"
    r4 = check_right_iv(sq)
    assert r4.verdict == "fail" and r4.witness["reason"] == "pushed-out-edge-not-mono"
    r5 = check_right_v(sq)
    assert r5.verdict == "fail"  # right edge is the identity, a cokernel
    r7 = check_right_vii(sq)
    assert r7.verdict == "fail" and r7.witness["reason"] == "kernel-comparison-not-epi"


# ---------------------------------------------------------------------------
# left side via transport


@pytest.mark.parametrize("index", ["i", "ii", "iii", "iv", "v", "vi", "vii"])
def test_left_equals_right_on_transport(index):
    # generate right-side instances in the opposite category, pull them
    # back, and compare the left verdict with the op-side right verdict
    op = SUBVECT.opposite()
    rng = random.Random(f"transport:{index}")
    for _ in range(15):
        if index == "i":
            f = op.random_morphism(rng, op.random_object(rng, 3), op.random_object(rng, 3))
            op_inst = MorphismInstance(f)
        elif index in ("ii", "vi"):
            m = op.random_object(rng, 3)
            h = op.kernel(op.random_morphism(rng, m, op.random_object(rng, 3))).leg
            if index == "ii":
                l = op.identity(h.dom)
            else:
                l = op.kernel(op.random_morphism(rng, h.dom, op.random_object(rng, 2))).leg
            op_inst = PairInstance(outer=h, inner=l)
        else:
            m = op.random_object(rng, 3)
            k = op.kernel(op.random_morphism(rng, m, op.random_object(rng, 3))).leg
            alpha = op.random_morphism(rng, k.dom, op.random_object(rng, 3))
            from preab.core import pushout as po
            op_inst = SquareInstance(po(alpha, k))
        base_inst = op_inst.dualize()
        left = check_left(f"left.{index}", base_inst)
        right = check_condition(f"right.{index}", op_inst)
        assert left.verdict == right.verdict
        assert left.check == f"left.{index}"
        assert left.instance == base_inst


def test_left_vi_cokernels_compose():
    rng = random.Random("lvi")
    for _ in range(15):
        m = SUBVECT.random_object(rng, 3)
        h = cokernel(SUBVECT.random_morphism(rng, SUBVECT.random_object(rng, 3), m)).leg
        l = cokernel(SUBVECT.random_morphism(rng, SUBVECT.random_object(rng, 3), h.cod)).leg
        # composable pair of cokernels: l @ h, so outer=l, inner=h
        r = check_left("left.vi", PairInstance(outer=l, inner=h))
        assert r.verdict == "pass", r.witness


def test_left_ii_concludes_outer_factor():
    # composite is a cokernel, outer factor must be one too
    rng = random.Random("lii")
    m = SUBVECT.random_object(rng, 3)
    h = cokernel(SUBVECT.random_morphism(rng, SUBVECT.random_object(rng, 3), m)).leg
    l = SUBVECT.identity(m)
    r = check_left("left.ii", PairInstance(outer=h, inner=l))
    assert r.verdict == "pass"


# ---------------------------------------------------------------------------
# composite cones and the image slide


@pytest.mark.parametrize("name", ALL)
def test_composite_cones_pass(name):
    cat = BACKENDS[name]
    rng = random.Random(f"ccp:{name}")
    for _ in range(25):
        f = cat.random_morphism(rng, cat.random_object(rng, 3), cat.random_object(rng, 3))
        g = cat.random_morphism(rng, f.cod, cat.random_object(rng, 3))
        r = check_composite_cones(f, g)
        assert r.verdict == "pass", (name, r.witness)


def test_composite_cones_trivial_shapes():
    one = VECTQ.obj(1)
    idm = VECTQ.identity(one)
    assert check_composite_cones(idm, idm).verdict == "pass"
    z = VECTQ.zero_morphism(one, one)
    assert check_composite_cones(idm, z).verdict == "pass"
    assert check_composite_cones(z, idm).verdict == "pass"


@pytest.mark.parametrize("name", ALL)
def test_image_slide_kernels(name):
    cat = BACKENDS[name]
    rng = random.Random(f"isk:{name}")
    passes = 0
    for _ in range(20):
        m = cat.random_object(rng, 3)
        g = kernel(cat.random_morphism(rng, m, cat.random_object(rng, 3))).leg
        f = cat.random_morphism(rng, cat.random_object(rng, 3), g.dom)
        r = check_image_slide(f, g, "kernels")
        assert r.verdict != "fail", r.witness
        passes += r.verdict == "pass"
    assert passes == 20  # constructed g is always a kernel


@pytest.mark.parametrize("name", ALL)
def test_image_slide_cokernels(name):
    cat = BACKENDS[name]
    rng = random.Random(f"isc:{name}")
    for _ in range(20):
        m = cat.random_object(rng, 3)
        f = cokernel(cat.random_morphism(rng, cat.random_object(rng, 3), m)).leg
        g = cat.random_morphism(rng, f.cod, cat.random_object(rng, 3))
        r = check_image_slide(f, g, "cokernels")
        assert r.verdict == "pass", r.witness


def test_image_slide_vacuous_when_guard_fails():
    one = VECTQ.obj(1)
    z = VECTQ.zero_morphism(one, one)
    idm = VECTQ.identity(one)
    assert check_image_slide(idm, z, "kernels").verdict == "vacuous"
    assert check_image_slide(z, idm, "cokernels").verdict == "vacuous"
    with pytest.raises(ValueError):
        check_image_slide(idm, idm, "sideways")


# ---------------------------------------------------------------------------
# semi-stability probes


@pytest.mark.parametrize("name", ALL)
def test_probe_semistable_clean(name):
    cat = BACKENDS[name]
    rng = random.Random(f"probe:{name}")
    m = cat.random_object(rng, 3)
    k = kernel(cat.random_morphism(rng, m, cat.random_object(rng, 3))).leg
    r = probe_semistable(k, "kernel", 40, f"seed:{name}")
    assert r.verdict == "pass"
    c = cokernel(cat.random_morphism(rng, cat.random_object(rng, 3), m)).leg
    r2 = probe_semistable(c, "cokernel", 40, f"seed2:{name}")
    assert r2.verdict == "pass"


def test_probe_semistable_deterministic():
    rng = random.Random("probe-det")
    m = SUBVECT.random_object(rng, 3)
    k = kernel(SUBVECT.random_morphism(rng, m, SUBVECT.random_object(rng, 3))).leg
    a = probe_semistable(k, "kernel", 25, "fixed")
    b = probe_semistable(k, "kernel", 25, "fixed")
    assert a == b


def test_probe_role_validation():
    one = VECTQ.obj(1)
    z = VECTQ.zero_morphism(one, one)  # not mono, so not a kernel
    with pytest.raises(ValueError):
        probe_semistable(z, "kernel", 5, "x")
    with pytest.raises(ValueError):
        probe_semistable(VECTQ.identity(one), "sideways", 5, "x")
    with pytest.raises(ValueError):
        check_semistable_step(ProbeInstance(role="kernel", f=z, along=VECTQ.identity(one)))


def test_probe_classifies_the_probed_morphism_once(monkeypatch):
    rng = random.Random("probe-once")
    m = SUBVECT.random_object(rng, 3)
    k = kernel(SUBVECT.random_morphism(rng, m, SUBVECT.random_object(rng, 3))).leg
    seen = []
    real = conditions_module.classify

    def counting(g):
        seen.append(g is k)
        return real(g)

    monkeypatch.setattr(conditions_module, "classify", counting)
    assert probe_semistable(k, "kernel", 5, "once").verdict == "pass"
    # the role check once, then one moved copy per step
    assert seen == [True] + [False] * 5


def test_semistable_step_replay():
    rng = random.Random("step")
    m = SUBVECT.random_object(rng, 3)
    k = kernel(SUBVECT.random_morphism(rng, m, SUBVECT.random_object(rng, 3))).leg
    along = SUBVECT.random_morphism(rng, k.dom, SUBVECT.random_object(rng, 2))
    inst = ProbeInstance(role="kernel", f=k, along=along)
    r = check_semistable_step(inst)
    assert r.verdict == "pass"
    back = instance_from_json(inst.to_json())
    assert check_semistable_step(back) == r


# ---------------------------------------------------------------------------
# instance serialization and the registry


def all_instance_kinds():
    rng = random.Random("kinds")
    m = SUBVECT.random_object(rng, 3)
    f = SUBVECT.random_morphism(rng, m, SUBVECT.random_object(rng, 3))
    k = kernel(f).leg
    along = SUBVECT.random_morphism(rng, k.dom, SUBVECT.random_object(rng, 2))
    t = SUBVECT.random_morphism(rng, SUBVECT.random_object(rng, 2), f.cod)
    return [
        MorphismInstance(f),
        PairInstance(outer=f, inner=SUBVECT.identity(f.dom)),
        SquareInstance(pushout(along, k)),
        SquareInstance(pullback(f, t)),
        ProbeInstance(role="kernel", f=k, along=along),
    ]


def test_instance_json_round_trips():
    for inst in all_instance_kinds():
        blob = inst.to_json()
        assert instance_from_json(blob) == inst


def test_instance_json_rejects_malformed():
    with pytest.raises(ValueError):
        instance_from_json("not a dict")
    with pytest.raises(ValueError):
        instance_from_json({"kind": "morphism"})  # no backend
    with pytest.raises(ValueError):
        instance_from_json({"kind": "morphism", "backend": "nope"})
    with pytest.raises(ValueError):
        instance_from_json({"kind": "wedge", "backend": "vectq"})
    good = all_instance_kinds()[1].to_json()
    bad = dict(good)
    bad["inner"], bad["outer"] = bad["outer"], bad["inner"]  # breaks composability
    with pytest.raises(ValueError):
        instance_from_json(bad)


def test_pair_instance_validates_composability():
    one, two = VECTQ.obj(1), VECTQ.obj(2)
    f = VECTQ.zero_morphism(one, two)
    with pytest.raises(ValueError):
        PairInstance(outer=f, inner=f)


def test_run_check_dispatch():
    inst = all_instance_kinds()[0]
    r = run_check("right.i", inst)
    assert r.check == "right.i" and r.verdict == "pass"
    with pytest.raises(ValueError):
        run_check("right.unknown", inst)
    with pytest.raises(ValueError):
        run_check("right.iii", inst)  # wrong instance kind


def test_check_left_refuses_a_right_condition():
    inst = MorphismInstance(VECTQ.identity(VECTQ.obj(1)))
    with pytest.raises(ValueError, match="left-side"):
        check_left("right.i", inst)
    assert check_left("left.i", inst).check == "left.i"


@pytest.mark.parametrize("cond", [5, None, 1.5, ["right.i"]])
def test_condition_that_is_not_a_string_raises_value_error(cond):
    from preab.audit import generate_instance

    inst = all_instance_kinds()[0]
    for call in (lambda: check_condition(cond, inst), lambda: check_left(cond, inst),
                 lambda: generate_instance("vectq", cond, 3, "0")):
        with pytest.raises(ValueError):
            call()


def test_check_result_json_shape():
    r = check_strict(subvect_witness())
    blob = r.to_json()
    assert blob["check"] == "strict"
    assert blob["verdict"] == "fail"
    assert blob["instance"]["kind"] == "morphism"
    assert blob["witness"]["reason"] == "middle-arrow-not-iso"
