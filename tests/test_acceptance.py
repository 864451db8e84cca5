"""Release gate: the eight numbered guarantees this package ships under.

One test per criterion; each prints a single [criterion N] PASS line
(visible with -s or -rA) and the -v test report doubles as the per
criterion pass/fail ledger.  Tolerances are exact: every law is checked
with exact rational or integer arithmetic, zero failures allowed.
"""

import json
import random

import pytest

from preab import BACKENDS
from preab.audit import AuditConfig, run_audit, shrink
from preab.backends import get_backend
from preab.cli import main
from preab.conditions import (
    INDICES,
    MorphismInstance,
    ProbeInstance,
    check_composite_cones,
    check_condition,
    check_image_slide,
    instance_from_json,
    probe_semistable,
    run_check,
)
from preab.core import (
    classify,
    cokernel,
    decompose,
    kernel,
    pullback,
    pushout,
    quotient_iso,
    subobject_iso,
)
from preab.linalg import RatMatrix, Subspace
from preab.report import ReportDocument

BACKEND_NAMES = ("vectq", "subvect", "filtvect3", "latz")
DIM_BOUND = 3

AUDIT_CONFIG = dict(seed="acceptance", dim_bound=DIM_BOUND,
                    samples={"default": 34, "strictness": 40, "semistable": 2},
                    min_nonvacuous=30, probe_steps=5)


def rand_morphism(cat, rng, bound=DIM_BOUND):
    a = cat.random_object(rng, bound)
    b = cat.random_object(rng, bound)
    return cat.random_morphism(rng, a, b)


def sample_mono(cat, rng, tries=60):
    for _ in range(tries):
        f = rand_morphism(cat, rng)
        if cat.ambient_dim(kernel(f).apex) == 0:
            return f
    return kernel(rand_morphism(cat, rng)).leg


def sample_epi(cat, rng, tries=60):
    for _ in range(tries):
        f = rand_morphism(cat, rng)
        if cat.ambient_dim(cokernel(f).apex) == 0:
            return f
    return cokernel(rand_morphism(cat, rng)).leg


@pytest.fixture(scope="module")
def audits():
    out = {}
    for backend in BACKEND_NAMES:
        cfg = AuditConfig(backend=backend, **AUDIT_CONFIG)
        report = run_audit(cfg)
        out[backend] = (cfg, report, ReportDocument.from_audit(report).emit())
    return out


def test_criterion_1_category_laws():
    """500 seeded morphisms per backend: cone laws, unique factorization,
    exact recomposition."""
    checked = 0
    for backend in BACKEND_NAMES:
        cat = BACKENDS[backend]
        for i in range(500):
            rng = random.Random(f"acc1:{backend}:{i}")
            f = rand_morphism(cat, rng)

            k = kernel(f)
            assert f @ k.leg == cat.zero_morphism(k.apex, f.cod)
            c = cokernel(f)
            assert c.leg @ f == cat.zero_morphism(f.dom, c.apex)

            for _ in range(3):
                probe = cat.random_object(rng, DIM_BOUND)
                t = cat.random_morphism(rng, probe, k.apex)
                u = k.factor(k.leg @ t)
                assert u is not None and u == t
                s = cat.random_morphism(rng, c.apex, probe)
                v = c.factor(s @ c.leg)
                assert v is not None and v == s

            d = decompose(f)
            assert d.recompose() == f
            assert d.im @ d.fbar @ d.coim == f
            checked += 1
    assert checked == 2000
    print("[criterion 1] PASS: 500 morphisms x 4 backends, "
          "cone laws + factorization + recomposition exact")


def test_criterion_2_square_transport():
    """300 constructed pullbacks/pushouts per backend: kernels, cokernels,
    monos and epis transport across the square."""
    for backend in BACKEND_NAMES:
        cat = BACKENDS[backend]
        squares = 0

        # generic: kernel of the base map is the transported kernel
        for i in range(50):
            rng = random.Random(f"acc2:{backend}:pb:{i}")
            b = cat.random_object(rng, DIM_BOUND)
            f = cat.random_morphism(rng, cat.random_object(rng, DIM_BOUND), b)
            t = cat.random_morphism(rng, cat.random_object(rng, DIM_BOUND), b)
            sq = pullback(f, t)
            u = sq.left @ kernel(sq.top).leg
            w = subobject_iso(u, kernel(sq.bottom).leg)
            assert w is not None and kernel(sq.bottom).leg @ w == u
            u2 = sq.top @ kernel(sq.left).leg
            w2 = subobject_iso(u2, kernel(sq.right).leg)
            assert w2 is not None and kernel(sq.right).leg @ w2 == u2
            squares += 1

        for i in range(50):
            rng = random.Random(f"acc2:{backend}:po:{i}")
            cdom = cat.random_object(rng, DIM_BOUND)
            alpha = cat.random_morphism(rng, cdom, cat.random_object(rng, DIM_BOUND))
            g = cat.random_morphism(rng, cdom, cat.random_object(rng, DIM_BOUND))
            sq = pushout(alpha, g)
            p = cokernel(sq.top).leg
            q = cokernel(sq.bottom).leg @ sq.right
            w = quotient_iso(p, q)
            assert w is not None and w @ p == q
            p2 = cokernel(sq.left).leg
            q2 = cokernel(sq.right).leg @ sq.bottom
            w2 = quotient_iso(p2, q2)
            assert w2 is not None and w2 @ p2 == q2
            squares += 1

        # kernels pull back to kernels, monos to monos
        for i in range(50):
            rng = random.Random(f"acc2:{backend}:ker:{i}")
            t = kernel(rand_morphism(cat, rng)).leg
            f = cat.random_morphism(rng, cat.random_object(rng, DIM_BOUND), t.cod)
            sq = pullback(f, t)
            assert classify(sq.left).is_kernel
            squares += 1
        for i in range(50):
            rng = random.Random(f"acc2:{backend}:mono:{i}")
            t = sample_mono(cat, rng)
            f = cat.random_morphism(rng, cat.random_object(rng, DIM_BOUND), t.cod)
            sq = pullback(f, t)
            assert classify(sq.left).mono
            squares += 1

        # cokernels push out to cokernels, epis to epis
        for i in range(50):
            rng = random.Random(f"acc2:{backend}:cok:{i}")
            g = cokernel(rand_morphism(cat, rng)).leg
            alpha = cat.random_morphism(rng, g.dom, cat.random_object(rng, DIM_BOUND))
            sq = pushout(alpha, g)
            assert classify(sq.bottom).is_cokernel
            squares += 1
        for i in range(50):
            rng = random.Random(f"acc2:{backend}:epi:{i}")
            g = sample_epi(cat, rng)
            alpha = cat.random_morphism(rng, g.dom, cat.random_object(rng, DIM_BOUND))
            sq = pushout(alpha, g)
            assert classify(sq.bottom).epi
            squares += 1

        assert squares == 300
    print("[criterion 2] PASS: 300 squares x 4 backends, "
          "kernel/cokernel/mono/epi transport exact")


def vi_is_clean(backend, side, n=30):
    cond = f"{side}.vi"
    from preab.audit import generate_instance
    return all(
        check_condition(cond, generate_instance(backend, cond, DIM_BOUND,
                                                f"acc3:vi:{side}:{i}")).verdict
        == "pass"
        for i in range(n))


def test_criterion_3_composite_cones_and_slides():
    """300 composable pairs per backend keep their composite cones; images
    and coimages slide across constructed (co)kernels wherever the matching
    composition-of-kernels audit is clean."""
    for backend in BACKEND_NAMES:
        cat = BACKENDS[backend]
        for i in range(300):
            rng = random.Random(f"acc3:{backend}:{i}")
            a = cat.random_object(rng, DIM_BOUND)
            b = cat.random_object(rng, DIM_BOUND)
            c = cat.random_object(rng, DIM_BOUND)
            f = cat.random_morphism(rng, a, b)
            g = cat.random_morphism(rng, b, c)
            assert check_composite_cones(f, g).verdict == "pass"

        assert vi_is_clean(backend, "right")
        for i in range(100):
            rng = random.Random(f"acc3:{backend}:slide:{i}")
            g = kernel(rand_morphism(cat, rng)).leg
            f = cat.random_morphism(rng, cat.random_object(rng, DIM_BOUND), g.dom)
            res = check_image_slide(f, g, "kernels")
            assert res.verdict == "pass"

        assert vi_is_clean(backend, "left")
        for i in range(100):
            rng = random.Random(f"acc3:{backend}:coslide:{i}")
            f = cokernel(rand_morphism(cat, rng)).leg
            g = cat.random_morphism(rng, f.cod, cat.random_object(rng, DIM_BOUND))
            res = check_image_slide(f, g, "cokernels")
            assert res.verdict == "pass"
    print("[criterion 3] PASS: 300 pairs x 4 backends + 2x100 slide pairs, "
          "all exact")


def test_criterion_4_all_conditions_hold(audits):
    """On the three flag backends every non-vacuous sampled instance of all
    fourteen conditions passes, with at least 30 non-vacuous per condition."""
    for backend in ("vectq", "subvect", "filtvect3"):
        _, report, _ = audits[backend]
        assert report.verdict != "inconclusive"
        for name, tally in report.tallies.items():
            assert tally["fail"] == 0, (backend, name, tally)
            assert tally["vacuous"] == 0, (backend, name, tally)
            assert tally["pass"] >= 30, (backend, name, tally)
    print("[criterion 4] PASS: 14 conditions x 3 flag backends, "
          ">=30 non-vacuous instances each, zero failures")


def test_criterion_5_duality_transport():
    """200 instances per condition: the left verdict equals the right
    verdict on the dual-transported instance, in both directions."""
    from preab.audit import generate_instance
    backend = "subvect"
    for index in INDICES:
        for i in range(100):
            x = generate_instance(backend, f"left.{index}", DIM_BOUND,
                                  f"acc5:l:{index}:{i}")
            left = check_condition(f"left.{index}", x).verdict
            right = check_condition(f"right.{index}", x.dualize()).verdict
            assert left == right, (index, i)
        for i in range(100):
            y = generate_instance(backend, f"right.{index}", DIM_BOUND,
                                  f"acc5:r:{index}:{i}")
            right = check_condition(f"right.{index}", y).verdict
            left = check_condition(f"left.{index}", y.dualize()).verdict
            assert right == left, (index, i)
    print("[criterion 5] PASS: 200 instances x 7 conditions, "
          "left and right verdicts agree across dual transport")


def test_criterion_6_non_strictness_witnesses(audits):
    """The two canonical witnesses classify as non-strict bimorphisms; the
    plain vector backend is fully strict; zoo verdicts come out as expected."""
    sv = get_backend("subvect")
    for n in (1, 2, 3):
        dom = sv.make_object((n, (Subspace.zero(n),)))
        cod = sv.make_object((n, (Subspace.full(n),)))
        flags = classify(sv.make_morphism(dom, cod, RatMatrix.identity(n)))
        assert flags.mono and flags.epi and not flags.iso and not flags.strict

    lz = get_backend("latz")
    doubling = lz.make_morphism(lz.make_object(1), lz.make_object(1),
                                RatMatrix.from_rows([[2]]))
    flags = classify(doubling)
    assert flags.mono and flags.epi and not flags.iso and not flags.strict

    vq = get_backend("vectq")
    for i in range(500):
        rng = random.Random(f"acc6:strict:{i}")
        assert classify(rand_morphism(vq, rng)).strict

    assert audits["vectq"][1].verdict == "abelian-consistent"
    assert audits["subvect"][1].verdict == "quasi-abelian-consistent"
    assert audits["filtvect3"][1].verdict == "quasi-abelian-consistent"
    latz_verdict = audits["latz"][1].verdict
    assert latz_verdict in ("semi-abelian-consistent", "quasi-abelian-consistent")
    print(f"[criterion 6] PASS: witnesses are non-strict bimorphisms, "
          f"vectq 500/500 strict; zoo verdicts abelian/quasi/quasi, "
          f"latz recorded as {latz_verdict}")


def test_criterion_7_semistability_probes(monkeypatch, capsys):
    """500 pushout probes per constructed kernel find no counterexample in
    the flag backends; lattice probes stay clean and replay byte-for-byte
    through the command line."""
    for backend in ("subvect", "filtvect3"):
        cat = BACKENDS[backend]
        for k_idx in range(2):
            rng = random.Random(f"acc7:{backend}:{k_idx}")
            leg = kernel(rand_morphism(cat, rng)).leg
            res = probe_semistable(leg, "kernel", 500, f"acc7:{backend}:{k_idx}",
                                   dim_bound=DIM_BOUND)
            assert res.verdict == "pass", (backend, k_idx, res.witness)

    lz = get_backend("latz")
    replayed = 0
    for k_idx in range(2):
        rng = random.Random(f"acc7:latz:{k_idx}")
        leg = kernel(rand_morphism(lz, rng)).leg
        res = probe_semistable(leg, "kernel", 200, f"acc7:latz:{k_idx}",
                               dim_bound=DIM_BOUND)
        assert res.verdict == "pass", res.witness

        # replay determinism: a single probe step round-trips the CLI
        along = lz.random_morphism(rng, leg.dom, lz.random_object(rng, DIM_BOUND))
        inst = ProbeInstance(role="kernel", f=leg, along=along)
        direct = run_check("semistable", inst)
        monkeypatch.setattr("sys.stdin",
                            __import__("io").StringIO(json.dumps(inst.to_json())))
        code = main(["check", "semistable"])
        out, _ = capsys.readouterr()
        assert code == {"pass": 0, "fail": 2, "vacuous": 3}[direct.verdict]
        assert json.loads(out)["verdict"] == direct.verdict
        replayed += 1
    assert replayed == 2
    print("[criterion 7] PASS: 2x500 kernel probes clean on both flag "
          "backends, 2x200 clean on lattices, step replay matches the CLI")


def test_criterion_8_determinism_and_shrinking(audits):
    """Identical configs give byte-identical reports across runs; every
    shrunk witness still fails its checker on replay."""
    cfg, _, text = audits["subvect"]
    again = ReportDocument.from_audit(run_audit(cfg)).emit()
    assert again == text

    shrunk = 0
    for backend in ("subvect", "filtvect3", "latz"):
        cat = BACKENDS[backend]
        found = 0
        for i in range(3000):
            rng = random.Random(f"acc8:{backend}:{i}")
            f = rand_morphism(cat, rng)
            res = run_check("strict", MorphismInstance(f))
            if res.verdict != "fail":
                continue
            small, spent = shrink(res)
            assert spent <= 200
            blob = json.loads(json.dumps(small.instance.to_json()))
            assert run_check("strict", instance_from_json(blob)).verdict == "fail"
            found += 1
            shrunk += 1
            if found == 5:
                break
        assert found == 5, backend
    print(f"[criterion 8] PASS: byte-identical reports across runs, "
          f"{shrunk} shrunk witnesses all fail on replay")
