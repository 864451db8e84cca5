"""Category-level laws: cones, decomposition, classification, squares, duality.

Frozen cases are hand-computed against the canonical basis conventions
(reduced column echelon for subspaces, column HNF for lattices); seeded
loops then exercise the same laws on generated morphisms in every backend.
"""

import json
import random

import pytest

from preab import (
    BACKENDS,
    classify,
    cokernel,
    decompose,
    dualize,
    dualize_square,
    is_pullback,
    is_pushout,
    kernel,
    lattice,
    linalg,
    opposite,
    pullback,
    pushout,
    quotient_iso,
    subobject_iso,
)
from preab.backends import FILTVECT3, LATZ, SUBVECT, VECTQ, latz
from preab.backends.flags import FlagBackend
from preab.backends.latz import LatZBackend
from preab.core import (
    Morphism,
    Opposite,
    Square,
    induced_cokernel_map,
    induced_kernel_map,
    pullback_mediator,
    pushout_mediator,
)
from preab.linalg import RatMatrix, Subspace, invert, solve_right

ALL = sorted(BACKENDS)


def rand_pair(cat, rng, bound=3):
    a = cat.random_object(rng, bound)
    b = cat.random_object(rng, bound)
    return cat.random_morphism(rng, a, b)


# ---------------------------------------------------------------------------
# biproducts


@pytest.mark.parametrize("name", ALL)
def test_biproduct_laws(name):
    """The injection/projection laws, and each structural map against
    its composite formula through the injections and projections, in
    the base category and its opposite.  The injections are
    pair(id, 0) and pair(0, id), the projections copair(id, 0) and
    copair(0, id)."""
    mismatches = 0
    for cat in (BACKENDS[name], BACKENDS[name].opposite()):
        other = opposite(cat)
        rng = random.Random(f"biprod:{cat.name}")
        for _ in range(20):
            a = cat.random_object(rng, 3)
            b = cat.random_object(rng, 3)
            x = cat.random_object(rng, 3)
            bp = cat.biproduct(a, b)
            ida = cat.identity(a)
            idb = cat.identity(b)
            inj1 = bp.pair(ida, cat.zero_morphism(a, b))
            inj2 = bp.pair(cat.zero_morphism(b, a), idb)
            proj1 = bp.copair(ida, cat.zero_morphism(b, a))
            proj2 = bp.copair(cat.zero_morphism(a, b), idb)
            assert proj1 @ inj1 == ida
            assert proj2 @ inj2 == idb
            assert cat.is_zero_morphism(proj1 @ inj2)
            assert cat.is_zero_morphism(proj2 @ inj1)
            assert inj1 @ proj1 + inj2 @ proj2 == cat.identity(bp.ob)

            f, g = cat.random_morphism(rng, x, a), cat.random_morphism(rng, x, b)
            assert bp.pair(f, g) == inj1 @ f + inj2 @ g
            assert bp.split_in(bp.pair(f, g)) == (f, g)
            f, g = cat.random_morphism(rng, a, x), cat.random_morphism(rng, b, x)
            assert bp.copair(f, g) == f @ proj1 + g @ proj2
            assert bp.split_out(bp.copair(f, g)) == (f, g)
            h = cat.random_morphism(rng, x, bp.ob)
            assert bp.split_in(h) == (proj1 @ h, proj2 @ h)
            h = cat.random_morphism(rng, bp.ob, x)
            assert bp.split_out(h) == (h @ inj1, h @ inj2)

            # legs that do not fit: another category, swapped summands,
            # a morphism that does not touch the biproduct
            foreign = other.identity(a)
            for call in (lambda: bp.pair(foreign, foreign),
                         lambda: bp.copair(foreign, foreign),
                         lambda: bp.split_out(foreign), lambda: bp.split_in(foreign)):
                with pytest.raises(ValueError):
                    call()
            if a != b:
                mismatches += 1
                with pytest.raises(ValueError):
                    bp.copair(g, f)
                with pytest.raises(ValueError):
                    bp.pair(cat.identity(b), cat.zero_morphism(b, b))
            if x != bp.ob:
                with pytest.raises(ValueError):
                    bp.split_out(cat.identity(x))
                with pytest.raises(ValueError):
                    bp.split_in(cat.identity(x))
    assert mismatches


# ---------------------------------------------------------------------------
# kernels and cokernels: frozen cases


def test_vectq_kernel_frozen():
    f = VECTQ.make_morphism(VECTQ.obj(2), VECTQ.obj(1), RatMatrix.from_rows([[1, 0]]))
    kc = kernel(f)
    assert kc.apex[0] == 1
    assert kc.leg.payload == RatMatrix.from_rows([[0], [1]])


def test_vectq_cokernel_frozen():
    f = VECTQ.make_morphism(VECTQ.obj(1), VECTQ.obj(2), RatMatrix.from_rows([[1], [0]]))
    cc = cokernel(f)
    assert cc.apex[0] == 1
    assert cc.leg.payload == RatMatrix.from_rows([[0, 1]])


def test_subvect_cone_layers_frozen():
    # projection onto the first axis, distinguished lines swapped across it
    a = SUBVECT.obj(2, (Subspace.span(2, [[0, 1]]),))
    b = SUBVECT.obj(2, (Subspace.span(2, [[1, 0]]),))
    f = SUBVECT.make_morphism(a, b, RatMatrix.from_rows([[1, 0], [0, 0]]))
    kc = kernel(f)
    # kernel is the e2 axis and inherits the whole distinguished line
    assert kc.apex == (1, (Subspace.full(1),))
    assert kc.leg.payload == RatMatrix.from_rows([[0], [1]])
    cc = cokernel(f)
    # quotient kills the image axis, which contained the whole line
    assert cc.apex == (1, (Subspace.zero(1),))
    assert cc.leg.payload == RatMatrix.from_rows([[0, 1]])


def test_latz_cokernel_saturates_frozen():
    f = LATZ.make_morphism(LATZ.obj(1), LATZ.obj(2), RatMatrix.from_rows([[2], [0]]))
    cc = cokernel(f)
    # image 2Z x 0 saturates to Z x 0 before quotienting, so the apex is free
    assert cc.apex == 1
    assert cc.leg.payload == RatMatrix.from_rows([[0, 1]])
    kc = kernel(f)
    assert kc.apex == 0


# ---------------------------------------------------------------------------
# kernels and cokernels: laws on generated morphisms


@pytest.mark.parametrize("name", ALL)
def test_cone_laws(name):
    cat = BACKENDS[name]
    rng = random.Random(f"cones:{name}")
    for _ in range(60):
        f = rand_pair(cat, rng)
        kc = kernel(f)
        cc = cokernel(f)
        assert kc.of == f and cc.of == f
        assert cat.is_zero_morphism(f @ kc.leg)
        assert cat.is_zero_morphism(cc.leg @ f)
        assert classify(kc.leg).mono
        assert classify(cc.leg).epi
        # -f has the cones of f, which makes the dual of a canonical
        # pushout the canonical pullback (see dualize_square)
        assert (kernel(-f).leg, cokernel(-f).leg) == (kc.leg, cc.leg)
    ida = cat.identity(cat.random_object(rng, 3))
    assert (kernel(-ida).leg, cokernel(-ida).leg) == (kernel(ida).leg, cokernel(ida).leg)


@pytest.mark.parametrize("name", ALL)
def test_kernel_factor_round_trip(name):
    cat = BACKENDS[name]
    rng = random.Random(f"kfact:{name}")
    for _ in range(40):
        f = rand_pair(cat, rng)
        kc = kernel(f)
        t = cat.random_object(rng, 2)
        u = cat.random_morphism(rng, t, kc.apex)
        w = kc.leg @ u
        got = kc.factor(w)
        assert got == u  # the kernel leg is mono, so the factor is unique


@pytest.mark.parametrize("name", ALL)
def test_cokernel_factor_round_trip(name):
    cat = BACKENDS[name]
    rng = random.Random(f"cfact:{name}")
    for _ in range(40):
        f = rand_pair(cat, rng)
        cc = cokernel(f)
        t = cat.random_object(rng, 2)
        u = cat.random_morphism(rng, cc.apex, t)
        w = u @ cc.leg
        got = cc.factor(w)
        assert got == u


def test_kernel_factor_rejects_non_annihilated():
    f = VECTQ.make_morphism(VECTQ.obj(2), VECTQ.obj(1), RatMatrix.from_rows([[1, 0]]))
    kc = kernel(f)
    x = VECTQ.make_morphism(VECTQ.obj(1), VECTQ.obj(2), RatMatrix.from_rows([[1], [0]]))
    assert kc.factor(x) is None  # f @ x != 0, nothing factors


def test_kernel_factor_rejects_wrong_shape():
    f = VECTQ.make_morphism(VECTQ.obj(2), VECTQ.obj(1), RatMatrix.from_rows([[1, 0]]))
    kc = kernel(f)
    x = VECTQ.make_morphism(VECTQ.obj(1), VECTQ.obj(1), RatMatrix.identity(1))
    with pytest.raises(ValueError):
        kc.factor(x)


# ---------------------------------------------------------------------------
# canonical decomposition and classification


@pytest.mark.parametrize("name", ALL)
def test_decompose_recomposes(name):
    cat = BACKENDS[name]
    rng = random.Random(f"dec:{name}")
    for _ in range(60):
        f = rand_pair(cat, rng)
        d = decompose(f)
        assert d.recompose() == f
        assert classify(d.coim).epi
        assert classify(d.im).mono


def test_subvect_bimorphism_witness():
    # identity on the line, distinguished subspace grows from zero to full:
    # invertible on ambient vectors but not an isomorphism of layered objects
    a = SUBVECT.obj(1, (Subspace.zero(1),))
    b = SUBVECT.obj(1, (Subspace.full(1),))
    f = SUBVECT.make_morphism(a, b, RatMatrix.identity(1))
    c = classify(f)
    assert c.mono and c.epi and c.bimorphism
    assert not c.iso and not c.strict
    assert not c.is_kernel and not c.is_cokernel


def test_latz_doubling_witness():
    f = LATZ.make_morphism(LATZ.obj(1), LATZ.obj(1), RatMatrix.from_rows([[2]]))
    c = classify(f)
    assert c.mono and c.epi and c.bimorphism
    assert not c.iso and not c.strict
    d = decompose(f)
    # all the failure is concentrated in the middle arrow
    assert d.fbar.payload == RatMatrix.from_rows([[2]])
    assert classify(d.coim).iso and classify(d.im).iso


def test_filtvect3_layer_shift_witness():
    a = FILTVECT3.obj(1, (Subspace.zero(1), Subspace.zero(1), Subspace.full(1)))
    b = FILTVECT3.obj(1, (Subspace.zero(1), Subspace.full(1), Subspace.full(1)))
    f = FILTVECT3.make_morphism(a, b, RatMatrix.identity(1))
    c = classify(f)
    assert c.bimorphism and not c.strict


def test_latz_wide_morphism_decomposes(ten_second_alarm):
    # an 8x7 draw whose image saturation runs for minutes through Smith
    # elimination
    rng = random.Random("decompose-wide/21/391")
    f = LATZ.random_morphism(rng, LATZ.random_object(rng, 8), LATZ.random_object(rng, 8))
    assert f.payload.shape == (8, 7)
    d = decompose(f)
    assert d.recompose() == f


def test_latz_inclusion_is_kernel():
    f = LATZ.make_morphism(LATZ.obj(1), LATZ.obj(2), RatMatrix.from_rows([[1], [0]]))
    c = classify(f)
    assert c.mono and c.strict and c.is_kernel
    assert not c.epi


@pytest.mark.parametrize("name", sorted(set(ALL) - {"vectq"}))
def test_strict_iff_middle_arrow_iso(name):
    cat = BACKENDS[name]
    rng = random.Random(f"strict:{name}")
    for _ in range(40):
        f = rand_pair(cat, rng)
        c = classify(f)
        assert c.strict == cat.is_iso(decompose(f).fbar)
        # check classify's mono and epi against the cones, which it does not build
        assert c.mono == cat.is_zero_object(kernel(f).apex)
        assert c.epi == cat.is_zero_object(cokernel(f).apex)
        assert c.is_kernel == (c.mono and c.strict)
        assert c.is_cokernel == (c.epi and c.strict)


def test_vectq_everything_strict():
    rng = random.Random("vectq all strict")
    for _ in range(80):
        f = rand_pair(VECTQ, rng, 4)
        c = classify(f)
        assert c.strict
        assert c.iso == c.bimorphism


@pytest.mark.parametrize("name", ALL)
def test_random_iso_classifies_iso(name):
    cat = BACKENDS[name]
    rng = random.Random(f"iso:{name}")
    for _ in range(30):
        a = cat.random_object(rng, 3)
        f = cat.random_iso(rng, a)
        c = classify(f)
        assert c.iso and c.strict and c.is_kernel and c.is_cokernel


def _side(name, side):
    cat = BACKENDS[name]
    return cat.opposite() if side == "op" else cat


@pytest.mark.parametrize("side", ["base", "op"])
@pytest.mark.parametrize("name", ALL)
def test_classify_iso_matches_is_iso(name, side, is_iso_by_inversion):
    # classify derives iso as mono, epi and strict; the oracle inverts f
    # itself and checks that the inverse is a morphism
    cat = _side(name, side)
    rng = random.Random(f"derived iso:{name}:{side}")
    seen = set()
    for _ in range(40):
        if rng.random() < 0.3:
            f = cat.random_iso(rng, cat.random_object(rng, 3))
        else:
            f = rand_pair(cat, rng)
        iso = is_iso_by_inversion(cat, f)
        assert classify(f).iso == cat.is_iso(f) == iso
        seen.add(iso)
    assert seen == {True, False}


@pytest.mark.parametrize("side", ["base", "op"])
@pytest.mark.parametrize("name", ALL)
def test_classify_tests_one_iso(name, side, monkeypatch):
    # every backend reads its flags off one closed form (ranks against the
    # layers, or two Hermite forms on latz), with no decomposition, no iso
    # test and no Smith form
    calls = []
    backend = type(BACKENDS[name])
    for owner in (backend, Opposite):
        for hook in ("is_iso", "decompose"):
            _count_calls(monkeypatch, owner, hook, calls)
    _count_calls(monkeypatch, lattice, "smith_with_transforms", calls)
    cat = _side(name, side)
    rng = random.Random(f"one iso test:{name}:{side}")
    for _ in range(10):
        f = rand_pair(cat, rng)
        calls.clear()
        classify(f)
        assert calls == []


# ---------------------------------------------------------------------------
# the decomposition against its construction from cones


def _cone_decomposition(f):
    """f = im @ fbar @ coim built from the cones of f, as the definition
    reads: coim = cok(ker f) and im = ker(cok f), with fbar found through
    their universal properties; mono and epi are the zero tests of ker f
    and cok f.  Returns (coim, fbar, im, mono, epi)."""
    c = f.category
    kc, cc = c.kernel(f), c.cokernel(f)
    coim, im = c.cokernel(kc.leg), c.kernel(cc.leg)
    fbar = im.factor(coim.factor(f))
    return coim.leg, fbar, im.leg, c.is_zero_object(kc.apex), c.is_zero_object(cc.apex)


def _json(f):
    return json.dumps(f.category.morphism_to_json(f), sort_keys=True)


def _bimorphism(cat):
    """The identity matrix (V, 0) -> (V, V) on a plane."""
    n = cat.n_layers
    return cat.make_morphism(cat.obj(2, (Subspace.zero(2),) * n),
                             cat.obj(2, (Subspace.full(2),) * n), RatMatrix.identity(2))


def _decomposition_inputs(cat, rng):
    """Zero morphisms, identities, isos and seeded morphisms of cat, each
    also composed with an iso on either side."""
    for _ in range(40):
        a, b = _object(cat, rng), _object(cat, rng)
        f = cat.random_morphism(rng, a, b)
        yield from (cat.zero_morphism(a, b), cat.identity(a), cat.random_iso(rng, a), f,
                    cat.random_iso(rng, b) @ f @ cat.random_iso(rng, a))


@pytest.mark.parametrize("side", ["base", "op"])
@pytest.mark.parametrize("name", ALL)
def test_decompose_matches_the_cone_construction(name, side):
    cat = _side(name, side)
    rng = random.Random(f"decompose oracle:{name}:{side}")
    inputs = list(_decomposition_inputs(cat, rng))
    if name in ("subvect", "filtvect3"):
        g = _bimorphism(BACKENDS[name])
        inputs.append(dualize(g) if side == "op" else g)
    kinds = set()
    for f in inputs:
        d, c = decompose(f), classify(f)
        coim, fbar, im, mono, epi = _cone_decomposition(f)
        assert (d.coim, d.fbar, d.im, c.mono, c.epi) == (coim, fbar, im, mono, epi)
        assert [_json(x) for x in (d.coim, d.fbar, d.im)] == [_json(x) for x in (coim, fbar, im)]
        kinds.add((mono, epi, cat.is_iso(f)))
    assert {(False, False), (True, False), (False, True), (True, True)} <= \
        {k[:2] for k in kinds}
    assert (True, True, True) in kinds
    if name != "vectq":
        assert (True, True, False) in kinds  # a bimorphism that is no iso


@pytest.mark.parametrize("side", ["base", "op"])
@pytest.mark.parametrize("name", ALL)
def test_decompose_of_the_dual_is_the_dual_decomposition(name, side):
    cat = _side(name, side)
    rng = random.Random(f"dual decomposition:{name}:{side}")
    for f in _decomposition_inputs(cat, rng):
        d, e = decompose(f), decompose(dualize(f))
        assert (e.coim, e.fbar, e.im) == (dualize(d.im), dualize(d.fbar), dualize(d.coim))
        c, co = classify(f), classify(dualize(f))
        assert (co.mono, co.epi) == (c.epi, c.mono)


def test_decompose_raises_when_f_does_not_factor(monkeypatch):
    # a leg that is not f's own: the product check refuses it
    f = VECTQ.make_morphism(VECTQ.obj(1), VECTQ.obj(2), RatMatrix.from_rows([[1], [0]]))
    monkeypatch.setattr(VECTQ, "image_data",
                        lambda f: ((1, ()), RatMatrix.from_rows([[0], [1]])))
    with pytest.raises(RuntimeError):
        decompose(f)
    monkeypatch.undo()
    g = VECTQ.make_morphism(VECTQ.obj(2), VECTQ.obj(1), RatMatrix.from_rows([[1, 0]]))
    monkeypatch.setattr(VECTQ, "coimage_data",
                        lambda f: ((1, ()), RatMatrix.from_rows([[0, 1]])))
    with pytest.raises(RuntimeError):
        decompose(g)


@pytest.mark.parametrize("name", ["vectq", "subvect", "filtvect3"])
def test_flag_decomposition_takes_two_eliminations_and_no_cone(name, monkeypatch):
    """Both legs come off f (rref(f) and rref(f^T)); every further
    elimination builds one layer of the coimage or image, and the
    divisions against canonical legs eliminate nothing."""
    cat = BACKENDS[name]
    calls = []
    _count_calls(monkeypatch, linalg, "_rref_pivots", calls)
    for hook in ("kernel_data", "cokernel_data"):
        _count_calls(monkeypatch, FlagBackend, hook, calls)
    rng = random.Random(f"two eliminations:{name}")
    checked = 0
    for _ in range(120):
        f = rand_pair(cat, rng, 4)
        if f.payload.is_zero():
            continue
        (_, xs), (_, ys) = f.dom, f.cod
        calls.clear()
        decompose(f)
        assert calls == ["_rref_pivots"] * (2 + len(xs) + len(ys))
        checked += 1
    assert checked > 30


def test_latz_decomposition_takes_three_hermite_forms(monkeypatch):
    """The coimage needs the integer kernel of f and its quotient, the
    image the saturation of f's image: three integer kernels, each at
    most one HNF of its kernel block, and at most one Smith form,
    where the four cones took up to five HNFs and two Smith forms."""
    calls = []
    _count_calls(monkeypatch, latz, "integer_kernel", calls)
    _count_calls(monkeypatch, lattice, "smith_with_transforms", calls)
    rng = random.Random("three hermite forms")
    checked = 0
    for _ in range(80):
        f = rand_pair(LATZ, rng, 4)
        if f.payload.is_zero():
            continue
        mono = classify(f).mono
        calls.clear()
        decompose(f)
        assert calls.count("integer_kernel") == 3
        assert calls.count("smith_with_transforms") == (0 if mono else 1)
        checked += 1
    assert checked > 40


# ---------------------------------------------------------------------------
# zero morphisms and identities


def _base_side(cat, f):
    """The base category and base morphism behind f, and whether f is dual."""
    if isinstance(cat, Opposite):
        return cat.base, cat.unwrap(f), True
    return cat, f, False


def _general_cone(cat, kind, f):
    """The kind cone of f built by the backend hooks, as (apex payload, base leg)."""
    base, g, dual = _base_side(cat, f)
    if dual:
        kind = "cokernel" if kind == "kernel" else "kernel"
    if kind == "kernel":
        payload, m = base.kernel_data(g)
        return payload, Morphism(base, payload, g.dom, m)
    payload, m = base.cokernel_data(g)
    return payload, Morphism(base, g.cod, payload, m)


def _solve_divide(base, side, g, h):
    if side == "left":
        x = solve_right(g.payload, h.payload)
        return None if x is None else base.try_morphism(h.dom, g.dom, x)
    x = solve_right(g.payload.transpose(), h.payload.transpose())
    return None if x is None else base.try_morphism(g.cod, h.cod, x.transpose())


def _general_divide(cat, side, g, h):
    base, bg, dual = _base_side(cat, g)
    if not dual:
        return _solve_divide(base, side, g, h)
    u = _solve_divide(base, "right" if side == "left" else "left", bg, cat.unwrap(h))
    return None if u is None else cat.wrap(u)


def _general_is_iso(cat, f):
    base, g, _ = _base_side(cat, f)
    inv = invert(g.payload)
    return inv is not None and base.try_morphism(g.cod, g.dom, inv) is not None


def _assert_general(cat, f, rng):
    """Cones, divisions and the iso test at f equal the general construction's,
    and an identity has zero cones and three iso legs, as in any
    preabelian category.  A mono's coimage leg and an epi's image leg
    are identities, so a bimorphism's decomposition is fbar alone."""
    identity = f == cat.identity(f.dom)
    for kind, build in (("kernel", cat.kernel), ("cokernel", cat.cokernel)):
        cone = build(f)
        payload, leg = _general_cone(cat, kind, f)
        assert cone.kind == kind and cone.of == f
        assert cone.apex == payload
        assert _base_side(cat, cone.leg)[1] == leg
        if identity:
            assert cone.apex == cat.zero_object()
    d = cat.decompose(f)
    assert d.recompose() == f
    c = cat.classify(f)
    if c.mono:
        assert d.coim == cat.identity(f.dom)
    if c.epi:
        assert d.im == cat.identity(f.cod)
    if identity:
        assert all(cat.is_iso(leg) for leg in (d.coim, d.fbar, d.im))
    assert cat.is_iso(f) == _general_is_iso(cat, f)
    into = cat.random_morphism(rng, cat.random_object(rng, 3), f.cod)
    out_of = cat.random_morphism(rng, f.dom, cat.random_object(rng, 3))
    for h in (into, cat.identity(f.cod)):
        assert cat.divide_left(f, h) == _general_divide(cat, "left", f, h)
    for h in (out_of, cat.identity(f.dom)):
        assert cat.divide_right(f, h) == _general_divide(cat, "right", f, h)


def _object(cat, rng):
    return cat.zero_object() if rng.random() < 0.25 else cat.random_object(rng, 3)


@pytest.mark.parametrize("side", ["base", "op"])
@pytest.mark.parametrize("name", ALL)
def test_trivial_cones_match_the_general_construction(name, side):
    cat = _side(name, side)
    rng = random.Random(f"trivial cones:{name}:{side}")
    shapes = set()
    for _ in range(25):
        a, b = _object(cat, rng), _object(cat, rng)
        _assert_general(cat, cat.zero_morphism(a, b), rng)
        _assert_general(cat, cat.identity(a), rng)
        shapes.add((cat.is_zero_object(a), cat.is_zero_object(b)))
    assert shapes == {(False, False), (False, True), (True, False), (True, True)}
    base = cat.base if side == "op" else cat
    if isinstance(base, FlagBackend) and base.n_layers:
        # the identity matrix from (V, 0) to (V, V) is a bimorphism, not an
        # identity, so it takes the general path and is no iso
        v = 2
        low = base.obj(v, [Subspace.zero(v)] * base.n_layers)
        high = base.obj(v, [Subspace.full(v)] * base.n_layers)
        f = base.make_morphism(low, high, RatMatrix.identity(v))
        if side == "op":
            f = cat.wrap(f)
        assert not cat.is_iso(f)
        assert cat.divide_left(f, cat.identity(f.cod)) is None
        assert cat.divide_right(f, cat.identity(f.dom)) is None
        _assert_general(cat, f, rng)


def _count_calls(monkeypatch, owner, name, calls):
    real = getattr(owner, name)
    monkeypatch.setattr(owner, name,
                        lambda *args: calls.append(name) or real(*args))


@pytest.mark.parametrize("side", ["base", "op"])
@pytest.mark.parametrize("name", ALL)
def test_classify_reads_off_identities_and_zero_morphisms(name, side, monkeypatch):
    # neither an identity nor a zero morphism needs elimination or a hook.
    # latz binds the lattice functions by name, so they are counted there
    calls = []
    _count_calls(monkeypatch, linalg, "_rref_pivots", calls)
    for fn in ("column_hnf", "integer_kernel", "pure_quotient_rows"):
        _count_calls(monkeypatch, latz, fn, calls)
    for owner in (FlagBackend, LatZBackend):
        for hook in ("kernel_data", "cokernel_data", "coimage_data", "image_data",
                     "rank_and_strict"):
            _count_calls(monkeypatch, owner, hook, calls)
    cat = _side(name, side)
    rng = random.Random(f"read off:{name}:{side}")
    for _ in range(15):
        a, b = _object(cat, rng), _object(cat, rng)
        calls.clear()
        c = classify(cat.identity(a))
        assert calls == []
        assert c.iso and c.strict and c.is_kernel and c.is_cokernel
        calls.clear()
        c = classify(cat.zero_morphism(a, b))
        assert calls == []
        assert c.strict
        assert (c.mono, c.epi) == (cat.is_zero_object(a), cat.is_zero_object(b))


# ---------------------------------------------------------------------------
# squares, pullbacks, pushouts


def test_square_validation():
    f = VECTQ.make_morphism(VECTQ.obj(1), VECTQ.obj(1), RatMatrix.identity(1))
    two = VECTQ.make_morphism(VECTQ.obj(1), VECTQ.obj(1), RatMatrix.from_rows([[2]]))
    Square(top=f, left=f, bottom=f, right=f)
    with pytest.raises(ValueError):
        Square(top=two, left=f, bottom=f, right=f)  # 2 != 1, does not commute
    g = VECTQ.make_morphism(VECTQ.obj(2), VECTQ.obj(1), RatMatrix.from_rows([[1, 0]]))
    with pytest.raises(ValueError):
        Square(top=f, left=g, bottom=f, right=f)  # corners misaligned
    with pytest.raises(ValueError, match="share their domain"):
        pushout(f, g)
    with pytest.raises(ValueError, match="share their codomain"):
        pullback(f, VECTQ.identity(VECTQ.obj(2)))


@pytest.mark.parametrize("name", ALL)
def test_constructed_pushout_is_pushout(name):
    cat = BACKENDS[name]
    rng = random.Random(f"ispo:{name}")
    for _ in range(25):
        c = cat.random_object(rng, 3)
        alpha = cat.random_morphism(rng, c, cat.random_object(rng, 3))
        g = cat.random_morphism(rng, c, cat.random_object(rng, 3))
        sq = pushout(alpha, g)
        assert sq.provenance == "pushout"
        assert sq.bottom @ sq.left == sq.right @ sq.top
        assert is_pushout(sq)


@pytest.mark.parametrize("name", ALL)
def test_constructed_pullback_is_pullback(name):
    cat = BACKENDS[name]
    rng = random.Random(f"ispb:{name}")
    for _ in range(25):
        b = cat.random_object(rng, 3)
        f = cat.random_morphism(rng, cat.random_object(rng, 3), b)
        t = cat.random_morphism(rng, cat.random_object(rng, 3), b)
        sq = pullback(f, t)
        assert sq.provenance == "pullback"
        assert sq.bottom @ sq.left == sq.right @ sq.top
        assert is_pullback(sq)


def test_pullback_of_identity_recovers_map():
    f = VECTQ.make_morphism(VECTQ.obj(2), VECTQ.obj(1), RatMatrix.from_rows([[1, 2]]))
    sq = pullback(f, VECTQ.identity(f.cod))
    # apex is the graph of f; the left leg is an iso carrying top onto f
    assert is_pullback(sq)
    assert classify(sq.left).iso
    assert sq.top == f @ sq.left


def test_pushout_pullback_dims_frozen():
    alpha = VECTQ.make_morphism(VECTQ.obj(1), VECTQ.obj(2), RatMatrix.from_rows([[1], [0]]))
    g = VECTQ.make_morphism(VECTQ.obj(1), VECTQ.obj(1), RatMatrix.from_rows([[2]]))
    sq = pushout(alpha, g)
    assert sq.bottom.cod[0] == 2  # 2 + 1 - 1
    f = VECTQ.make_morphism(VECTQ.obj(2), VECTQ.obj(1), RatMatrix.from_rows([[1, 0]]))
    t = VECTQ.make_morphism(VECTQ.obj(1), VECTQ.obj(1), RatMatrix.identity(1))
    sq2 = pullback(f, t)
    assert sq2.top.dom[0] == 2  # 2 + 1 - 1


def test_degenerate_commuting_square_is_not_pullback():
    one = VECTQ.obj(1)
    zero = VECTQ.zero_object()
    idm = VECTQ.identity(one)
    z = VECTQ.zero_morphism(zero, one)
    sq = Square(top=z, left=z, bottom=idm, right=idm)
    med = pullback_mediator(sq)
    assert med is not None and not VECTQ.is_iso(med)
    assert not is_pullback(sq)
    dsq = Square(top=idm, left=idm, bottom=VECTQ.zero_morphism(one, zero),
                 right=VECTQ.zero_morphism(one, zero))
    medo = pushout_mediator(dsq)
    assert medo is not None and not VECTQ.is_iso(medo)
    assert not is_pushout(dsq)


@pytest.mark.parametrize("name", ALL)
def test_pullback_kernel_transport(name):
    # the kernel of the bottom edge lifts along the left leg to the kernel
    # of the top edge, witnessed by a canonical subobject isomorphism
    cat = BACKENDS[name]
    rng = random.Random(f"kpb:{name}")
    for _ in range(25):
        b = cat.random_object(rng, 3)
        f = cat.random_morphism(rng, cat.random_object(rng, 3), b)
        t = cat.random_morphism(rng, cat.random_object(rng, 3), b)
        sq = pullback(f, t)
        lifted = sq.left @ kernel(sq.top).leg
        assert subobject_iso(lifted, kernel(sq.bottom).leg) is not None


@pytest.mark.parametrize("name", ALL)
def test_pushout_cokernel_transport(name):
    cat = BACKENDS[name]
    rng = random.Random(f"cpo:{name}")
    for _ in range(25):
        c = cat.random_object(rng, 3)
        alpha = cat.random_morphism(rng, c, cat.random_object(rng, 3))
        g = cat.random_morphism(rng, c, cat.random_object(rng, 3))
        sq = pushout(alpha, g)
        pushed = cokernel(sq.bottom).leg @ sq.right
        assert quotient_iso(pushed, cokernel(sq.top).leg) is not None


@pytest.mark.parametrize("name", ALL)
def test_induced_maps_commute(name):
    cat = BACKENDS[name]
    rng = random.Random(f"induced:{name}")
    for _ in range(25):
        b = cat.random_object(rng, 3)
        f = cat.random_morphism(rng, cat.random_object(rng, 3), b)
        t = cat.random_morphism(rng, cat.random_object(rng, 3), b)
        sq = pullback(f, t)
        km = induced_kernel_map(sq)
        assert kernel(sq.bottom).leg @ km == sq.left @ kernel(sq.top).leg
        c = cat.random_object(rng, 3)
        sq2 = pushout(cat.random_morphism(rng, c, cat.random_object(rng, 3)),
                      cat.random_morphism(rng, c, cat.random_object(rng, 3)))
        cm = induced_cokernel_map(sq2)
        assert cm @ cokernel(sq2.top).leg == cokernel(sq2.bottom).leg @ sq2.right


# ---------------------------------------------------------------------------
# subobject / quotient comparison


def test_subobject_iso_finds_reparametrisation():
    f = VECTQ.make_morphism(VECTQ.obj(2), VECTQ.obj(1), RatMatrix.from_rows([[1, 0]]))
    k = kernel(f).leg
    rng = random.Random("reparam")
    for _ in range(10):
        u = VECTQ.random_iso(rng, k.dom)
        w = subobject_iso(k @ u, k)
        assert w is not None and k @ w == k @ u


def test_subobject_iso_rejects_different_axes():
    e1 = VECTQ.make_morphism(VECTQ.obj(1), VECTQ.obj(2), RatMatrix.from_rows([[1], [0]]))
    e2 = VECTQ.make_morphism(VECTQ.obj(1), VECTQ.obj(2), RatMatrix.from_rows([[0], [1]]))
    assert subobject_iso(e1, e2) is None
    assert quotient_iso(dualize(e1), dualize(e2)) is None
    # other codomains; zero maps, which divide each other but never to an identity
    assert subobject_iso(e1, VECTQ.identity(VECTQ.obj(1))) is None
    zero = VECTQ.zero_morphism(VECTQ.obj(1), VECTQ.obj(1))
    assert subobject_iso(zero, zero) is None


def test_latz_subobject_iso_respects_index():
    # same rational span, different lattices: 2Z inside Z is not Z inside Z
    one = LATZ.obj(1)
    idm = LATZ.identity(one)
    two = LATZ.make_morphism(one, one, RatMatrix.from_rows([[2]]))
    assert subobject_iso(two, idm) is None
    assert subobject_iso(two, two) is not None


# ---------------------------------------------------------------------------
# opposite category


@pytest.mark.parametrize("name", ALL)
def test_opposite_involution(name):
    cat = BACKENDS[name]
    op = cat.opposite()
    assert op.opposite() is cat
    assert opposite(op) is cat
    assert op.name == cat.name + "^op"


@pytest.mark.parametrize("name", ALL)
def test_opposite_shares_the_base_objects_but_not_its_morphisms(name):
    cat = BACKENDS[name]
    op = cat.opposite()
    assert op.zero_object() == cat.zero_object()
    rng = random.Random(f"opobjects:{name}")
    for _ in range(10):
        f = rand_pair(cat, rng)
        fo = dualize(f)
        assert op.make_object(f.dom) == cat.make_object(f.dom) == f.dom
        assert (fo.dom, fo.cod) == (f.cod, f.dom)
        assert op.identity(f.dom) == dualize(cat.identity(f.dom))
        for call in (lambda: op.compose(fo, f), lambda: op.compose(f, fo),
                     lambda: cat.compose(f, fo), lambda: op.add(f, f),
                     lambda: op.is_iso(f), lambda: op.wrap(fo), lambda: op.unwrap(f)):
            with pytest.raises(ValueError):
                call()


@pytest.mark.parametrize("name", ALL)
def test_opposite_builds_and_serializes_the_base_read_backwards(name):
    cat = BACKENDS[name]
    op = cat.opposite()
    rng = random.Random(f"opmake:{name}")
    for _ in range(10):
        f = rand_pair(cat, rng)
        a, b = op.make_object(f.cod), op.make_object(f.dom)
        assert op.make_morphism(a, b, f.payload) == dualize(f)
        assert op.object_to_json(a) == cat.object_to_json(f.cod)


@pytest.mark.parametrize("name", ALL)
def test_dualize_swaps_classification(name):
    cat = BACKENDS[name]
    rng = random.Random(f"dual:{name}")
    for _ in range(30):
        f = rand_pair(cat, rng)
        fo = dualize(f)
        assert dualize(fo) == f
        c, co = classify(f), classify(fo)
        assert (c.mono, c.epi) == (co.epi, co.mono)
        assert (c.iso, c.strict) == (co.iso, co.strict)
        assert (c.is_kernel, c.is_cokernel) == (co.is_cokernel, co.is_kernel)


@pytest.mark.parametrize("name", ALL)
def test_dualize_square_round_trip(name):
    cat = BACKENDS[name]
    rng = random.Random(f"dsq:{name}")
    for _ in range(15):
        c = cat.random_object(rng, 3)
        sq = pushout(cat.random_morphism(rng, c, cat.random_object(rng, 3)),
                     cat.random_morphism(rng, c, cat.random_object(rng, 3)))
        dsq = dualize_square(sq)
        assert dsq.provenance == "pullback"
        assert is_pullback(dsq)
        back = dualize_square(dsq)
        assert (back.top, back.left, back.bottom, back.right) == (
            sq.top, sq.left, sq.bottom, sq.right)


@pytest.mark.parametrize("name", ALL)
def test_op_cones_mirror(name):
    cat = BACKENDS[name]
    rng = random.Random(f"opcone:{name}")
    for _ in range(20):
        f = rand_pair(cat, rng)
        fo = dualize(f)
        kc = kernel(fo)
        assert kc.leg == dualize(cokernel(f).leg)
        cc = cokernel(fo)
        assert cc.leg == dualize(kernel(f).leg)
