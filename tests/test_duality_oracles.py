"""Three oracles built without the ``Opposite`` transport.

*Concrete duality.*  Each backend is equivalent to its own opposite by
a functor D that is built here by hand.  D transposes every morphism.
On ``latz`` it fixes every object Z^r.  On the flag backends it sends
(V, F_1 <= ... <= F_k) to (V*, F_k^perp <= ... <= F_1^perp), where
F^perp is the solution space of F's basis transposed; a map that sends
each F_i into G_i has a transpose that sends each G_i^perp into
F_i^perp.  So D(f) must classify as ``dualize(f)`` does, and D must
carry the kernel of f to the cokernel of D(f) and back.

*Strictness in closed form.*  A flag morphism f: (V, F) -> (W, G) is
strict exactly when dim f(F_i) = dim(f(V) meet G_i) for every layer,
that is rank(f F_i) == rank f + dim G_i - rank[f | G_i].  A non-zero
``latz`` morphism is strict exactly when its image is saturated: its
column Hermite form equals the integer kernel of its annihilator.

*Indecomposables.*  By its Smith form, every ``latz`` morphism is a
direct sum of 0 -> Z (mono, strict), Z -> 0 (epi, strict) and
Z --d--> Z (mono and epi, strict exactly when |d| = 1).  Mono, epi and
strict hold for a direct sum exactly when they hold for every summand,
and isomorphisms on either side change none of them.
"""

import random

import pytest

from preab import (
    BACKENDS,
    MorphismClass,
    classify,
    cokernel,
    decompose,
    dualize,
    kernel,
    quotient_iso,
    subobject_iso,
)
from preab.backends import LATZ
from preab.backends.flags import FlagBackend
from preab.lattice import column_hnf, integer_kernel
from preab.linalg import RatMatrix, hstack, kernel_basis, rank

ALL = sorted(BACKENDS)


def _draw(cat, rng, bound):
    a, b = cat.random_object(rng, bound), cat.random_object(rng, bound)
    return cat.random_morphism(rng, a, b)


def _dual_object(cat, a):
    """D(a): the same rank on latz; the reversed annihilator chain on flags."""
    if not isinstance(cat, FlagBackend):
        return a
    n, layers = a
    return cat.make_object((n, tuple(kernel_basis(s.basis.transpose()) for s in reversed(layers))))


def _dual_morphism(cat, f):
    """D(f): D(cod f) -> D(dom f), the transposed matrix."""
    return cat.make_morphism(_dual_object(cat, f.cod), _dual_object(cat, f.dom),
                             f.payload.transpose())


@pytest.mark.parametrize("name", ALL)
def test_concrete_duality_agrees_with_the_opposite(name):
    cat = BACKENDS[name]
    rng = random.Random(f"concrete duality:{name}")
    for _ in range(300):
        f = _draw(cat, rng, 4)
        df = _dual_morphism(cat, f)
        assert _dual_object(cat, _dual_object(cat, f.dom)) == f.dom
        assert _dual_morphism(cat, df) == f
        assert quotient_iso(_dual_morphism(cat, kernel(f).leg), cokernel(df).leg) is not None
        assert subobject_iso(_dual_morphism(cat, cokernel(f).leg), kernel(df).leg) is not None
        assert classify(df) == classify(dualize(f))


def _closed_form_strict(cat, f):
    m = f.payload
    if not isinstance(cat, FlagBackend):
        saturation = integer_kernel(integer_kernel(m.transpose()).transpose())
        return m.is_zero() or column_hnf(m) == saturation
    r = rank(m)
    return all(rank(m @ x.basis) == r + y.dim - rank(hstack(m, y.basis))
               for x, y in zip(f.dom[1], f.cod[1]))


@pytest.mark.parametrize("name", ALL)
def test_strictness_matches_its_closed_form(name):
    cat = BACKENDS[name]
    rng = random.Random(f"closed form:{name}")
    seen = set()
    for _ in range(500):
        f = _draw(cat, rng, 4)
        strict = _closed_form_strict(cat, f)
        assert classify(f).strict == strict
        assert classify(dualize(f)).strict == strict
        seen.add(strict)
    # vectq is abelian, so every morphism there is strict
    assert seen == ({True} if name == "vectq" else {True, False})


# latz indecomposables as (dom rank, cod rank, d): 0 -> Z, Z -> 0, Z --d--> Z
LATZ_INDECOMPOSABLES = [(0, 1, None), (1, 0, None)] + [(1, 1, d) for d in (1, -1, 2, -3, 4, 6)]


def _latz_sum(summands):
    """The block-diagonal direct sum of indecomposables, and the flags it must have."""
    n, m = sum(s[0] for s in summands), sum(s[1] for s in summands)
    entries, row, col = [0] * (m * n), 0, 0
    for dom, cod, d in summands:
        if d is not None:
            entries[row * n + col] = d
        row, col = row + cod, col + dom
    mono = all(cod for dom, cod, _ in summands if dom)  # no Z -> 0
    epi = all(dom for dom, cod, _ in summands if cod)  # no 0 -> Z
    strict = all(d is None or abs(d) == 1 for _, _, d in summands)
    flags = MorphismClass(mono=mono, epi=epi, bimorphism=mono and epi,
                          iso=mono and epi and strict, strict=strict,
                          is_kernel=mono and strict, is_cokernel=epi and strict)
    return LATZ.make_morphism(n, m, RatMatrix(m, n, entries)), flags


def _assert_latz_flags(f, flags):
    """f classifies as flags, dualize(f) with mono and epi traded, and the
    middle arrow of either is a bimorphism."""
    dual = MorphismClass(mono=flags.epi, epi=flags.mono, bimorphism=flags.bimorphism,
                         iso=flags.iso, strict=flags.strict,
                         is_kernel=flags.is_cokernel, is_cokernel=flags.is_kernel)
    for g, expected in ((f, flags), (dualize(f), dual)):
        assert classify(g) == expected
        assert classify(decompose(g).fbar).bimorphism


def test_latz_indecomposables_classify_as_the_table_says():
    for summand in LATZ_INDECOMPOSABLES:
        _assert_latz_flags(*_latz_sum([summand]))
    # 0 -> 0, the empty sum, is an iso
    _assert_latz_flags(*_latz_sum([]))


def test_latz_sums_of_indecomposables_and_their_iso_copies():
    rng = random.Random("latz indecomposables")
    seen = set()
    for _ in range(300):
        f, flags = _latz_sum([rng.choice(LATZ_INDECOMPOSABLES)
                              for _ in range(rng.randint(1, 4))])
        copy = LATZ.random_iso(rng, f.cod) @ f @ LATZ.random_iso(rng, f.dom)
        for g in (f, copy):
            _assert_latz_flags(g, flags)
        seen.add((flags.mono, flags.epi, flags.strict))
    assert len(seen) == 8
