"""Two oracles built without the ``Opposite`` transport.

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
"""

import random

import pytest

from preab import BACKENDS, classify, cokernel, dualize, kernel, quotient_iso, subobject_iso
from preab.backends.flags import FlagBackend
from preab.lattice import column_hnf, integer_kernel
from preab.linalg import hstack, kernel_basis, rank

ALL = sorted(BACKENDS)


def _draw(cat, rng, bound):
    a, b = cat.random_object(rng, bound), cat.random_object(rng, bound)
    return cat.random_morphism(rng, a, b)


def _dual_object(cat, a):
    """D(a): the same rank on latz; the reversed annihilator chain on flags."""
    if not isinstance(cat, FlagBackend):
        return a
    n, layers = a.payload
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
               for x, y in zip(f.dom.payload[1], f.cod.payload[1]))


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
