"""The forgetful functor U to ``vectq``, the step of the semi-abelian proof
in the README that reads each construction off linear algebra.

U forgets the layers of a flag object, and on ``latz`` it tensors with Q:
it sends a morphism to its matrix between the ambient spaces.  On an
opposite category U is the base's U read in the opposite of ``vectq``.
U must send each constructed kernel, cokernel, coimage and image to the
``vectq`` one, up to the canonical iso; then U(fbar) is the ``vectq``
comparison map, an iso.  And U reflects monos and epis: f is mono exactly
when U(f) has full column rank, epi exactly when it has full row rank.
"""

import random

import pytest

from preab import BACKENDS, classify, cokernel, decompose, dualize, kernel
from preab.backends import VECTQ
from preab.core import Opposite, quotient_iso, subobject_iso
from preab.linalg import rank

CATEGORIES = [(name, side) for name in sorted(BACKENDS) for side in ("base", "opposite")]


def forget(f):
    """U(f), in ``vectq`` or, for a morphism of an opposite, in its opposite."""
    c = f.category
    if isinstance(c, Opposite):
        return dualize(forget(c.unwrap(f)))
    return VECTQ.make_morphism(VECTQ.obj(c.ambient_dim(f.dom)),
                               VECTQ.obj(c.ambient_dim(f.cod)), f.payload)


def _matrix(f):
    return f.category.unwrap(f).payload if isinstance(f.category, Opposite) else f.payload


@pytest.mark.parametrize("name,side", CATEGORIES)
def test_forgetting_keeps_every_construction(name, side):
    cat = BACKENDS[name] if side == "base" else BACKENDS[name].opposite()
    rng = random.Random(f"forget:{name}:{side}")
    non_zero = 0
    for _ in range(80):
        f = cat.random_morphism(rng, cat.random_object(rng, 4), cat.random_object(rng, 4))
        uf = forget(f)
        non_zero += not uf.category.is_zero_morphism(uf)
        assert subobject_iso(forget(kernel(f).leg), kernel(uf).leg) is not None
        assert quotient_iso(forget(cokernel(f).leg), cokernel(uf).leg) is not None
        d, du = decompose(f), decompose(uf)
        w_im = subobject_iso(forget(d.im), du.im)
        w_coim = quotient_iso(forget(d.coim), du.coim)
        assert w_im is not None and w_coim is not None
        # U(fbar) is the vectq comparison, carried along the canonical isos
        assert w_im @ forget(d.fbar) == du.fbar @ w_coim
        assert classify(forget(d.fbar)).iso

        r = rank(_matrix(uf))
        dims = VECTQ.ambient_dim(uf.dom), VECTQ.ambient_dim(uf.cod)
        flags = classify(f)
        assert (flags.mono, flags.epi) == (r == dims[0], r == dims[1])
    assert non_zero >= 20
