"""The flag backends' generators against a reference that draws the slow way.

Audit reports, their digests and every seeded input depend on the exact
stream of ``rng`` calls the generators make, so each draw must return
the reference's payload and leave ``rng`` in the reference's state.
The reference re-eliminates each layer from its stacked generators,
takes the adapted basis from one elimination of the whole chain, and
builds a morphism one product per column.
"""

import random

import pytest

from preab import BACKENDS
from preab.core import Opposite
from preab.linalg import RatMatrix, Subspace, hstack, rref

FLAGS = ["vectq", "subvect", "filtvect3"]


def _random_matrix(rng, rows, cols):
    return RatMatrix(rows, cols, [rng.randint(-3, 3) for _ in range(rows * cols)])


def _adapted_columns(dim, layers):
    blocks = [s.basis for s in layers] + [RatMatrix.identity(dim)]
    owner = [i for i, b in enumerate(blocks) for _ in range(b.cols)]
    stacked = hstack(*blocks)
    r = rref(stacked)
    n, num, rnum = stacked.cols, stacked._num, r._num
    pivots = [next(j for j in range(n) if rnum[i * n + j]) for i in range(dim)]
    p = RatMatrix._of(dim, dim, [num[i * n + j] for i in range(dim) for j in pivots],
                      stacked._den)
    p_inv = RatMatrix._of(dim, dim, [x for i in range(dim)
                                     for x in rnum[(i + 1) * n - dim : (i + 1) * n]], r._den)
    return p, p_inv, [owner[j] for j in pivots]


def _reference_object(base, rng, dim_bound):
    roll = rng.random()
    if roll < 0.08:
        return base.zero_object()
    dim = rng.randint(0, dim_bound)
    if roll < 0.14:
        layers = tuple(Subspace.zero(dim) for _ in range(base.n_layers))
    elif roll < 0.20:
        layers = tuple(Subspace.full(dim) for _ in range(base.n_layers))
    else:
        layers = []
        cur = Subspace.zero(dim)
        for _ in range(base.n_layers):
            extra = rng.randint(0, dim)
            if extra:
                cur = Subspace(dim, hstack(cur.basis, _random_matrix(rng, dim, extra)))
            layers.append(cur)
        layers = tuple(layers)
    return (dim, layers)


def _reference_morphism(base, rng, a, b):
    if rng.random() < 0.2:
        return rng.choice(base._structural_candidates(a, b))
    n, xs = a
    m, ys = b
    _, p_inv, block = _adapted_columns(n, xs)
    cols = [RatMatrix.zeros(m, 0)]
    for j in range(n):
        i = block[j]
        target = ys[i].basis if i < len(ys) else RatMatrix.identity(m)
        cols.append(target @ _random_matrix(rng, target.cols, 1))
    return hstack(*cols) @ p_inv


def _reference_iso(rng, a):
    n, xs = a
    p, p_inv, _ = _adapted_columns(n, xs)
    t = [[0] * n for _ in range(n)]
    for i in range(n):
        t[i][i] = rng.choice((1, -1, 2, -2))
        for j in range(i + 1, n):
            t[i][j] = rng.randint(-2, 2)
    return p @ RatMatrix(n, n, [x for row in t for x in row]) @ p_inv


def _trivial_chains(base, dim):
    """Every chain of zero layers under full ones, as payloads."""
    k = base.n_layers
    return [(dim, (Subspace.zero(dim),) * z + (Subspace.full(dim),) * (k - z))
            for z in range(k + 1)]


@pytest.mark.parametrize("opposite", [False, True], ids=["base", "opposite"])
@pytest.mark.parametrize("name", FLAGS)
def test_draws_match_the_reference(name, opposite):
    base = BACKENDS[name]
    cat = base.opposite() if opposite else base

    def matrix(f):
        return f.payload.payload if isinstance(cat, Opposite) else f.payload

    def reference_morphism(rng, a, b):
        # the opposite draws the base morphism b -> a
        if isinstance(cat, Opposite):
            a, b = b, a
        return _reference_morphism(base, rng, a, b)

    kinds = set()
    for bound in range(7):
        rng = random.Random(f"draws {name} {bound}")
        ref = random.Random(f"draws {name} {bound}")
        fixed = [cat.make_object(p) for d in {0, bound} for p in _trivial_chains(base, d)]
        for _ in range(40):
            a = cat.random_object(rng, bound)
            assert a == _reference_object(base, ref, bound)
            b = cat.random_object(rng, bound)
            assert b == _reference_object(base, ref, bound)
            assert rng.getstate() == ref.getstate()
            for x in (a, b):
                n, layers = x
                kinds.add("zero object" if x == cat.zero_object() else
                          "trivial chain" if all(s.dim in (0, n) for s in layers) else
                          "proper chain")
            t = rng.choice(fixed)
            assert t is ref.choice(fixed)
            for x, y in ((a, b), (b, a), (a, a), (t, a), (a, t), (t, t)):
                f = cat.random_morphism(rng, x, y)
                assert (f.dom, f.cod) == (x, y)
                assert matrix(f) == reference_morphism(ref, x, y)
                assert rng.getstate() == ref.getstate()
            for x in (a, t):
                u = cat.random_iso(rng, x)
                assert (u.dom, u.cod) == (x, x)
                assert matrix(u) == _reference_iso(ref, x)
                assert rng.getstate() == ref.getstate()
    assert kinds == ({"zero object", "trivial chain"} if name == "vectq" else
                     {"zero object", "trivial chain", "proper chain"})
