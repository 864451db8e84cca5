"""Three oracles built without the ``Opposite`` transport.

*Concrete duality.*  Each backend is equivalent to its own opposite by
a functor D that is built here by hand.  D transposes every morphism.
On ``latz`` it fixes every object Z^r.  On the flag backends it sends
(V, F_1 <= ... <= F_k) to (V*, F_k^perp <= ... <= F_1^perp), where
F^perp is the solution space of F's basis transposed; a map that sends
each F_i into G_i has a transpose that sends each G_i^perp into
F_i^perp.  So D(f) must classify as ``dualize(f)`` does, and D must
carry the kernel of f to the cokernel of D(f) and back.  And a left
condition, which the checker decides in the ``Opposite`` category, must
get the verdict its right mirror gets on the instance's image under D,
in the base category; D sends a pullback square to a pushout square,
which the checker is left to verify.

*Strictness in closed form.*  A flag morphism f: (V, F) -> (W, G) is
strict exactly when dim f(F_i) = dim(f(V) meet G_i) for every layer,
that is rank(f F_i) == rank f + dim G_i - rank[f | G_i].  A non-zero
``latz`` morphism is strict exactly when its image is saturated: its
column Hermite form equals the integer kernel of its annihilator.
Every backend is also checked against sympy, which shares no code with
preab: f is mono at full column rank and epi at full row rank, and a
``latz`` morphism is strict exactly when every non-zero invariant of its
Smith form is a unit.

*Indecomposables.*  By its Smith form, every ``latz`` morphism is a
direct sum of 0 -> Z (mono, strict), Z -> 0 (epi, strict) and
Z --d--> Z (mono and epi, strict exactly when |d| = 1).  On a flag
backend with k layers, write (Q, F_a) for the line whose layers a..k-1
are full and the rest zero, a in 0..k.  A flag morphism is a
representation of a type-A quiver with injective arms, so by Gabriel's
theorem it is a direct sum of (Q, F_a) -> 0 (epi, strict),
0 -> (Q, F_b) (mono, strict) and the identity (Q, F_a) -> (Q, F_b),
which is a morphism exactly when b <= a (mono and epi, strict exactly
when b == a).  Mono, epi and strict hold for a direct sum exactly when
they hold for every summand, and isomorphisms on either side change
none of them.

*Small scope.*  Every ``latz`` morphism of rank at most 2 and every
``subvect`` morphism of ambient dimension at most 2, with entries and
layer spans over {-1, 0, 1}, classifies, with its dual, as sympy's rank
and fbar inverted by hand say, and on ``latz`` as its Smith form says.
"""

import itertools
import random

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form

from preab import (
    BACKENDS,
    ConstraintViolation,
    MorphismClass,
    classify,
    cokernel,
    decompose,
    dualize,
    kernel,
    quotient_iso,
    subobject_iso,
)
from preab.audit import generate_instance
from preab.backends import LATZ
from preab.backends.flags import FlagBackend
from preab.conditions import (
    INDICES,
    VACUOUS,
    MorphismInstance,
    PairInstance,
    SquareInstance,
    check_condition,
)
from preab.core import Square
from preab.lattice import column_hnf, integer_kernel
from preab.linalg import RatMatrix, Subspace, block_diagonal, hstack, kernel_basis, rank

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


def _dual_instance(cat, inst):
    """D(inst): each edge through D, reversed; a square is rebuilt as
    "commutative", so the checker verifies that it is a pushout."""
    def d(f):
        return _dual_morphism(cat, f)

    if isinstance(inst, MorphismInstance):
        return MorphismInstance(d(inst.f))
    if isinstance(inst, PairInstance):
        return PairInstance(outer=d(inst.inner), inner=d(inst.outer))
    sq = inst.square
    return SquareInstance(Square(top=d(sq.bottom), left=d(sq.right),
                                 bottom=d(sq.top), right=d(sq.left)))


@pytest.mark.parametrize("name", ALL)
def test_left_verdicts_match_the_right_verdicts_through_concrete_duality(name):
    """Two routes to each left.x verdict: the Opposite transport, and the
    right.x checker on the instance carried to the base category by D."""
    cat = BACKENDS[name]
    for index in INDICES:
        for i in range(10):
            inst = generate_instance(name, f"left.{index}", 3, f"concrete duality:{i}")
            verdict = check_condition(f"right.{index}", _dual_instance(cat, inst)).verdict
            assert verdict != VACUOUS, (index, i)
            assert check_condition(f"left.{index}", inst).verdict == verdict, (index, i)


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


def _sympy_rank(m):
    return sympy.Matrix(m.rows, m.cols, lambda i, j: sympy.Rational(m.entry(i, j))).rank()


def _sympy_units(m):
    """Whether every non-zero invariant of the Smith form of the integer matrix m is ±1."""
    sy = sympy.Matrix(m.rows, m.cols, lambda i, j: int(m.entry(i, j)))
    d = smith_normal_form(sy, domain=sympy.ZZ)
    return all(abs(d[i, i]) == 1 for i in range(min(m.rows, m.cols)) if d[i, i] != 0)


def _direct_sum(cat, f, g):
    """f (+) g: mono, epi and strict exactly when both f and g are."""
    return cat.make_morphism(cat.direct_sum_payload(f.dom, g.dom),
                             cat.direct_sum_payload(f.cod, g.cod),
                             block_diagonal(f.payload, g.payload))


@pytest.mark.parametrize("name", ALL)
def test_classify_matches_sympy(name, is_iso_by_inversion):
    cat = BACKENDS[name]
    rng = random.Random(f"{name} classify against sympy")
    seen = set()
    g = cat.zero_morphism(cat.zero_object(), cat.zero_object())
    for _ in range(200):
        # a draw, and its sum with the previous draw, which meets the rare
        # flag combinations (such as neither mono, epi nor strict) far sooner
        prev, g = g, _draw(cat, rng, 4)
        for f in (g, _direct_sum(cat, g, prev)):
            m = f.payload
            r = _sympy_rank(m)
            mono, epi, strict = r == m.cols, r == m.rows, classify(f).strict
            if name == "latz":
                assert strict == _sympy_units(m)
            fo = dualize(f)
            for h, flags in ((f, MorphismClass(mono, epi, strict)),
                             (fo, MorphismClass(epi, mono, strict))):
                d = decompose(h)
                assert classify(h) == flags
                # f is strict exactly when fbar is an iso: asked of classify
                # and answered by inverting fbar by hand
                assert classify(d.fbar).iso == strict
                assert is_iso_by_inversion(h.category, d.fbar) == strict
            seen.add((mono, epi, strict))
    # vectq is abelian, so every morphism there is strict
    assert len(seen) == (4 if name == "vectq" else 8)


def _small_objects(cat, alphabet):
    """Every object of ambient dimension at most 2 whose layer is spanned
    by vectors over the alphabet: on latz the ranks, on subvect (V, F)."""
    if cat is LATZ:
        return [0, 1, 2]
    objects = {}
    for n in range(3):
        vectors = list(itertools.product(alphabet, repeat=n))
        for k in range(n + 1):
            for span in itertools.combinations(vectors, k):
                objects[cat.obj(n, [Subspace.span(n, span)])] = None
    return list(objects)


def _small_morphisms(cat, alphabet):
    """Every morphism between small objects whose matrix is over the alphabet."""
    objects = _small_objects(cat, alphabet)
    for a, b in itertools.product(objects, repeat=2):
        n, m = cat.ambient_dim(a), cat.ambient_dim(b)
        for entries in itertools.product(alphabet, repeat=m * n):
            f = cat.try_morphism(a, b, RatMatrix(m, n, entries))
            if f is not None:
                yield f


# (alphabet, objects, morphisms, (mono, epi, strict) combinations) at the
# small scope.  Over {-1, 0, 1} every non-square latz morphism is strict,
# and only 5 combinations occur; over {-2..2} all 8 do.
SMALL_SCOPE = {"latz": (range(-2, 3), 3, 685, 8), "subvect": ((-1, 0, 1), 9, 1543, 8)}


@pytest.mark.parametrize("name", sorted(SMALL_SCOPE))
def test_classify_every_small_morphism(name, is_iso_by_inversion):
    cat = BACKENDS[name]
    alphabet, objects, morphisms, kinds = SMALL_SCOPE[name]
    assert len(_small_objects(cat, alphabet)) == objects
    seen, count = set(), 0
    for f in _small_morphisms(cat, alphabet):
        m = f.payload
        r = _sympy_rank(m)
        mono, epi = r == m.cols, r == m.rows
        strict = is_iso_by_inversion(cat, decompose(f).fbar)
        if name == "latz":
            assert strict == _sympy_units(m)
        assert classify(f) == MorphismClass(mono, epi, strict)
        assert classify(dualize(f)) == MorphismClass(epi, mono, strict)
        seen.add((mono, epi, strict))
        count += 1
    assert (count, len(seen)) == (morphisms, kinds)


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
    return LATZ.make_morphism(n, m, RatMatrix(m, n, entries)), MorphismClass(mono, epi, strict)


def _assert_flags(f, flags):
    """f classifies as flags, dualize(f) with mono and epi traded, and the
    middle arrow of either is a bimorphism."""
    dual = MorphismClass(mono=flags.epi, epi=flags.mono, strict=flags.strict)
    for g, expected in ((f, flags), (dualize(f), dual)):
        assert classify(g) == expected
        assert classify(decompose(g).fbar).bimorphism


def test_latz_indecomposables_classify_as_the_table_says():
    for summand in LATZ_INDECOMPOSABLES:
        _assert_flags(*_latz_sum([summand]))
    # 0 -> 0, the empty sum, is an iso
    _assert_flags(*_latz_sum([]))


def test_latz_sums_of_indecomposables_and_their_iso_copies():
    rng = random.Random("latz indecomposables")
    seen = set()
    for _ in range(300):
        f, flags = _latz_sum([rng.choice(LATZ_INDECOMPOSABLES)
                              for _ in range(rng.randint(1, 4))])
        copy = LATZ.random_iso(rng, f.cod) @ f @ LATZ.random_iso(rng, f.dom)
        for g in (f, copy):
            _assert_flags(g, flags)
        seen.add((flags.mono, flags.epi, flags.strict))
    assert len(seen) == 8


FLAG_BACKENDS = sorted(name for name in ALL if isinstance(BACKENDS[name], FlagBackend))


def _flag_indecomposables(k):
    """(a, b) for each indecomposable with k layers: (a, None) is
    (Q, F_a) -> 0, (None, b) is 0 -> (Q, F_b), and (a, b) the identity."""
    lines = range(k + 1)
    return ([(a, None) for a in lines] + [(None, b) for b in lines]
            + [(a, b) for a in lines for b in lines if b <= a])


def _flag_sum(cat, summands):
    """The block-diagonal direct sum of flag indecomposables, and the flags it must have."""
    def lines(starts):
        # (Q, F_a) (+) ... : layer i is spanned by the unit vectors of the lines with a <= i
        n = len(starts)
        units = [[int(r == j) for r in range(n)] for j in range(n)]
        return cat.obj(n, [Subspace.span(n, [units[j] for j, a in enumerate(starts) if a <= i])
                           for i in range(cat.n_layers)])

    dom = [a for a, _ in summands if a is not None]
    cod = [b for _, b in summands if b is not None]
    n, m = len(dom), len(cod)
    entries, row, col = [0] * (m * n), 0, 0
    for a, b in summands:
        if a is not None and b is not None:
            entries[row * n + col] = 1
        row, col = row + (b is not None), col + (a is not None)
    mono = all(b is not None for a, b in summands if a is not None)  # no (Q, F_a) -> 0
    epi = all(a is not None for a, b in summands if b is not None)  # no 0 -> (Q, F_b)
    strict = all(a == b for a, b in summands if a is not None and b is not None)
    f = cat.make_morphism(lines(dom), lines(cod), RatMatrix(m, n, entries))
    return f, MorphismClass(mono, epi, strict)


@pytest.mark.parametrize("name", FLAG_BACKENDS)
def test_flag_indecomposables_classify_as_the_table_says(name):
    cat = BACKENDS[name]
    table = _flag_indecomposables(cat.n_layers)
    non_strict = [(a, b) for a, b in table if None not in (a, b) and b < a]
    assert (len(table), len(non_strict)) == {
        "vectq": (3, 0), "subvect": (7, 1), "filtvect3": (18, 6)}[name]
    for summand in table:
        f, flags = _flag_sum(cat, [summand])
        _assert_flags(f, flags)
        assert flags.strict == (summand not in non_strict)
    # (Q, F_a) -> (Q, F_b) is no morphism when b > a
    for a in range(cat.n_layers):
        with pytest.raises(ConstraintViolation):
            _flag_sum(cat, [(a, a + 1)])


@pytest.mark.parametrize("name", FLAG_BACKENDS)
def test_flag_sums_of_indecomposables_and_their_iso_copies(name):
    cat = BACKENDS[name]
    table = _flag_indecomposables(cat.n_layers)
    rng = random.Random(f"flag indecomposables:{name}")
    seen = set()
    for _ in range(300):
        f, flags = _flag_sum(cat, [rng.choice(table) for _ in range(rng.randint(1, 4))])
        copy = cat.random_iso(rng, f.cod) @ f @ cat.random_iso(rng, f.dom)
        for g in (f, copy):
            _assert_flags(g, flags)
        seen.add((flags.mono, flags.epi, flags.strict))
    # vectq is abelian, so every morphism there is strict
    assert len(seen) == (4 if name == "vectq" else 8)
