"""Backend contracts: payload validation, generation, serialization.

Each backend must reject malformed objects and structure-violating matrices,
generate reproducible instances from a seed, and round-trip its objects and
morphisms through JSON without loss.
"""

import random
from fractions import Fraction

import pytest

from preab import BACKENDS, ConstraintViolation, classify, get_backend, lattice, linalg
from preab.backends import FILTVECT3, LATZ, SUBVECT, VECTQ, latz
from preab.backends.flags import _adapted_columns
from preab.linalg import RatMatrix, Subspace, invert, preimage, pushforward, solve_right

ALL = sorted(BACKENDS)


def test_registry():
    assert set(BACKENDS) == {"vectq", "subvect", "filtvect3", "latz"}
    assert get_backend("latz") is LATZ
    with pytest.raises(ValueError):
        get_backend("setz")


# ---------------------------------------------------------------------------
# object construction


def test_flag_object_validation():
    with pytest.raises(ConstraintViolation):
        VECTQ.make_object((-1, ()))
    with pytest.raises(ConstraintViolation):
        VECTQ.make_object((2, (Subspace.zero(2),)))  # vectq carries no layers
    with pytest.raises(ConstraintViolation):
        SUBVECT.make_object((2, ()))  # subvect needs exactly one layer
    with pytest.raises(ConstraintViolation):
        SUBVECT.make_object((2, (Subspace.zero(3),)))  # ambient mismatch
    line = Subspace.span(2, [[1, 0]])
    other = Subspace.span(2, [[0, 1]])
    with pytest.raises(ConstraintViolation):
        FILTVECT3.make_object((2, (line, other, Subspace.full(2))))  # not nested
    # an object is its validated payload, with the layers as a tuple
    assert FILTVECT3.make_object((2, [line, line, Subspace.full(2)])) == \
        (2, (line, line, Subspace.full(2)))
    assert VECTQ.make_object((2, [])) == VECTQ.obj(2) == (2, ())


def test_latz_object_validation():
    assert LATZ.make_object(0) == LATZ.zero_object() == 0
    assert LATZ.make_object(2) == LATZ.obj(2) == 2
    with pytest.raises(ConstraintViolation):
        LATZ.make_object(-1)
    with pytest.raises(ConstraintViolation):
        LATZ.make_object("2")


# ---------------------------------------------------------------------------
# morphism construction


def test_make_morphism_shape_check():
    a, b = VECTQ.obj(2), VECTQ.obj(3)
    with pytest.raises(ConstraintViolation):
        VECTQ.make_morphism(a, b, RatMatrix.identity(2))
    VECTQ.make_morphism(a, b, RatMatrix.zeros(3, 2))
    with pytest.raises(ConstraintViolation, match="RatMatrix"):
        VECTQ.make_morphism(a, b, [[0, 0], [0, 0], [0, 0]])


@pytest.mark.parametrize("name", ALL)
def test_entry_points_reject_morphisms_of_the_opposite(name):
    """A category and its opposite share their objects but never their
    morphisms: every entry point that takes a morphism raises ValueError
    on one of the other category, even when its ends fit."""
    for cat in (BACKENDS[name], BACKENDS[name].opposite()):
        other = cat.opposite()
        rng = random.Random(f"foreign:{cat.name}")
        for _ in range(5):
            a = cat.random_object(rng, 3)
            ida = cat.identity(a)
            bp = cat.biproduct(a, a)
            through = other.identity(bp.ob)
            for g in (other.identity(a), other.random_morphism(rng, a, a)):
                calls = [
                    lambda: cat.is_zero_morphism(g), lambda: cat.negate(g),
                    lambda: cat.is_iso(g), lambda: cat.kernel(g),
                    lambda: cat.cokernel(g), lambda: cat.decompose(g),
                    lambda: cat.compose(g, ida), lambda: cat.compose(ida, g),
                    lambda: cat.add(g, ida), lambda: cat.add(ida, g),
                    lambda: cat.divide_left(ida, g), lambda: cat.divide_left(g, ida),
                    lambda: cat.divide_right(ida, g), lambda: cat.divide_right(g, ida),
                    lambda: bp.pair(g, ida), lambda: bp.pair(ida, g),
                    lambda: bp.copair(g, ida), lambda: bp.copair(ida, g),
                    lambda: bp.split_out(through), lambda: bp.split_in(through),
                    lambda: cat.morphism_to_json(g),
                ]
                for call in calls:
                    with pytest.raises(ValueError, match="categor"):
                        call()


def test_subvect_layer_containment_enforced():
    a = SUBVECT.obj(1, (Subspace.full(1),))
    b = SUBVECT.obj(1, (Subspace.zero(1),))
    with pytest.raises(ConstraintViolation):
        SUBVECT.make_morphism(a, b, RatMatrix.identity(1))  # full cannot land in zero
    assert SUBVECT.try_morphism(a, b, RatMatrix.identity(1)) is None
    # the zero matrix is always fine
    SUBVECT.make_morphism(a, b, RatMatrix.zeros(1, 1))


@pytest.mark.parametrize("name", ["subvect", "filtvect3"])
def test_flag_constraint_matches_pushforward_containment(name):
    cat = get_backend(name)
    rng = random.Random(f"constraints {name}")
    outcomes = set()
    for _ in range(150):
        a, b = cat.random_object(rng, 3), cat.random_object(rng, 3)
        (n, xs), (m, ys) = a, b
        mat = RatMatrix(m, n, (Fraction(rng.choice((0, 0, 1, -1))) for _ in range(m * n)))
        expected = all(y.contains(pushforward(mat, x)) for x, y in zip(xs, ys))
        assert (cat.try_morphism(a, b, mat) is not None) == expected
        outcomes.add(expected)
    assert outcomes == {True, False}


def _greedy_adapted_columns(dim, layers):
    """Each layer basis vector, then each unit vector, kept unless it is in
    the span of the vectors kept so far."""
    cols, block = [], []

    def span_contains(v):
        if not cols:
            return v.is_zero()
        return solve_right(RatMatrix.from_columns(cols, rows=dim), v) is not None

    candidates = [(i, s.basis.column(j)) for i, s in enumerate(layers)
                  for j in range(s.basis.cols)]
    candidates += [(len(layers), RatMatrix.identity(dim).column(k)) for k in range(dim)]
    for i, c in candidates:
        if not span_contains(RatMatrix(dim, 1, c)):
            cols.append(c)
            block.append(i)
    return RatMatrix.from_columns(cols, rows=dim), block


@pytest.mark.parametrize("name", ["vectq", "subvect", "filtvect3"])
def test_adapted_columns_run_up_the_chain(name):
    cat = get_backend(name)
    rng = random.Random(f"adapted {name}")
    for _ in range(60):
        n, layers = cat.random_object(rng, 4)
        p, p_inv, block = _adapted_columns(n, layers)
        assert p @ p_inv == RatMatrix.identity(n)
        assert block == sorted(block)
        for i, layer in enumerate(layers):
            lead = [p.column(j) for j in range(p.cols) if block[j] <= i]
            assert Subspace(n, RatMatrix.from_columns(lead, rows=n)) == layer
        assert (p, block) == _greedy_adapted_columns(n, layers)


def test_subspace_questions_take_one_elimination_each(monkeypatch):
    """Counts calls of the one elimination routine, so that a second
    elimination per question (building a Subspace only to test it, or
    eliminating a basis that is already canonical) shows up.  A layer
    check solves against a canonical basis, which needs no elimination,
    and each layer of a kernel or cokernel takes one.  Drawing an object
    needs none (its layers come from one incremental elimination), and
    neither does the adapted basis of a chain of zero or full layers, so
    a vectq morphism or iso is drawn with none."""
    calls = []
    real = linalg._rref_pivots
    monkeypatch.setattr(linalg, "_rref_pivots", lambda m: calls.append(m) or real(m))

    def count(call, *args):
        calls.clear()
        call(*args)
        return len(calls)

    rng = random.Random("elimination counts")
    for _ in range(40):
        a, b = FILTVECT3.random_object(rng, 4), FILTVECT3.random_object(rng, 4)
        f = FILTVECT3.random_morphism(rng, a, b)
        (n, xs), (_, ys) = a, b
        assert count(FILTVECT3.check_payload_constraints, a, b, f.payload) == 0
        assert count(ys[-1].contains, ys[0]) == 0
        for y in ys:
            assert count(preimage, f.payload, y) == 1
        trivial = all(x.dim in (0, n) for x in xs)
        assert count(_adapted_columns, n, xs) == (0 if trivial else 1)
        assert count(linalg.kernel_basis, f.payload) == 1
        assert count(FILTVECT3.kernel_data, f) == 1 + len(xs)
        assert count(FILTVECT3.cokernel_data, f) == 1 + len(ys)
        assert count(Subspace.zero, n) == count(Subspace.full, n) == 0
        assert count(FILTVECT3.direct_sum_payload, a, b) == 0
        assert count(FILTVECT3.biproduct, a, b) == 0
    for _ in range(40):
        for cat in (VECTQ, SUBVECT, FILTVECT3):
            assert count(cat.random_object, rng, 6) == 0
        a, b = VECTQ.random_object(rng, 6), VECTQ.random_object(rng, 6)
        assert count(VECTQ.random_morphism, rng, a, b) == 0
        assert count(VECTQ.random_iso, rng, a) == 0


def _pivot_rows(s):
    """The row of each column's leading entry in a canonical basis."""
    return {next(i for i, x in enumerate(s.basis.column(c)) if x) for c in range(s.dim)}


@pytest.mark.parametrize("name", ["vectq", "subvect", "filtvect3"])
def test_drop_coordinate_matches_respanning(name, monkeypatch):
    """Deleting a coordinate keeps a layer's basis canonical unless the
    row held a pivot; only those layers are eliminated again."""
    cat = BACKENDS[name]
    calls = []
    real = linalg._rref_pivots
    monkeypatch.setattr(linalg, "_rref_pivots", lambda m: calls.append(m) or real(m))
    rng = random.Random(f"drop coordinate:{name}")
    seen = set()
    for _ in range(60):
        n, layers = payload = cat.random_object(rng, 5)
        for j in range(n):
            calls.clear()
            m, dropped = cat.drop_coordinate(payload, j)
            pivots = sum(j in _pivot_rows(s) for s in layers)
            assert len(calls) == pivots
            seen.add(pivots > 0)
            assert m == n - 1
            cat.make_object((m, dropped))
            for s, t in zip(layers, dropped):
                assert t == Subspace.span(n - 1, s.basis.delete_row(j))
                assert t.basis == linalg.column_echelon_basis(t.basis)
    assert seen == ({False, True} if name != "vectq" else {False})


def test_latz_cokernel_takes_two_hermite_forms(monkeypatch):
    """The saturation of the image is the integer kernel of its
    annihilator, already in column Hermite form, so one cokernel needs
    two integer kernels, each at most one HNF of its kernel block;
    the leg equals the quotient of saturate's lattice."""
    calls = []
    real = latz.integer_kernel
    monkeypatch.setattr(latz, "integer_kernel", lambda m: calls.append(m) or real(m))
    rng = random.Random("latz cokernel hnfs")
    for _ in range(200):
        m, n = rng.randint(0, 4), rng.randint(0, 4)
        f = LATZ.random_morphism(rng, LATZ.obj(n), LATZ.obj(m))
        calls.clear()
        rank, q = LATZ.cokernel_data(f)
        assert len(calls) == 2
        image = lattice.saturate(lattice.IntLattice.span(m, f.payload))
        assert q == lattice.pure_quotient_rows(image.basis) and rank == q.rows


def test_latz_integrality_enforced():
    one = LATZ.obj(1)
    with pytest.raises(ConstraintViolation):
        LATZ.make_morphism(one, one, RatMatrix.from_rows([["1/2"]]))
    assert LATZ.try_morphism(one, one, RatMatrix.from_rows([["1/2"]])) is None


@pytest.mark.parametrize("name", ALL)
def test_generated_morphisms_are_valid(name):
    # random_morphism must only emit matrices that pass the backend's own checks
    cat = BACKENDS[name]
    rng = random.Random(f"gen:{name}")
    for _ in range(150):
        a = cat.random_object(rng, 4)
        b = cat.random_object(rng, 4)
        f = cat.random_morphism(rng, a, b)
        assert cat.make_morphism(a, b, f.payload) == f


@pytest.mark.parametrize("name", ALL)
def test_random_iso_invertible(name):
    cat = BACKENDS[name]
    rng = random.Random(f"riso:{name}")
    for _ in range(40):
        a = cat.random_object(rng, 3)
        f = cat.random_iso(rng, a)
        assert f.dom == a and f.cod == a
        assert cat.is_iso(f)


def _same_dim_object(base, rng, a):
    while True:
        b = base.random_object(rng, 3)
        if base.ambient_dim(b) == base.ambient_dim(a):
            return b


@pytest.mark.parametrize("side", ["base", "op"])
@pytest.mark.parametrize("name", ["latz", "vectq", "subvect", "filtvect3"])
def test_flag_iso_rule_matches_inversion(name, side, is_iso_by_inversion):
    """is_iso reads the answer off the rank and the layer dimensions (on
    latz, two Hermite forms); it must agree with inverting and checking
    the inverse."""
    base = get_backend(name)
    cat = base.opposite() if side == "op" else base
    rng = random.Random(f"flag iso rule:{name}:{side}")
    morphisms = []
    for _ in range(60):
        a = cat.random_object(rng, 3)
        morphisms += [cat.random_iso(rng, a),
                      cat.random_morphism(rng, a, a),
                      cat.random_morphism(rng, a, _same_dim_object(base, rng, a)),
                      cat.random_morphism(rng, a, cat.random_object(rng, 3)),
                      cat.zero_morphism(a, a)]
    for v in range(1, 4):
        if name == "latz":
            # multiplication by 2 on Z^v
            f = base.make_morphism(v, v, RatMatrix.identity(v) + RatMatrix.identity(v))
        else:
            # the bimorphism (V, 0) -> (V, V)
            zero, full = (base.obj(v, [s] * base.n_layers) for s in (Subspace.zero(v),
                                                                      Subspace.full(v)))
            f = base.make_morphism(zero, full, RatMatrix.identity(v))
        morphisms.append(cat.wrap(f) if side == "op" else f)
    kinds = set()
    for f in morphisms:
        iso = cat.is_iso(f)
        assert iso == is_iso_by_inversion(cat, f)
        m = cat.unwrap(f).payload if side == "op" else f.payload
        kinds.add("iso" if iso else "not square" if m.rows != m.cols else
                  "singular" if invert(m) is None else "invertible, no iso")
    assert kinds == {"iso", "not square", "singular"} | (
        set() if name == "vectq" else {"invertible, no iso"})


# ---------------------------------------------------------------------------
# generation determinism


@pytest.mark.parametrize("name", ALL)
def test_generation_deterministic(name):
    cat = BACKENDS[name]

    def trace(seed):
        rng = random.Random(seed)
        out = []
        for _ in range(30):
            a = cat.random_object(rng, 4)
            b = cat.random_object(rng, 4)
            f = cat.random_morphism(rng, a, b)
            out.append((a, b, f.payload))
        return out

    assert trace(f"det:{name}") == trace(f"det:{name}")
    assert trace(f"det:{name}") != trace(f"det2:{name}")


# ---------------------------------------------------------------------------
# non-strict morphisms do appear where they should


def test_subvect_generates_non_strict():
    rng = random.Random("density:subvect")
    non_strict = 0
    for _ in range(1000):
        a = SUBVECT.random_object(rng, 4)
        b = SUBVECT.random_object(rng, 4)
        if not classify(SUBVECT.random_morphism(rng, a, b)).strict:
            non_strict += 1
    assert non_strict >= 1
    # non-strict maps should be reasonably common, not vanishing corner cases
    assert non_strict >= 50


def test_latz_generates_non_strict():
    rng = random.Random("density:latz")
    non_strict = sum(
        1
        for _ in range(500)
        if not classify(
            LATZ.random_morphism(rng, LATZ.random_object(rng, 3), LATZ.random_object(rng, 3))
        ).strict
    )
    assert non_strict >= 1


# ---------------------------------------------------------------------------
# JSON round trips


@pytest.mark.parametrize("name", ALL)
def test_object_json_round_trip(name):
    cat = BACKENDS[name]
    rng = random.Random(f"ojson:{name}")
    for _ in range(25):
        a = cat.random_object(rng, 4)
        blob = cat.object_to_json(a)
        assert cat.object_from_json(blob) == a


@pytest.mark.parametrize("name", ALL)
def test_morphism_json_round_trip(name):
    cat = BACKENDS[name]
    rng = random.Random(f"mjson:{name}")
    for _ in range(25):
        a = cat.random_object(rng, 4)
        b = cat.random_object(rng, 4)
        f = cat.random_morphism(rng, a, b)
        blob = cat.morphism_to_json(f)
        assert blob["backend"] == name
        assert cat.morphism_from_json(blob) == f
        # a missing backend name is read as this backend's; another one is refused
        assert cat.morphism_from_json({k: v for k, v in blob.items() if k != "backend"}) == f
        other = next(n for n in ALL if n != name)
        with pytest.raises(ValueError, match="is not"):
            cat.morphism_from_json({**blob, "backend": other})


def test_morphism_json_frozen_shape():
    a = SUBVECT.obj(2, (Subspace.span(2, [[1, 0]]),))
    b = SUBVECT.obj(2, (Subspace.full(2),))
    f = SUBVECT.make_morphism(a, b, RatMatrix.identity(2))
    blob = SUBVECT.morphism_to_json(f)
    assert blob["backend"] == "subvect"
    assert blob["dom"]["dim"] == 2
    assert blob["dom"]["subspace"]["entries"] == [["1"], ["0"]]
    assert blob["matrix"]["entries"] == [["1", "0"], ["0", "1"]]


def test_object_json_rejects_malformed():
    with pytest.raises(ValueError):
        VECTQ.object_from_json({"dim": -2})
    with pytest.raises(ValueError):
        VECTQ.object_from_json({})
    with pytest.raises(ValueError):
        SUBVECT.object_from_json({"dim": 2})  # missing subspace
    with pytest.raises(ValueError):
        LATZ.object_from_json({"rank": "x"})
    with pytest.raises(ValueError):
        LATZ.object_from_json({"rank": True})
    with pytest.raises(ValueError):
        VECTQ.object_from_json({"dim": True})
    with pytest.raises(ValueError):
        SUBVECT.object_from_json({"dim": True,
                                  "subspace": {"rows": 1, "cols": 0, "entries": [[]]}})


def test_morphism_json_rejects_structure_violation():
    a = SUBVECT.obj(1, (Subspace.full(1),))
    b = SUBVECT.obj(1, (Subspace.zero(1),))
    bad = {
        "backend": "subvect",
        "dom": SUBVECT.object_to_json(a),
        "cod": SUBVECT.object_to_json(b),
        "matrix": {"rows": 1, "cols": 1, "entries": [["1"]]},
    }
    with pytest.raises(ValueError):
        SUBVECT.morphism_from_json(bad)
    with pytest.raises(ValueError):
        SUBVECT.morphism_from_json({"backend": "vectq"})


def test_latz_json_frozen_shape():
    f = LATZ.make_morphism(LATZ.obj(1), LATZ.obj(2), RatMatrix.from_rows([[2], [0]]))
    blob = LATZ.morphism_to_json(f)
    assert blob == {
        "backend": "latz",
        "dom": {"rank": 1},
        "cod": {"rank": 2},
        "matrix": {"rows": 2, "cols": 1, "entries": [["2"], ["0"]]},
    }


# ---------------------------------------------------------------------------
# zero objects and degenerate shapes


@pytest.mark.parametrize("name", ALL)
def test_zero_object_behaviour(name):
    cat = BACKENDS[name]
    z = cat.zero_object()
    assert cat.is_zero_object(z)
    idz = cat.identity(z)
    assert cat.is_zero_morphism(idz)
    assert cat.is_iso(idz)
    a = cat.random_object(random.Random(f"zero:{name}"), 3)
    into = cat.zero_morphism(z, a)
    outof = cat.zero_morphism(a, z)
    assert cat.is_zero_morphism(outof @ into) or True
    assert classify(into).mono
    assert classify(outof).epi
