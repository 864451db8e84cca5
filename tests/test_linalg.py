"""Exact rational linear algebra tests.

Expected values in the _frozen_ section were worked out by hand with
Gaussian elimination before the implementation was written; the
property section cross-checks against sympy, which is an independent
implementation.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from preab.backends import FILTVECT3, VECTQ
from preab.lattice import IntLattice, column_hnf, integer_kernel
from preab.linalg import (
    MAX_DIM,
    RatMatrix,
    Subspace,
    block_diagonal,
    column_echelon_basis,
    complement_rows,
    hstack,
    image_basis,
    invert,
    kernel_basis,
    matrix_from_json,
    matrix_to_json,
    nested_spans,
    preimage,
    pushforward,
    rank,
    rref,
    solve_right,
    vstack,
)


def _m(rows, cols=None):
    return RatMatrix.from_rows(rows, cols=cols)


def _span(ambient, *cols):
    return Subspace.span(ambient, RatMatrix.from_columns(list(cols), rows=ambient))


def block_diag(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    top = hstack(a, RatMatrix.zeros(a.rows, b.cols))
    bot = hstack(RatMatrix.zeros(b.rows, a.cols), b)
    return vstack(top, bot)


def subspace_to_json(s: Subspace) -> dict:
    return {"ambient_dim": s.ambient_dim, "basis": matrix_to_json(s.basis)}


def subspace_from_json(obj: dict) -> Subspace:
    return Subspace.span(obj["ambient_dim"], matrix_from_json(obj["basis"]))


# ---------------------------------------------------------------- frozen

def test_rref_collinear_rows():
    # by hand: divide row 1 by 2, subtract from row 2
    assert rref(_m([[2, 4], [1, 2]])) == _m([[1, 2], [0, 0]])


def test_rref_three_by_three():
    # by hand: r3 - r1, r3 - r2, r1 - 2 r2
    m = _m([[1, 2, 1], [0, 1, 1], [1, 3, 2]])
    assert rref(m) == _m([[1, 0, -1], [0, 1, 1], [0, 0, 0]])
    assert rank(m) == 2


def test_kernel_of_projection():
    # x = 0 frees the second coordinate
    assert kernel_basis(_m([[1, 0]])) == _span(2, (0, 1))


def test_kernel_of_rank_two_map():
    # solved by hand from the rref above
    k = kernel_basis(_m([[1, 2, 1], [0, 1, 1], [1, 3, 2]]))
    assert k == _span(3, (1, -1, 1))


def test_image_of_column():
    assert image_basis(_m([[1], [2]])) == _span(2, (1, 2))


def test_solve_sets_free_variables_to_zero():
    x = solve_right(_m([[1, 0]]), _m([[5]]))
    assert x == _m([[5], [0]])


def test_solve_diagonal_with_fractions():
    x = solve_right(_m([[2, 0], [0, 3]]), _m([[1], [1]]))
    assert x == _m([[Fraction(1, 2)], [Fraction(1, 3)]])


def test_solve_inconsistent_returns_none():
    assert solve_right(_m([[1], [1]]), _m([[1], [2]])) is None


def test_invert_two_by_two():
    # adjugate over determinant -2, by hand
    inv = invert(_m([[1, 2], [3, 4]]))
    assert inv == _m([[-2, 1], [Fraction(3, 2), Fraction(-1, 2)]])


def test_invert_singular_is_none():
    assert invert(_m([[1, 2], [2, 4]])) is None
    assert invert(_m([[1, 2, 3]])) is None


def test_transverse_lines_meet_at_origin():
    assert _span(2, (1, 0)).intersect(_span(2, (1, 1))) == Subspace.zero(2)


def test_intersect_planes_in_three_space():
    # {z = 0} meets {x = 0} in the y-axis
    xy = _span(3, (1, 0, 0), (0, 1, 0))
    yz = _span(3, (0, 1, 0), (0, 0, 1))
    assert xy.intersect(yz) == _span(3, (0, 1, 0))


def test_complement_rows_of_a_line():
    q = complement_rows(_span(2, (1, 2)))
    assert q == _m([[1, Fraction(-1, 2)]])


def test_preimage_of_line_under_projection():
    m = _m([[1, 0], [0, 0]])
    assert preimage(m, _span(2, (1, 0))) == Subspace.full(2)
    assert preimage(m, Subspace.zero(2)) == _span(2, (0, 1))


def test_pushforward_of_line():
    m = _m([[1, 1], [0, 1]])
    assert pushforward(m, _span(2, (1, 0))) == _span(2, (1, 0))


# ------------------------------------------------------------- edge shapes

def test_zero_dimensional_shapes():
    a = RatMatrix.zeros(0, 3)
    b = RatMatrix.zeros(3, 0)
    assert (a @ b).shape == (0, 0)
    assert (b @ a) == RatMatrix.zeros(3, 3)
    assert kernel_basis(a) == Subspace.full(3)
    assert image_basis(b) == Subspace.zero(3)
    assert rank(a) == 0
    assert solve_right(b, RatMatrix.zeros(3, 2)) == RatMatrix.zeros(0, 2)
    assert solve_right(b, _m([[1], [0], [0]])) is None
    assert invert(RatMatrix.zeros(0, 0)) == RatMatrix.zeros(0, 0)


def test_subspaces_of_different_ambient_spaces_are_refused():
    line, plane = _span(2, (1, 0)), Subspace.full(3)
    for call in (lambda: Subspace(3, _m([[1], [0]])), lambda: plane.contains(line),
                 lambda: line.contains(plane), lambda: plane.add(line),
                 lambda: plane.intersect(line), lambda: pushforward(_m([[1, 0, 0]]), line),
                 lambda: preimage(_m([[1, 0, 0]]), line)):
        with pytest.raises(ValueError):
            call()
    assert line != Subspace.full(2) and Subspace.zero(2) != Subspace.zero(3)


def test_stacking():
    a, b = _m([[1, 2]]), _m([[3, 4]])
    assert vstack(a, b) == _m([[1, 2], [3, 4]])
    assert hstack(a, b) == _m([[1, 2, 3, 4]])
    assert block_diag(_m([[1]]), _m([[2]])) == _m([[1, 0], [0, 2]])


def test_index_methods_refuse_out_of_range_indices():
    m = _m([[1, 2], [3, 4]])
    for call in (lambda: m.entry(0, 2), lambda: m.entry(2, 0), lambda: m.entry(-1, 0),
                 lambda: m.row(2), lambda: m.row(-1), lambda: m.column(2),
                 lambda: m.column(-1), lambda: m.delete_row(2), lambda: m.delete_row(-1),
                 lambda: m.delete_column(2), lambda: m.delete_column(-1),
                 lambda: m.with_entry(2, 0, 5), lambda: m.with_entry(0, -1, 5),
                 lambda: m.split_rows(3), lambda: m.split_rows(-1),
                 lambda: m.split_columns(3), lambda: m.split_columns(-1)):
        with pytest.raises(IndexError):
            call()
    # the edges of the valid ranges still work
    assert (m.entry(1, 1), m.row(1), m.column(0)) == (4, (3, 4), (1, 3))
    assert m.delete_row(1) == _m([[1, 2]]) and m.delete_column(0) == _m([[2], [4]])
    assert m.with_entry(1, 0, 7) == _m([[1, 2], [7, 4]])
    assert [t.shape for t in m.split_rows(2) + m.split_columns(0)] == [
        (2, 2), (0, 2), (2, 0), (2, 2)]


def test_canonical_form_is_span_invariant():
    # same plane presented three different ways
    s1 = _span(3, (1, 1, 0), (0, 0, 1))
    s2 = _span(3, (2, 2, 2), (0, 0, 5), (1, 1, 3))
    assert s1 == s2
    assert s1.dim == 2


# ------------------------------------------------------------- properties

def _random_matrix(rng: random.Random, rows: int, cols: int, span: int = 3) -> RatMatrix:
    return RatMatrix(rows, cols,
                     (Fraction(rng.randint(-span, span)) for _ in range(rows * cols)))


def _random_rational_matrix(rng: random.Random, rows: int, cols: int) -> RatMatrix:
    """Entries with mixed denominators, a quarter of them zero."""
    return RatMatrix(rows, cols, (
        Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 4, 6, 7, 12)))
        if rng.random() < 0.75 else Fraction(0) for _ in range(rows * cols)))


def _rational_draws(rng: random.Random, count: int):
    """Seeded shapes up to 8 x 16, led by the 0-row and 0-column ones."""
    for shape in ((0, 0), (0, 5), (5, 0)):
        yield _random_rational_matrix(rng, *shape)
    for _ in range(count):
        yield _random_rational_matrix(rng, rng.randint(1, 8), rng.randint(1, 16))


def _all_fractions(m: RatMatrix) -> bool:
    # matrix_to_json writes str(entry), so a result must hand out Fractions, not ints
    return all(type(x) is Fraction for i in range(m.rows) for x in m.row(i))


def _to_sympy(m: RatMatrix):
    return sympy.Matrix(m.rows, m.cols, lambda i, j: sympy.Rational(m.entry(i, j)))


def _from_sympy(m) -> RatMatrix:
    return RatMatrix(m.rows, m.cols, (Fraction(x.p, x.q) for x in m))


def test_constructors_store_the_canonical_form():
    rng = random.Random("canonical constructors")
    for _ in range(60):
        n = rng.randint(0, 4)
        m = _random_matrix(rng, n, rng.randint(0, 4))
        s, lat = Subspace(n, m), IntLattice(n, m)
        assert s.basis == column_echelon_basis(m)
        assert lat.basis == column_hnf(m)
        # a canonical basis goes through the constructor unchanged
        assert Subspace(n, s.basis).basis == s.basis
        assert IntLattice(n, lat.basis).basis == lat.basis
    assert Subspace(2, _m([[2], [0]])) == Subspace(2, _m([[1], [0]]))


def test_rref_and_rank_match_sympy():
    rng = random.Random(20260822)
    for _ in range(60):
        m = _random_matrix(rng, rng.randint(0, 5), rng.randint(0, 5))
        sy_rref, sy_pivots = _to_sympy(m).rref()
        assert rref(m) == _from_sympy(sy_rref)
        assert rank(m) == len(sy_pivots)
    for m in _rational_draws(rng, 40):
        # low rank too, so that rows cancel to zero mid-elimination
        if m.rows > 1 and rng.random() < 0.3:
            m = _random_rational_matrix(rng, m.rows, 1) @ _random_rational_matrix(rng, 1, m.cols)
        sy_rref, sy_pivots = _to_sympy(m).rref()
        ours = rref(m)
        assert ours == _from_sympy(sy_rref) and _all_fractions(ours)
        assert rank(m) == len(sy_pivots)
    seen = set()
    for m, entries in _workload_shaped_draws(rng):
        sy_rref, sy_pivots = _to_sympy(m).rref()
        assert rref(m) == _from_sympy(sy_rref) and rank(m) == len(sy_pivots)
        full = len(sy_pivots) == min(m.shape)
        seen.add((entries, full))
        if full and m.rows > m.cols:
            seen.add("tall at full column rank")  # the elimination stops early
    assert len(seen) == 5


def _workload_shaped_draws(rng: random.Random):
    """n x 2n, 2n x n and n x n for n <= 8, the shapes the workloads
    eliminate, with integer and with rational entries; about half go
    through Q^k for a k below full rank."""
    for n in range(1, 9):
        for shape in ((n, 2 * n), (2 * n, n), (n, n)):
            for entries, draw in (("integer", _random_matrix),
                                  ("rational", _random_rational_matrix)):
                rows, cols = shape
                if rng.random() < 0.5:
                    k = rng.randint(0, min(shape) - 1)
                    yield draw(rng, rows, k) @ draw(rng, k, cols), entries
                else:
                    yield draw(rng, rows, cols), entries


def test_kernel_matches_sympy_nullspace():
    rng = random.Random(7)
    for _ in range(60):
        m = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        ours = kernel_basis(m)
        null = _to_sympy(m).nullspace()
        if not null:
            assert ours == Subspace.zero(m.cols)
            continue
        theirs = Subspace.span(m.cols, hstack(*[_from_sympy(v) for v in null]))
        assert ours == theirs


def _free_variable_kernel(m: RatMatrix) -> RatMatrix:
    """The kernel as the textbook writes it: eliminate left to right and
    give each free variable its own column, which need not be canonical."""
    r = rref(m)
    pivots = [next(j for j, x in enumerate(r.row(i)) if x)
              for i in range(r.rows) if any(r.row(i))]
    cols = []
    for f in (c for c in range(m.cols) if c not in pivots):
        v = [Fraction(int(c == f)) for c in range(m.cols)]
        for i, p in enumerate(pivots):
            v[p] = -r.entry(i, f)
        cols.append(v)
    return RatMatrix.from_columns(cols, rows=m.cols)


def _rank_deficient_draws(rng: random.Random, count: int):
    """_rational_draws, with about a third of them replaced by a product
    through Q^1 or Q^2 of the same shape."""
    for m in _rational_draws(rng, count):
        if m.rows and m.cols and rng.random() < 0.35:
            k = rng.randint(1, 2)
            m = _random_rational_matrix(rng, m.rows, k) @ _random_rational_matrix(rng, k, m.cols)
        yield m


def test_read_off_canonical_forms_equal_the_two_step_forms():
    """kernel_basis, preimage and the flag cokernel leg read their
    canonical basis off one elimination; each equals what eliminating
    a second time gives, and every Subspace stored without elimination
    equals the constructor's canonical form of the same basis."""
    rng = random.Random("read-off canonical forms")
    not_canonical = 0
    for m in _rank_deficient_draws(rng, 60):
        ours = kernel_basis(m)
        assert column_echelon_basis(ours.basis) == ours.basis
        textbook = _free_variable_kernel(m)
        not_canonical += column_echelon_basis(textbook) != textbook
        assert ours.basis == column_echelon_basis(textbook)
        null = _to_sympy(m).nullspace()
        vectors = hstack(*[_from_sympy(v) for v in null]) if null else RatMatrix.zeros(m.cols, 0)
        assert ours == Subspace.span(m.cols, vectors)

        k = rng.randint(0, m.rows + 1)
        t = Subspace(m.rows, _random_rational_matrix(rng, m.rows, k))
        pre = preimage(m, t)
        assert pre == kernel_basis(complement_rows(t) @ m)
        f = VECTQ.make_morphism(VECTQ.obj(m.cols), VECTQ.obj(m.rows), m)
        assert VECTQ.cokernel_data(f)[1] == complement_rows(image_basis(m))

        n = m.cols
        read_off = [ours, pre, Subspace.zero(n), Subspace.full(n),
                    pushforward(m, Subspace.zero(n))]
        read_off += FILTVECT3.direct_sum_payload(FILTVECT3.random_object(rng, 4),
                                                 FILTVECT3.random_object(rng, 4))[1]
        for s in read_off:
            assert Subspace(s.ambient_dim, s.basis) == s
    # the forward elimination alone is not canonical, so the comparison bites
    assert not_canonical


def test_invert_matches_sympy():
    rng = random.Random("invert against sympy")
    singular = 0
    for _ in range(80):
        n = rng.randint(0, 4)
        if n and rng.random() < 0.3:
            k = rng.randint(0, n - 1)  # a product through Q^k has rank <= k < n
            m = _random_matrix(rng, n, k) @ _random_matrix(rng, k, n)
        else:
            m = _random_matrix(rng, n, n, span=rng.choice((1, 3)))
        sy = _to_sympy(m)
        if sy.det() == 0:
            singular += 1
            assert invert(m) is None
        else:
            assert invert(m) == _from_sympy(sy.inv())
    assert 0 < singular < 80
    for _ in range(30):
        n = rng.randint(0, 8)
        m = _random_rational_matrix(rng, n, n)
        sy = _to_sympy(m)
        inv = invert(m)
        if sy.det() == 0:
            assert inv is None
        else:
            assert inv == _from_sympy(sy.inv()) and _all_fractions(inv)


def test_rank_nullity():
    rng = random.Random(11)
    for _ in range(80):
        m = _random_matrix(rng, rng.randint(0, 6), rng.randint(0, 6))
        assert rank(m) + kernel_basis(m).dim == m.cols


def test_solve_right_finds_constructed_solutions():
    rng = random.Random(13)
    for _ in range(80):
        a = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        x0 = _random_matrix(rng, a.cols, rng.randint(1, 3))
        b = a @ x0
        x = solve_right(a, b)
        assert x is not None
        assert a @ x == b


def _solve_by_elimination(a: RatMatrix, b: RatMatrix) -> RatMatrix | None:
    """a @ x = b through the rref of [a | b]: no solution when a pivot
    lies in the b block, otherwise each pivot row's b part at its pivot
    column and zeros at the free columns."""
    r = rref(hstack(a, b))
    x = [[0] * b.cols for _ in range(a.cols)]
    for i in range(r.rows):
        row = r.row(i)
        lead = next((j for j, v in enumerate(row) if v), None)
        if lead is None:
            break
        if lead >= a.cols:
            return None
        x[lead] = row[a.cols:]
    return RatMatrix.from_rows(x, cols=b.cols)


def _identity_in_unit_rows(rng: random.Random, n: int, k: int) -> RatMatrix:
    """An n x k matrix, k < n, whose rows at k positions after row 0 are
    the unit rows in order, with random rows elsewhere; row 0 has a
    non-zero entry above the unit row of its column, so it is no
    reduced column echelon form."""
    units = sorted(rng.sample(range(1, n), k))
    rows = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(n)]
    for j, i in enumerate(units):
        rows[i] = [int(c == j) for c in range(k)]
    rows[0][rng.randrange(k)] = rng.choice((-2, -1, 1, 2, 3))
    return RatMatrix.from_rows(rows, cols=k)


def _solve_right_systems(rng: random.Random):
    """(family, a) pairs: canonical bases, unit rows under a non-zero
    entry, full-rank and rank-deficient matrices, and empty shapes."""
    for _ in range(60):
        n, k = rng.randint(1, 6), rng.randint(1, 6)
        yield "canonical", Subspace.span(n, _random_matrix(rng, n, k)).basis
        if n > 1:
            yield "unit rows", _identity_in_unit_rows(rng, n, rng.randint(1, n - 1))
        yield "eliminated", _random_matrix(rng, n, k)
        r = rng.randint(0, min(n, k) - 1)
        yield "eliminated", _random_matrix(rng, n, r) @ _random_matrix(rng, r, k)
    for n, k in ((0, 3), (3, 0), (0, 0)):
        yield "shape", RatMatrix.zeros(n, k)


def _with_right_hand_sides(rng: random.Random, systems):
    """(family, a, b) triples: each a with a consistent and a random b."""
    for family, a in systems:
        m = rng.randint(0, 3)
        yield family, a, a @ _random_rational_matrix(rng, a.cols, m)
        yield family, a, _random_rational_matrix(rng, a.rows, m)


def test_solve_right_matches_the_elimination_route():
    """The read-off against a basis with unit rows, and its product
    check, agree with one elimination of [a | b] on every kind of a."""
    rng = random.Random("solve_right read-off")
    outcomes = {}
    for family, a, b in _with_right_hand_sides(rng, _solve_right_systems(rng)):
        x = solve_right(a, b)
        assert x == _solve_by_elimination(a, b)
        outcomes.setdefault(family, set()).add(x is None)
    assert outcomes == {family: {True, False} for family in outcomes}


def test_solve_against_a_canonical_basis_takes_no_elimination(echelons):
    rng = random.Random("solve_right no elimination")
    bases = [Subspace.span(n, _random_matrix(rng, n, rng.randint(0, 5))).basis
             for n in range(6) for _ in range(8)]
    systems = list(_with_right_hand_sides(rng, (("canonical", a) for a in bases)))
    echelons.clear()
    solved = [solve_right(a, b) is not None for _, a, b in systems]
    assert echelons == [] and set(solved) == {True, False}


def test_kernel_vectors_are_killed():
    rng = random.Random(17)
    for _ in range(60):
        m = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        k = kernel_basis(m)
        assert (m @ k.basis).is_zero()


def test_dimension_formula():
    rng = random.Random(19)
    for _ in range(60):
        n = rng.randint(1, 5)
        s = image_basis(_random_matrix(rng, n, rng.randint(0, n)))
        t = image_basis(_random_matrix(rng, n, rng.randint(0, n)))
        assert s.dim + t.dim == s.intersect(t).dim + s.add(t).dim
        assert (s + t).contains(s) and (s + t).contains(t)
        assert s.contains(s.intersect(t)) and t.contains(s.intersect(t))
        zero = Subspace.zero(n)
        assert all(u.contains(zero) for u in (s, t, s + t, s.intersect(t), zero))


def test_pushforward_preimage_adjunction():
    rng = random.Random(23)
    for _ in range(60):
        n, m_dim = rng.randint(1, 4), rng.randint(1, 4)
        f = _random_matrix(rng, m_dim, n)
        s = image_basis(_random_matrix(rng, n, rng.randint(0, n)))
        t = image_basis(_random_matrix(rng, m_dim, rng.randint(0, m_dim)))
        assert t.contains(pushforward(f, preimage(f, t)))
        assert preimage(f, pushforward(f, s)).contains(s)
        assert pushforward(f, Subspace.zero(n)) == Subspace.zero(m_dim)
        # the formula through the quotient coordinates of t, as a reference
        assert preimage(f, t) == kernel_basis(complement_rows(t) @ f)


def test_complement_rows_kernel_is_the_subspace():
    rng = random.Random(29)
    for _ in range(60):
        n = rng.randint(1, 5)
        s = image_basis(_random_matrix(rng, n, rng.randint(0, n)))
        q = complement_rows(s)
        assert q.rows == n - s.dim
        assert kernel_basis(q) == s


def _chain_block(rng: random.Random, dim: int) -> RatMatrix:
    """A generator block for a chain: no columns, zero columns, a
    rank-deficient product, mixed denominators, or enough columns to fill."""
    k = rng.randint(0, dim + 2)
    kind = rng.choice(("empty", "zero", "deficient", "rational", "filling"))
    if kind == "empty":
        return RatMatrix.zeros(dim, 0)
    if kind == "zero":
        return RatMatrix.zeros(dim, k)
    if kind == "deficient":
        r = rng.randint(0, max(dim - 1, 0))
        return _random_matrix(rng, dim, r) @ _random_matrix(rng, r, k)
    if kind == "rational":
        return _random_rational_matrix(rng, dim, k)
    return _random_matrix(rng, dim, dim + rng.randint(0, 2))


def _sympy_column_echelon(m: RatMatrix) -> RatMatrix:
    """The reduced column echelon form of m's column span: sympy's rref of
    m transposed, its non-zero rows taken as columns."""
    r, pivots = _to_sympy(m.transpose()).rref()
    return _from_sympy(r[: len(pivots), :]).transpose()


def test_column_echelon_basis_matches_sympy():
    """One echelon of the columns, which stops once the rank is the row
    count, gives sympy's rref of the transpose, on the workload shapes
    and on every shape with no rows or no columns."""
    rng = random.Random("column echelon against sympy")
    seen = set()
    for m, entries in _workload_shaped_draws(rng):
        ours = column_echelon_basis(m)
        assert ours == _sympy_column_echelon(m)
        full = ours.cols == min(m.shape)
        seen.add((entries, full))
        if ours.cols == m.rows < m.cols:
            seen.add("wide at full row rank")  # the echelon stops early
    assert len(seen) == 5
    for shape in ((0, 0), (0, 3), (3, 0)):
        m = RatMatrix.zeros(*shape)
        assert column_echelon_basis(m) == _sympy_column_echelon(m) == RatMatrix.zeros(shape[0], 0)


def test_nested_spans_match_stacked_spans():
    """Each entry is the canonical span of the blocks so far, as sympy's
    rref of the stacked blocks, transposed, gives it."""
    rng = random.Random("nested spans")
    seen = set()
    for _ in range(400):
        dim = rng.randint(0, 6)
        blocks = [_chain_block(rng, dim) for _ in range(rng.randint(0, 4))]
        spans = nested_spans(dim, blocks)
        assert len(spans) == len(blocks)
        for i, s in enumerate(spans):
            assert s.ambient_dim == dim
            assert s.basis == _sympy_column_echelon(hstack(*blocks[: i + 1]))
        if dim == 0:
            seen.add("dim 0")
        if any(s.dim == dim > 0 for s in spans[:-1]):
            seen.add("filled before the last block")
        if any(b.cols and s.dim == t.dim for b, s, t in zip(blocks[1:], spans, spans[1:])):
            seen.add("a block adding columns but no dimension")
    assert len(seen) == 3
    with pytest.raises(ValueError):
        nested_spans(2, [RatMatrix.zeros(3, 1)])


small_entries = st.integers(min_value=-4, max_value=4)


@st.composite
def matrices(draw, max_dim=4):
    rows = draw(st.integers(min_value=0, max_value=max_dim))
    cols = draw(st.integers(min_value=0, max_value=max_dim))
    data = draw(st.lists(small_entries, min_size=rows * cols, max_size=rows * cols))
    return RatMatrix(rows, cols, (Fraction(x) for x in data))


@given(matrices(), matrices(), st.integers(min_value=0, max_value=4),
       st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(-3, 4)]))
@settings(max_examples=60, deadline=None)
def test_block_diagonal_and_splits_match_the_stacks(a, b, k, c):
    a, b = a.scale(c), b.scale(2)
    assert block_diagonal(a, b) == block_diag(a, b)
    top, bottom = a.split_rows(min(k, a.rows))
    assert (top.rows, bottom.cols) == (min(k, a.rows), a.cols)
    assert vstack(top, bottom) == a
    left, right = a.split_columns(min(k, a.cols))
    assert (left.rows, left.cols) == (a.rows, min(k, a.cols))
    assert hstack(left, right) == a


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_rref_is_idempotent(m):
    r = rref(m)
    assert rref(r) == r


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_canonicalization_is_idempotent(m):
    b = column_echelon_basis(m)
    assert column_echelon_basis(b) == b
    assert image_basis(m) == image_basis(b)


def test_matmul_matches_sympy():
    rng = random.Random("matmul against sympy")
    for _ in range(40):
        a = _random_matrix(rng, rng.randint(0, 3), rng.randint(0, 3))
        b = _random_matrix(rng, a.cols, rng.randint(0, 3))
        assert a @ b == _from_sympy(_to_sympy(a) @ _to_sympy(b))
    shapes = [(0, 3, 4), (4, 3, 0), (3, 0, 4), (0, 0, 0), (2, 0, 0)]  # (n, k, m)
    shapes += [(rng.randint(1, 8), rng.randint(1, 16), rng.randint(1, 8)) for _ in range(40)]
    for n, k, m in shapes:
        a, b = _random_rational_matrix(rng, n, k), _random_rational_matrix(rng, k, m)
        ours = a @ b
        assert ours == _from_sympy(_to_sympy(a) @ _to_sympy(b)) and _all_fractions(ours)
    assert RatMatrix.zeros(2, 0) @ RatMatrix.zeros(0, 3) == RatMatrix.zeros(2, 3)


def test_products_and_eliminations_do_no_fraction_arithmetic(monkeypatch):
    """rref, rank, solve_right and @ compute on integer numerators; a
    Fraction operator call means a scalar loop is back."""
    rng = random.Random("no fraction arithmetic")
    mats = list(_rational_draws(rng, 20))
    pairs = [(a, _random_rational_matrix(rng, a.cols, rng.randint(0, 4))) for a in mats]
    systems = [(a, a @ x) for a, x in pairs]
    calls = []
    for name in ("add", "sub", "mul", "truediv"):
        for dunder in (f"__{name}__", f"__r{name}__"):
            real = getattr(Fraction, dunder)
            monkeypatch.setattr(Fraction, dunder,
                                lambda *args, _real=real, _name=dunder:
                                calls.append(_name) or _real(*args))
    for m in mats:
        rref(m)
        rank(m)
    for a, x in pairs:
        a @ x
    for a, b in systems:
        assert solve_right(a, b) is not None
    assert calls == []
    Fraction(1) + Fraction(2)  # the counters are live
    assert calls == ["__add__"]


def test_linear_algebra_and_lattice_build_no_fractions(monkeypatch):
    """Matrices hold integer numerators over one denominator, so the
    products, eliminations, stacks and Hermite forms never build a Fraction."""
    rng = random.Random("no fractions built")
    mats = list(_rational_draws(rng, 20))
    pairs = [(a, _random_rational_matrix(rng, a.cols, rng.randint(0, 4))) for a in mats]
    systems = [(a, a @ x) for a, x in pairs]
    integral = [_random_matrix(rng, rng.randint(0, 5), rng.randint(0, 6)) for _ in range(20)]
    built = []
    real_new = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__",
                        lambda cls, *args, **kw: built.append(args) or real_new(cls, *args, **kw))
    for a, x in pairs:
        a @ x
    for a, b in systems:
        assert solve_right(a, b) is not None
    for m in mats:
        rref(m)
        rank(m)
        column_echelon_basis(m)
        kernel_basis(m)
        Subspace(m.rows, m)
        hstack(m, m)
        vstack(m, m)
        m.transpose()
    for m in integral:
        column_hnf(m)
        integer_kernel(m)
    assert built == []
    Fraction(1, 2)  # the counter is live
    assert built == [(1, 2)]


def _lowest_terms(m: RatMatrix) -> bool:
    return m._den > 0 and gcd(m._den, *m._num) == 1


def test_stored_form_is_canonical():
    """Every route to a matrix stores the same numerators and denominator."""
    rng = random.Random("canonical storage")
    cases = [RatMatrix.zeros(0, 3), RatMatrix.zeros(3, 0), RatMatrix.zeros(0, 0),
             _m([[Fraction(1, 6), Fraction(1, 10), Fraction(1, 15)]]),
             # 1/2 * 2 + 1/3 * 3: the product's denominator 6 cancels to 1
             _m([["1/2", "1/3"]]) @ _m([[2], [3]])]
    for _ in range(40):
        rows, cols = rng.randint(0, 4), rng.randint(0, 4)
        cases.append(RatMatrix(rows, cols, [
            Fraction(rng.randint(-9, 9), rng.choice((1, 2, 6, 10, 15)))
            if rng.random() < 0.7 else 0 for _ in range(rows * cols)]))
    assert cases[4] == _m([[2]]) and cases[4].is_integral()
    for m in cases:
        grid = [m.row(i) for i in range(m.rows)]
        c = Fraction(rng.choice((-7, -1, 3, 4)), rng.choice((1, 6, 10, 15)))
        k, r = rng.randint(0, m.cols), rng.randint(0, m.rows)
        routes = [
            RatMatrix.from_rows(grid, cols=m.cols),
            m @ RatMatrix.identity(m.cols),
            m.transpose().transpose(),
            m.scale(c).scale(1 / c),
            hstack(RatMatrix.from_rows([row[:k] for row in grid], cols=k),
                   RatMatrix.from_rows([row[k:] for row in grid], cols=m.cols - k)),
            vstack(RatMatrix.from_rows(grid[:r], cols=m.cols),
                   RatMatrix.from_rows(grid[r:], cols=m.cols)),
            vstack(m, RatMatrix.zeros(1, m.cols)).delete_row(m.rows),
            vstack(RatMatrix.zeros(1, m.cols), m).delete_row(0),
            matrix_from_json(matrix_to_json(m)),
        ]
        for other in routes:
            assert other == m and hash(other) == hash(m) and _lowest_terms(other)
        entries = [x for row in grid for x in row]
        assert m.is_integral() == all(x.denominator == 1 for x in entries)
        assert m.is_zero() == all(x == 0 for x in entries)
    assert RatMatrix.zeros(2, 3).scale(Fraction(1, 6)) == RatMatrix.zeros(2, 3)


def test_constructor_refuses_entries_that_are_not_ints_or_fractions():
    for bad in (0.5, True, "1/2", None):
        with pytest.raises(TypeError):
            RatMatrix(1, 2, [1, bad])
    with pytest.raises(TypeError):
        RatMatrix(1, 2, [0.5, True])
    assert RatMatrix(1, 2, [1, Fraction(1, 2)]) == _m([[1, "1/2"]])


def test_ragged_and_string_rows_and_columns_are_refused():
    # a short column after a long one, or a long one after a short one,
    # once dropped an entry or raised IndexError; a string row read its
    # characters as entries
    for call in (lambda: RatMatrix.from_columns([[1], [2, 3]]),
                 lambda: RatMatrix.from_columns([[1, 2], [3]]),
                 lambda: RatMatrix.from_columns(["12"]),
                 lambda: Subspace.span(1, [[1], [2, 3]]),
                 lambda: RatMatrix.from_rows([[1], [2, 3]]),
                 lambda: RatMatrix.from_rows(["12"]),
                 lambda: RatMatrix.from_rows([[1, 2], "34"])):
        with pytest.raises(ValueError):
            call()
    assert RatMatrix.from_columns([[1, 2], [3, 4]]) == _m([[1, 3], [2, 4]])
    assert RatMatrix.from_columns([], rows=3) == RatMatrix.zeros(3, 0)
    assert RatMatrix.from_columns([[], []]) == RatMatrix.zeros(0, 2)


# ------------------------------------------------------------ round trips

def test_matrix_json_round_trip():
    m = _m([[Fraction(1, 2), 3], [0, Fraction(-7, 5)]])
    assert matrix_from_json(matrix_to_json(m)) == m
    empty = RatMatrix.zeros(0, 2)
    assert matrix_from_json(matrix_to_json(empty)) == empty


def test_subspace_json_round_trip():
    s = _span(3, (1, 2, 0), (0, 0, 1))
    assert subspace_from_json(subspace_to_json(s)) == s


def test_matrix_json_rejects_garbage():
    with pytest.raises(ValueError):
        matrix_from_json({"rows": 2, "cols": 2, "entries": [["1", "2"]]})
    with pytest.raises(ValueError):
        matrix_from_json({"rows": "2"})
    with pytest.raises(ValueError):
        matrix_from_json({"rows": 1, "cols": 1, "entries": [["1/0"]]})
    with pytest.raises(ValueError):
        matrix_from_json({"rows": True, "cols": 1, "entries": [["1"]]})
    with pytest.raises(ValueError):
        matrix_from_json({"rows": 1, "cols": True, "entries": [["1"]]})
    with pytest.raises(ValueError):
        matrix_from_json({"rows": 1, "cols": 1, "entries": [[True]]})
    with pytest.raises(ValueError):
        matrix_from_json({"rows": 1, "cols": 1, "entries": [[1.5]]})
    # only integers and ratios of integers; decimal and exponent strings
    # would otherwise reach Fraction, which builds 10**n for "1en"
    for text in ("1e3", "1E3", "2.5"):
        with pytest.raises(ValueError):
            matrix_from_json({"rows": 1, "cols": 1, "entries": [[text]]})
    with pytest.raises(ValueError):
        matrix_from_json({"rows": 1, "cols": 1, "entries": 7})
    # strings and objects have a length and iterate, but are not rows
    with pytest.raises(ValueError):
        matrix_from_json({"rows": 1, "cols": 2, "entries": ["12"]})
    with pytest.raises(ValueError):
        matrix_from_json({"rows": 1, "cols": 2, "entries": [{"1": 0, "2": 0}]})
    with pytest.raises(ValueError):
        matrix_from_json({"rows": 1, "cols": 1, "entries": "1"})
    with pytest.raises(ValueError):
        matrix_from_json({"rows": 1, "cols": 1, "entries": {"1": ["1"]}})
    # a declared dimension above MAX_DIM, even with no entries to read
    for rows, cols in ((0, MAX_DIM + 1), (MAX_DIM + 1, 0), (0, 10**9)):
        with pytest.raises(ValueError):
            matrix_from_json({"rows": rows, "cols": cols, "entries": [[]] * rows})
    assert matrix_from_json({"rows": 0, "cols": MAX_DIM, "entries": []}).shape == (0, MAX_DIM)
