"""Integer lattice tests: Hermite form, integer kernels, Smith form, saturation.

Frozen cases were computed by hand; randomized sections cross-check
against sympy's normal form routines, which share no code with ours,
and against reference copies of the one-loop Hermite form and of the
kernel read off the Hermite form of [m; I].
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form

from preab.lattice import (
    IntLattice,
    column_hnf,
    elementary_divisors,
    integer_kernel,
    pure_quotient_rows,
    saturate,
    smith_with_transforms,
)
from preab.linalg import RatMatrix, invert, matrix_from_json, matrix_to_json, rank, vstack


def _m(rows, cols=None):
    return RatMatrix.from_rows(rows, cols=cols)


def _lat(ambient, *cols):
    return IntLattice.span(ambient, RatMatrix.from_columns(list(cols), rows=ambient))


def is_saturated(l: IntLattice) -> bool:
    return saturate(l) == l


def lattice_to_json(l: IntLattice) -> dict:
    return {"ambient_dim": l.ambient_dim, "basis": matrix_to_json(l.basis)}


def lattice_from_json(obj: dict) -> IntLattice:
    return IntLattice.span(obj["ambient_dim"], matrix_from_json(obj["basis"]))


# ---------------------------------------------------------------- frozen

def test_hnf_gcd_of_colinear_generators():
    # 2Z + 3Z = Z, worked by Euclid
    assert _lat(1, (2,), (3,)).basis == _m([[1]])


def test_hnf_index_six_sublattice():
    assert _lat(2, (2, 1), (0, 3)).basis == _m([[2, 0], [1, 3]])


def test_hnf_drops_dependent_generators():
    l = _lat(2, (1, 1), (2, 2), (3, 3))
    assert l.basis == _m([[1], [1]])
    assert l.rank == 1


def test_membership():
    l = _lat(2, (2, 1), (0, 3))
    assert l.member(_m([[2], [1]]))
    assert l.member(_m([[2], [4]]))
    assert not l.member(_m([[1], [2]]))


def test_saturate_doubling():
    assert saturate(_lat(1, (2,))) == IntLattice.full(1)


def test_saturate_primitive_direction():
    assert saturate(_lat(2, (2, 4))) == _lat(2, (1, 2))


def test_saturate_already_saturated_line():
    # (2,1) is primitive even though its pivot entry is 2
    l = _lat(2, (2, 1))
    assert is_saturated(l)
    assert saturate(l) == l


def test_smith_diagonal_two_three():
    assert elementary_divisors(_m([[2, 0], [0, 3]])) == [1, 6]


def test_smith_rank_one():
    assert elementary_divisors(_m([[2, 4], [4, 8]])) == [2]


def test_quotient_rows_of_skew_line():
    # Z^2 / <(2,1)> is free; the projection must kill (2,1) and be onto
    q = pure_quotient_rows(_lat(2, (2, 1)).basis)
    assert q.rows == 1 and q.cols == 2
    assert (q @ _m([[2], [1]])).is_zero()
    assert abs(q.entry(0, 0)) + abs(q.entry(0, 1)) > 0


def test_quotient_rows_rejects_unsaturated():
    with pytest.raises(ValueError):
        pure_quotient_rows(_lat(1, (2,)).basis)


def test_zero_and_full_edges():
    z = IntLattice.zero(3)
    assert saturate(z) == z
    assert pure_quotient_rows(z.basis) == RatMatrix.identity(3)
    f = IntLattice.full(2)
    assert pure_quotient_rows(f.basis).rows == 0
    assert IntLattice.span(0, RatMatrix.zeros(0, 0)).rank == 0


# ------------------------------------------------------------- properties

def _random_int_matrix(rng, rows, cols, span=4):
    return RatMatrix(rows, cols, (Fraction(rng.randint(-span, span)) for _ in range(rows * cols)))


def test_hnf_is_unimodular_invariant():
    # canonical form must not depend on the presentation of the lattice
    rng = random.Random(101)
    for _ in range(50):
        n, k = rng.randint(1, 4), rng.randint(1, 4)
        m = _random_int_matrix(rng, n, k)
        h = column_hnf(m)
        shuffled = list(range(k))
        rng.shuffle(shuffled)
        cols = [list(m.column(j)) for j in shuffled]
        # a few random integer column shears preserve the span over Z
        for _ in range(4):
            i, j = rng.randrange(k), rng.randrange(k)
            if i != j:
                c = rng.randint(-2, 2)
                cols[i] = [a + c * b for a, b in zip(cols[i], cols[j])]
        m2 = RatMatrix.from_columns(cols, rows=n)
        assert column_hnf(m2) == h


def test_hnf_spans_same_lattice():
    rng = random.Random(103)
    for _ in range(50):
        n, k = rng.randint(1, 4), rng.randint(0, 4)
        m = _random_int_matrix(rng, n, k)
        l = IntLattice.span(n, m)
        for j in range(k):
            assert l.member(RatMatrix(n, 1, m.column(j)))


def test_smith_transform_identity():
    rng = random.Random(107)
    for _ in range(60):
        m = _random_int_matrix(rng, rng.randint(0, 4), rng.randint(0, 4))
        u, d, v = smith_with_transforms(m)
        assert u @ m @ v == d
        # u is unimodular: its inverse exists and is integral
        uinv = invert(u)
        assert uinv is not None and uinv.is_integral()
        # diagonal, non-negative, divisibility chain
        for i in range(d.rows):
            for j in range(d.cols):
                if i != j:
                    assert d.entry(i, j) == 0
        diag = [d.entry(i, i) for i in range(min(d.rows, d.cols))]
        assert all(x >= 0 for x in diag)
        for a, b in zip(diag, diag[1:]):
            if a != 0 and b != 0:
                assert b % a == 0


def test_smith_divisors_match_sympy():
    rng = random.Random(109)
    for _ in range(40):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        m = _random_int_matrix(rng, rows, cols)
        sy = sympy.Matrix(rows, cols, lambda i, j: int(m.entry(i, j)))
        d = smith_normal_form(sy)
        theirs = sorted(abs(d[i, i]) for i in range(min(rows, cols)) if d[i, i] != 0)
        assert sorted(elementary_divisors(m)) == theirs


def test_integer_kernel_matches_sympy():
    rng = random.Random(131)
    generic = (_random_int_matrix(rng, rng.randint(0, 5), rng.randint(0, 5)) for _ in range(60))
    for m in itertools.chain(generic, _oracle_matrices(151, 120)):
        k = integer_kernel(m)
        assert k.rows == m.cols and k.is_integral()
        assert (m @ k).is_zero()
        sy = sympy.Matrix(m.rows, m.cols, lambda i, j: int(m.entry(i, j)))
        nullity = len(sy.nullspace())
        assert k.cols == nullity == m.cols - sy.rank()
        if nullity:
            assert sympy.Matrix(k.rows, k.cols, lambda i, j: int(k.entry(i, j))).rank() == nullity
        # a Z-basis of the kernel, not a finite-index sublattice of it
        assert all(x == 1 for x in elementary_divisors(k))


def test_integer_kernel_basis_is_its_own_hnf():
    # LatZBackend.kernel_data hands this basis on as canonical, unreduced
    rng = random.Random(137)
    deficient = 0
    for i in range(300):
        rows, cols = rng.randint(0, 5), rng.randint(0, 6)
        if i % 2:
            inner = rng.randint(0, min(rows, cols))
            m = _random_int_matrix(rng, rows, inner) @ _random_int_matrix(rng, inner, cols)
        else:
            m = _random_int_matrix(rng, rows, cols)
        deficient += rank(m) < min(rows, cols)
        k = integer_kernel(m)
        assert column_hnf(k) == k
    assert deficient > 50
    # every vector is killed by a zero matrix, empty or not
    for rows, cols in ((0, 0), (0, 4), (3, 0), (1, 1), (3, 4), (4, 2)):
        assert integer_kernel(RatMatrix.zeros(rows, cols)) == RatMatrix.identity(cols)


def test_saturate_wide_index_sublattice_returns(ten_second_alarm):
    # rank 3 in Z^8 with large coefficients, reached by a latz pullback;
    # Smith elimination on this basis grows its entries about sixfold per
    # pass, so saturation must not go through it
    rows = [[151, 0, 0], [0, 151, 0], [0, 0, 151], [375, 226, -303], [416, 204, -196],
            [-589, -148, 308], [-676, -256, 394], [189, 219, -166]]
    l = IntLattice.span(8, _m(rows))
    s = saturate(l)
    assert s.rank == 3
    assert s.contains(l)


def test_saturation_properties():
    rng = random.Random(113)
    for _ in range(50):
        n, k = rng.randint(1, 4), rng.randint(0, 4)
        l = IntLattice.span(n, _random_int_matrix(rng, n, k))
        s = saturate(l)
        assert s.contains(l)
        assert s.rank == l.rank
        assert saturate(s) == s
        # quotient by the saturation is torsion-free: scaled membership
        # implies membership
        for _ in range(5):
            v = _random_int_matrix(rng, n, 1)
            c = rng.randint(2, 4)
            if s.member(v.scale(c)):
                assert s.member(v)


def test_quotient_rows_properties():
    rng = random.Random(127)
    for _ in range(50):
        n, k = rng.randint(1, 4), rng.randint(0, 3)
        s = saturate(IntLattice.span(n, _random_int_matrix(rng, n, k)))
        q = pure_quotient_rows(s.basis)
        assert q.rows == n - s.rank
        if s.rank:
            assert (q @ s.basis).is_zero()
        assert rank(q) == q.rows
        # surjectivity over Z: q extends to a unimodular matrix, so the
        # standard basis vectors must be hit; check via Smith divisors
        if q.rows:
            assert all(x == 1 for x in elementary_divisors(q))


def test_lattice_json_round_trip():
    l = _lat(3, (2, 1, 0), (0, 0, 5))
    assert lattice_from_json(lattice_to_json(l)) == l


# ------------------------------------------------------ reference oracles

def _reference_column_hnf(m):
    """Column Hermite form as a single loop over all columns, the form
    the shared Hermite core must reproduce byte for byte."""
    nrows, ncols = m.rows, m.cols
    cols = [[int(x) for x in m.column(j)] for j in range(ncols)]
    done = 0
    for i in range(nrows):
        active = [j for j in range(done, ncols) if cols[j][i] != 0]
        if not active:
            continue
        # gcd-eliminate row i across the active columns
        while True:
            active = [j for j in range(done, ncols) if cols[j][i] != 0]
            if len(active) <= 1:
                break
            jmin = min(active, key=lambda j: abs(cols[j][i]))
            pivot = cols[jmin][i]
            for j in active:
                if j == jmin:
                    continue
                q = cols[j][i] // pivot
                cols[j] = [a - q * b for a, b in zip(cols[j], cols[jmin])]
        j = [j for j in range(done, ncols) if cols[j][i] != 0][0]
        cols[done], cols[j] = cols[j], cols[done]
        if cols[done][i] < 0:
            cols[done] = [-a for a in cols[done]]
        pivot = cols[done][i]
        for j in range(done):
            q = cols[j][i] // pivot
            if q:
                cols[j] = [a - q * b for a, b in zip(cols[j], cols[done])]
        done += 1
    kept = cols[:done]
    return RatMatrix(nrows, done, [c[i] for i in range(nrows) for c in kept])


def _reference_kernel(m):
    """The columns of the Hermite form of [m; I] with zero top block
    carry a basis of the kernel of m in their bottom block."""
    h = _reference_column_hnf(vstack(m, RatMatrix.identity(m.cols)))
    keep = [j for j in range(h.cols) if not any(h.column(j)[: m.rows])]
    return RatMatrix.from_columns([h.column(j)[m.rows :] for j in keep], rows=m.cols)


def _identical(a, b):
    return a.shape == b.shape and a._num == b._num and a._den == b._den


def _oracle_matrices(seed, count):
    """Integer matrices of every shape class the kernel and the Hermite
    form branch on, with entries up to 10^6 in size."""
    for rows, cols in ((0, 0), (0, 3), (3, 0), (2, 4), (4, 2)):
        yield RatMatrix.zeros(rows, cols)
    rng = random.Random(seed)
    for i in range(count):
        rows, cols = rng.randint(1, 5), rng.randint(1, 6)
        span = (1, 4, 40, 10**6)[i % 4]
        kind = i % 3
        if kind == 0:  # generic
            m = _random_int_matrix(rng, rows, cols, span)
        elif kind == 1:  # duplicated and scaled rows
            base = _random_int_matrix(rng, rng.randint(1, rows), cols, span)
            picks = [rng.randrange(base.rows) for _ in range(rows)]
            m = RatMatrix.from_rows(
                [[rng.choice((-3, -1, 1, 2)) * x for x in base.row(p)] for p in picks])
        else:  # full column rank: a triangle with nonzero diagonal on top
            cols = min(rows, cols)
            top = [[rng.randint(1, span) * rng.choice((-1, 1)) if a == b else
                    rng.randint(-span, span) if a < b else 0 for b in range(cols)]
                   for a in range(cols)]
            rest = [[rng.randint(-span, span) for _ in range(cols)] for _ in range(rows - cols)]
            grid = top + rest
            rng.shuffle(grid)
            m = RatMatrix.from_rows(grid, cols=cols)
            assert rank(m) == cols
        yield m


def test_integer_kernel_matches_reference_kernel():
    for m in _oracle_matrices(139, 600):
        assert _identical(integer_kernel(m), _reference_kernel(m))


def test_column_hnf_matches_reference_hnf():
    for m in _oracle_matrices(149, 600):
        for g in (m, m.transpose()):
            assert _identical(column_hnf(g), _reference_column_hnf(g))


def test_integer_kernel_rejects_non_integral_input():
    for f in (integer_kernel, column_hnf):
        with pytest.raises(ValueError):
            f(_m([[1, "1/2"]]))
