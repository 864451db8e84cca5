"""Exact integer lattice arithmetic.

Finitely generated subgroups of Z^n are represented by a basis matrix
in a column-style Hermite normal form, which is unique per subgroup and
therefore usable for equality tests.  One Hermite core computes it, for
:func:`column_hnf` and for integer kernels.  An integer kernel takes two
phases on the columns of [m; I]: gcd column steps clear the rows of m
and set aside each column that takes a pivot, and the core then puts
the bottom parts of the other columns, a Z-basis of the kernel, into
Hermite form.  Kernels give saturations; the Smith normal form (with its
row transform) supplies torsion-free quotient projections.  Together
they take kernels and cokernels of integer matrices inside the category
of finitely generated free abelian groups.

All matrices are :class:`preab.linalg.RatMatrix` values with
denominator 1; the routines read and build their integer numerators
directly, and everything stays exact.
"""

from __future__ import annotations

from .linalg import RatMatrix, solve_right


def _numerators(m: RatMatrix) -> tuple[int, ...]:
    if not m.is_integral():
        raise ValueError("matrix has non-integer entries")
    return m._num


def _int_grid(m: RatMatrix) -> list[list[int]]:
    num, n = _numerators(m), m.cols
    return [list(num[i * n : (i + 1) * n]) for i in range(m.rows)]


def _grid_matrix(grid: list[list[int]], rows: int, cols: int) -> RatMatrix:
    return RatMatrix._of(rows, cols, [x for row in grid for x in row])


def _gcd_row(cols: list[list[int]], start: int, i: int) -> int | None:
    """Gcd-eliminate row ``i`` across ``cols[start:]`` by integer column
    steps; return the index of the one column left nonzero there, if any."""
    while True:
        active = [j for j in range(start, len(cols)) if cols[j][i]]
        if len(active) <= 1:
            return active[0] if active else None
        jmin = min(active, key=lambda j: abs(cols[j][i]))
        pivot = cols[jmin][i]
        for j in active:
            if j != jmin:
                q = cols[j][i] // pivot
                cols[j] = [a - q * b for a, b in zip(cols[j], cols[jmin])]


def _hnf_cols(cols: list[list[int]], nrows: int) -> RatMatrix:
    """Column Hermite form of the integer columns ``cols`` of height ``nrows``.

    Consumes ``cols``.  Row by row: gcd-eliminate the row across the
    columns not yet holding a pivot, move the survivor into place, make
    its pivot positive and reduce the entries to its left into [0, pivot).
    """
    done = 0
    for i in range(nrows):
        j = _gcd_row(cols, done, i)
        if j is None:
            continue
        c = cols[j]
        cols[j] = cols[done]
        if c[i] < 0:
            c = [-a for a in c]
        cols[done] = c
        pivot = c[i]
        for k in range(done):
            q = cols[k][i] // pivot  # floor division puts the entry in [0, pivot)
            if q:
                cols[k] = [a - q * b for a, b in zip(cols[k], c)]
        done += 1
    kept = cols[:done]
    return RatMatrix._of(nrows, done, [c[i] for i in range(nrows) for c in kept])


def column_hnf(m: RatMatrix) -> RatMatrix:
    """Canonical basis of the column span of ``m`` over Z.

    The result has full column rank, pivot rows strictly increasing,
    positive pivots, zero entries to the right of each pivot, and the
    entries to the left of a pivot reduced into [0, pivot).  It depends
    only on the generated subgroup, so it decides lattice equality.
    """
    num, n = _numerators(m), m.cols
    return _hnf_cols([list(num[j::n]) for j in range(n)], m.rows)


def integer_kernel(m: RatMatrix) -> RatMatrix:
    """Z-basis of {x in Z^cols : m @ x == 0}, in column Hermite form.

    Two phases on the columns of [m; I].  First each row of m is
    gcd-eliminated across the columns that hold no pivot yet, and a
    column that takes a pivot is set aside untouched.  The column steps
    are unimodular and the pivot columns' top parts are independent, so
    the kernel vectors lie exactly in the span of the columns without a
    pivot: their bottom parts are a Z-basis of the kernel, and its
    Hermite form is returned (Cohen, A Course in Computational Algebraic
    Number Theory, 2.4.3).

    >>> integer_kernel(RatMatrix.from_rows([[2, 4]]))
    RatMatrix[2; -1]
    """
    r, n, num = m.rows, m.cols, _numerators(m)
    cols = [list(num[j::n]) + [0] * j + [1] + [0] * (n - 1 - j) for j in range(n)]
    done = 0
    for i in range(r):
        j = _gcd_row(cols, done, i)
        if j is not None:
            cols[j] = cols[done]  # the pivot column is set aside for good
            done += 1
    return _hnf_cols([c[r:] for c in cols[done:]], n)


def smith_with_transforms(m: RatMatrix) -> tuple[RatMatrix, RatMatrix, RatMatrix]:
    """Smith normal form: returns (u, d, v) with u @ m @ v == d.

    ``u`` and ``v`` are unimodular and ``d`` is diagonal with
    non-negative entries satisfying d[i] | d[i+1].
    """
    nrows, ncols = m.rows, m.cols
    a = _int_grid(m)
    u = [[int(i == j) for j in range(nrows)] for i in range(nrows)]
    v = [[int(i == j) for j in range(ncols)] for i in range(ncols)]

    def row_op(i, k, q):  # row i -= q * row k
        a[i] = [x - q * y for x, y in zip(a[i], a[k])]
        u[i] = [x - q * y for x, y in zip(u[i], u[k])]

    def row_swap(i, k):
        a[i], a[k] = a[k], a[i]
        u[i], u[k] = u[k], u[i]

    def row_negate(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    def col_op(j, k, q):  # col j -= q * col k
        for r in range(nrows):
            a[r][j] -= q * a[r][k]
        for r in range(ncols):
            v[r][j] -= q * v[r][k]

    def col_swap(j, k):
        for r in range(nrows):
            a[r][j], a[r][k] = a[r][k], a[r][j]
        for r in range(ncols):
            v[r][j], v[r][k] = v[r][k], v[r][j]

    t = 0
    while t < min(nrows, ncols):
        # choose the smallest nonzero entry in the trailing block as pivot
        best = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        row_swap(t, best[0])
        col_swap(t, best[1])
        while True:
            dirty = False
            for i in range(t + 1, nrows):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    row_op(i, t, q)
                    if a[i][t]:
                        row_swap(t, i)
                        dirty = True
            for j in range(t + 1, ncols):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    col_op(j, t, q)
                    if a[t][j]:
                        col_swap(t, j)
                        dirty = True
            # with no swap, every op cleared its entry: column t and row t are zero
            if not dirty:
                break
        if a[t][t] < 0:
            row_negate(t)
        # the pivot must divide the rest of the block; if not, fold the
        # offending row in and redo this position
        offender = None
        for i in range(t + 1, nrows):
            for j in range(t + 1, ncols):
                if a[i][j] % a[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_op(t, offender, -1)
            continue
        t += 1
    return (
        _grid_matrix(u, nrows, nrows),
        _grid_matrix(a, nrows, ncols),
        _grid_matrix(v, ncols, ncols),
    )


def elementary_divisors(m: RatMatrix) -> list[int]:
    _, d, _ = smith_with_transforms(m)
    out = []
    for i in range(min(d.rows, d.cols)):
        x = d._num[i * d.cols + i]
        if x != 0:
            out.append(x)
    return out


class IntLattice:
    """A finitely generated subgroup of Z^n in canonical basis form.

    The constructor takes any n x k integer generating matrix and stores
    its column Hermite normal form, so every IntLattice is canonical and
    equality of values is equality of subgroups.
    """

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim: int, basis: RatMatrix):
        if basis.rows != ambient_dim:
            raise ValueError("basis does not live in the stated ambient group")
        self.ambient_dim = ambient_dim
        self.basis = column_hnf(basis)

    @classmethod
    def span(cls, ambient_dim: int, generators: RatMatrix) -> "IntLattice":
        return cls(ambient_dim, generators)

    @classmethod
    def zero(cls, ambient_dim: int) -> "IntLattice":
        return cls(ambient_dim, RatMatrix.zeros(ambient_dim, 0))

    @classmethod
    def full(cls, ambient_dim: int) -> "IntLattice":
        return cls(ambient_dim, RatMatrix.identity(ambient_dim))

    @property
    def rank(self) -> int:
        return self.basis.cols

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntLattice):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.basis == other.basis

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self.basis))

    def __repr__(self) -> str:
        return f"IntLattice(rank {self.rank} in Z^{self.ambient_dim})"

    def member(self, v: RatMatrix) -> bool:
        """Is the integer column vector ``v`` in this subgroup?"""
        x = solve_right(self.basis, v)
        return x is not None and x.is_integral()

    def contains(self, other: "IntLattice") -> bool:
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient groups differ")
        if other.rank == 0:
            return True
        x = solve_right(self.basis, other.basis)
        return x is not None and x.is_integral()


def saturate(l: IntLattice) -> IntLattice:
    """Smallest subgroup containing ``l`` with torsion-free quotient.

    Computes span_Q(l) intersected with Z^n as the integer kernel of the
    integer annihilator of ``l``.  Idempotent and inflationary; the
    result has the same rank as ``l``.
    """
    annihilator = integer_kernel(l.basis.transpose())
    return IntLattice(l.ambient_dim, integer_kernel(annihilator.transpose()))


def pure_quotient_rows(basis: RatMatrix) -> RatMatrix:
    """Projection matrix q: Z^n -> Z^(n-rank) whose kernel is the span of ``basis``.

    ``basis`` is the column-HNF basis of a saturated lattice in Z^n (as
    ``saturate(l).basis`` or ``integer_kernel`` returns it), so the
    quotient is free and q can be taken surjective; q consists of rows
    of a unimodular matrix.
    """
    n = basis.rows
    if basis.cols == 0:
        return RatMatrix.identity(n)
    u, d, _ = smith_with_transforms(basis)
    diagonal = [d._num[i * d.cols + i] for i in range(min(d.rows, d.cols))]
    divisors = [x for x in diagonal if x != 0]
    if any(x != 1 for x in divisors):
        raise ValueError("lattice is not saturated; saturate it first")
    r = len(divisors)
    return RatMatrix._of(n - r, n, u._num[r * n :])
