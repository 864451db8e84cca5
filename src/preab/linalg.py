"""Exact linear algebra over the rationals.

A matrix stores its entries as Python int numerators over one positive
common denominator, in lowest terms, so results are exact and no
floating point is used anywhere.  Products, row reductions, stacks and
transposes compute on the numerators and reduce by one gcd at the end;
:class:`fractions.Fraction` values are built only at the API and JSON
boundary, where entries go in or come out.  Matrices are immutable and
row-major.  Every row reduction runs through one core: integer rows are
absorbed one at a time into an echelon (:func:`_absorb`), whose rows
over their pivots are the rref.  Subspaces of Q^n are kept in a
canonical basis (reduced column echelon form), which makes subspace
equality a plain ``==``.  A kernel's canonical basis is read off one
elimination, of the matrix with its columns in reverse order, and so
are preimages and quotient coordinates; the zero and full subspaces
need no elimination at all.

>>> m = RatMatrix.from_rows([[2, 4], [1, 2]])
>>> rref(m) == RatMatrix.from_rows([[1, 2], [0, 0]])
True
"""

from __future__ import annotations

import re
from bisect import bisect
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence


# the only string forms written for a rational: "-3", "3/4", ...
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")

# the largest dimension a JSON input may declare.  It bounds the shapes
# an input can declare, not the time: a dense input far below it can
# still run for minutes.  With entries in -3..3 on a 2-CPU machine, a
# dense 80x160 vectq decompose takes 1.4 s and a dense 30x60 latz one
# 0.6 s, but a dense 40x80 latz one runs over a minute and then fails:
# its coimage has an entry of over 6,000 digits, past Python's str limit
MAX_DIM = 512


def check_declared_dim(n, what: str) -> None:
    """Raise ValueError when ``n`` is an integer above :data:`MAX_DIM`."""
    if isinstance(n, int) and n > MAX_DIM:
        raise ValueError(f"{what} {n} is above the limit of {MAX_DIM}")


def frac(x) -> Fraction:
    """Coerce ints, strings like ``"3/4"``, and Fractions to Fraction.

    Any other type, bool included, is a TypeError.  A string must be an
    optional sign and digits, optionally over ``/digits``; anything else,
    such as ``"1e3"``, ``"2.5"`` or ``"1/0"``, is a ValueError.  Decimal
    and exponent forms are refused because ``"1e999999999"`` would build
    an integer of a billion digits.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str) and not _RATIONAL.fullmatch(x):
        raise ValueError(f"{x!r} is not an integer or a ratio of integers")
    if isinstance(x, (int, str)) and not isinstance(x, bool):
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"{x!r} has a zero denominator") from None
    raise TypeError(f"cannot interpret {x!r} as a rational number")


class RatMatrix:
    """An immutable rows x cols matrix over Q.

    The entries are stored as integer numerators ``_num`` (row-major)
    over one denominator ``_den > 0``, in lowest terms: the gcd of
    ``_den`` and every numerator is 1, so a zero matrix has ``_den == 1``
    and equal matrices have equal storage.  Fractions are built only
    where entries leave the matrix (:meth:`entry`, :meth:`row`,
    :meth:`column`, ``repr`` and JSON).  Zero-row and zero-column shapes
    are fully supported; they show up naturally as maps to and from
    zero-dimensional spaces.
    """

    __slots__ = ("rows", "cols", "_num", "_den")

    def __init__(self, rows: int, cols: int, data: Iterable[int | Fraction]):
        """Build from row-major entries, each an int or a Fraction.

        Any other entry, bool and float included, is a TypeError;
        :meth:`from_rows` also takes strings such as ``"3/4"``.
        """
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        data = tuple(data)
        if len(data) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(data)}")
        for x in data:
            if not isinstance(x, (int, Fraction)) or isinstance(x, bool):
                raise TypeError(f"matrix entries must be ints or Fractions, not {x!r}")
        self.rows = rows
        self.cols = cols
        num, self._den = _over_lcm(data)
        self._num = tuple(num)

    @classmethod
    def _of(cls, rows: int, cols: int, num: Sequence[int], den: int = 1) -> "RatMatrix":
        """The matrix with numerators ``num`` over ``den > 0``, in lowest terms."""
        if den != 1:
            g = den
            for x in num:
                # pairwise, like _over_lcm; stop once the gcd is 1
                if x:
                    g = gcd(g, x)
                    if g == 1:
                        break
            if g != 1:
                num = [x // g for x in num]
                den //= g
        m = object.__new__(cls)
        m.rows, m.cols, m._num, m._den = rows, cols, tuple(num), den
        return m

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence], cols: int | None = None) -> "RatMatrix":
        """Build from nested sequences; ``cols`` disambiguates zero-row shapes."""
        nrows = len(rows)
        if nrows == 0:
            return cls(0, cols or 0, ())
        ncols = len(rows[0])
        data = []
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")
            data.extend(frac(x) for x in r)
        return cls(nrows, ncols, data)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence], rows: int | None = None) -> "RatMatrix":
        ncols = len(columns)
        if ncols == 0:
            return cls(rows or 0, 0, ())
        return cls.from_rows([[c[i] for c in columns] for i in range(len(columns[0]))],
                             cols=ncols)

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return cls._of(n, n, [int(i == j) for i in range(n) for j in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RatMatrix":
        return cls._of(rows, cols, (0,) * (rows * cols))

    def entry(self, i: int, j: int) -> Fraction:
        _check_index(i, self.rows, "row")
        _check_index(j, self.cols, "column")
        return Fraction(self._num[i * self.cols + j], self._den)

    def row(self, i: int) -> tuple[Fraction, ...]:
        _check_index(i, self.rows, "row")
        return _fractions(self._num[i * self.cols : (i + 1) * self.cols], self._den)

    def column(self, j: int) -> tuple[Fraction, ...]:
        _check_index(j, self.cols, "column")
        return _fractions(self._num[j :: self.cols], self._den)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def is_zero(self) -> bool:
        return not any(self._num)

    def is_identity(self) -> bool:
        n = self.rows
        return self.cols == n and self._den == 1 and all(
            x == (1 if k % (n + 1) == 0 else 0) for k, x in enumerate(self._num))

    def is_integral(self) -> bool:
        return self._den == 1

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatMatrix):
            return NotImplemented
        return (self.rows == other.rows and self.cols == other.cols
                and self._den == other._den and self._num == other._num)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self._den, self._num))

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} + {other.shape}")
        d = lcm(self._den, other._den)
        sa, sb = d // self._den, d // other._den
        return RatMatrix._of(self.rows, self.cols,
                             [a * sa + b * sb for a, b in zip(self._num, other._num)], d)

    def __sub__(self, other: "RatMatrix") -> "RatMatrix":
        return self + (-other)

    def __neg__(self) -> "RatMatrix":
        return RatMatrix._of(self.rows, self.cols, [-a for a in self._num], self._den)

    def scale(self, c) -> "RatMatrix":
        c = frac(c)
        return RatMatrix._of(self.rows, self.cols, [c.numerator * a for a in self._num],
                             c.denominator * self._den)

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.shape} by {other.shape}")
        n, a = self.cols, self._num
        cols = [other._num[j :: other.cols] for j in range(other.cols)]
        out = []
        for i in range(self.rows):
            row = a[i * n : (i + 1) * n]
            # an empty dot product is the int 0, so inner dimension 0 gives exact zeros
            out.extend([sum(map(mul, row, b)) for b in cols])
        return RatMatrix._of(self.rows, other.cols, out, self._den * other._den)

    def transpose(self) -> "RatMatrix":
        num, n = self._num, self.cols
        return RatMatrix._of(n, self.rows, [x for j in range(n) for x in num[j::n]], self._den)

    def delete_row(self, i: int) -> "RatMatrix":
        _check_index(i, self.rows, "row")
        n = self.cols
        return RatMatrix._of(self.rows - 1, n, self._num[: i * n] + self._num[(i + 1) * n :],
                             self._den)

    def delete_column(self, j: int) -> "RatMatrix":
        _check_index(j, self.cols, "column")
        n = self.cols
        num = [x for k, x in enumerate(self._num) if k % n != j]
        return RatMatrix._of(self.rows, n - 1, num, self._den)

    def split_rows(self, k: int) -> tuple["RatMatrix", "RatMatrix"]:
        """The first ``k`` rows and the rest, as two matrices."""
        _check_index(k, self.rows + 1, "row split")
        n, cut = self.cols, k * self.cols
        return (RatMatrix._of(k, n, self._num[:cut], self._den),
                RatMatrix._of(self.rows - k, n, self._num[cut:], self._den))

    def split_columns(self, k: int) -> tuple["RatMatrix", "RatMatrix"]:
        """The first ``k`` columns and the rest, as two matrices."""
        _check_index(k, self.cols + 1, "column split")
        n, num = self.cols, self._num
        starts = range(0, self.rows * n, n) if n else ()
        left = [x for i in starts for x in num[i : i + k]]
        right = [x for i in starts for x in num[i + k : i + n]]
        return (RatMatrix._of(self.rows, k, left, self._den),
                RatMatrix._of(self.rows, n - k, right, self._den))

    def with_entry(self, i: int, j: int, value) -> "RatMatrix":
        _check_index(i, self.rows, "row")
        _check_index(j, self.cols, "column")
        value = frac(value)
        d = lcm(self._den, value.denominator)
        s = d // self._den
        num = [x * s for x in self._num]
        num[i * self.cols + j] = value.numerator * (d // value.denominator)
        return RatMatrix._of(self.rows, self.cols, num, d)

    def __repr__(self) -> str:
        if self.rows == 0 or self.cols == 0:
            return f"RatMatrix({self.rows}x{self.cols})"
        body = "; ".join(" ".join(str(x) for x in self.row(i)) for i in range(self.rows))
        return f"RatMatrix[{body}]"


def _check_index(k: int, n: int, what: str) -> None:
    if not 0 <= k < n:
        raise IndexError(f"{what} index {k} is outside range({n})")


def _fractions(num: Sequence[int], den: int) -> tuple[Fraction, ...]:
    return tuple([Fraction(x, den) for x in num])


def hstack(*mats: RatMatrix) -> RatMatrix:
    if not mats:
        raise ValueError("need at least one matrix")
    rows = mats[0].rows
    if any(m.rows != rows for m in mats):
        raise ValueError("row counts differ")
    d = _common_den(mats)
    blocks = [(_numerators_over(m, d), m.cols) for m in mats]
    num = []
    for i in range(rows):
        for a, n in blocks:
            num.extend(a[i * n : (i + 1) * n])
    return RatMatrix._of(rows, sum(m.cols for m in mats), num, d)


def vstack(*mats: RatMatrix) -> RatMatrix:
    if not mats:
        raise ValueError("need at least one matrix")
    cols = mats[0].cols
    if any(m.cols != cols for m in mats):
        raise ValueError("column counts differ")
    d = _common_den(mats)
    num = []
    for m in mats:
        num.extend(_numerators_over(m, d))
    return RatMatrix._of(sum(m.rows for m in mats), cols, num, d)


def block_diagonal(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    """The matrix [[a, 0], [0, b]]."""
    d = _common_den((a, b))
    p, q = a.cols, b.cols
    na, nb = _numerators_over(a, d), _numerators_over(b, d)
    after, before = [0] * q, [0] * p
    num = []
    for i in range(a.rows):
        num.extend(na[i * p : (i + 1) * p])
        num.extend(after)
    for i in range(b.rows):
        num.extend(before)
        num.extend(nb[i * q : (i + 1) * q])
    return RatMatrix._of(a.rows + b.rows, p + q, num, d)


def _common_den(mats: Sequence[RatMatrix]) -> int:
    d = 1
    for m in mats:
        d = lcm(d, m._den)
    return d


def _numerators_over(m: RatMatrix, d: int) -> Sequence[int]:
    """The numerators of ``m`` over ``d``, a multiple of its denominator."""
    s = d // m._den
    return m._num if s == 1 else [x * s for x in m._num]


def _over_lcm(v: Sequence[int | Fraction]) -> tuple[list[int], int]:
    """The integer numerators of ``v`` over the lcm of its denominators, and that lcm.

    The pair is in lowest terms: for each prime of the lcm, the entry
    whose denominator carries its full power keeps a numerator prime to it.
    """
    d = 1
    # pairwise, not lcm(*gen): the argument tuples raise peak memory
    for x in v:
        if x.denominator != 1:
            d = lcm(d, x.denominator)
    if d == 1:
        return [x.numerator for x in v], 1
    return [x.numerator * (d // x.denominator) for x in v], d


def _cleared(row: Sequence[int], pr: Sequence[int], c: int) -> list[int]:
    """``row`` with column ``c`` cleared by the pivot row ``pr``.

    That is pr[c]*row - row[c]*pr divided by the gcd of its entries, so
    it stays a multiple of the row the rational elimination would hold.
    """
    p, f = pr[c], row[c]
    row = [p * x - f * y for x, y in zip(row, pr)]
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _absorb(rows: list[Sequence[int]], pivots: list[int], v: Sequence[int]) -> None:
    """Add the integer vector ``v`` to an echelon, in place; the one elimination loop.

    ``rows[t]`` has its leading entry, its pivot, in column
    ``pivots[t]``; the pivots increase, and every other row is zero at
    each pivot.  ``v`` is cleared at each pivot.  If anything is left,
    its leading entry becomes a new pivot, that column is cleared from
    the other rows, and ``v`` is inserted in pivot order.  A row stays
    zero left of its pivot, so the rows over their pivots are the rref
    of every vector absorbed so far (:func:`_finished`).
    """
    for r, c in zip(rows, pivots):
        if v[c]:
            v = _cleared(v, r, c)
    for lead, x in enumerate(v):
        if x:
            break
    else:
        return
    for t, r in enumerate(rows):
        if r[lead]:
            rows[t] = _cleared(r, v, lead)
    t = bisect(pivots, lead)
    rows.insert(t, v)
    pivots.insert(t, lead)


def _finished(rows: list[Sequence[int]], pivots: list[int]) -> tuple[list[int], int]:
    """The rref an :func:`_absorb` echelon stands for, as numerators over d.

    Returns the rows in pivot order, concatenated, each scaled so that
    its pivot is d, the lcm of the pivots; and d.
    """
    d = 1
    for r, c in zip(rows, pivots):
        d = lcm(d, r[c])
    out = []
    for r, c in zip(rows, pivots):
        s = d // r[c]  # negative when the pivot is, so every pivot becomes d
        out.extend(r if s == 1 else [x * s for x in r])
    return out, d


def _rref_pivots(m: RatMatrix) -> tuple[RatMatrix, tuple[int, ...]]:
    """Reduced row echelon form together with its pivot columns.

    The numerator rows of ``m`` are absorbed one by one into one
    echelon (:func:`_absorb`) until the rank is the column count, and
    :func:`_finished` stores the result over the lcm of the pivots.
    """
    nrows, ncols, num = m.rows, m.cols, m._num
    if nrows == 0 or ncols == 0:
        return m, ()
    rows: list[Sequence[int]] = []
    pivots: list[int] = []
    for i in range(0, nrows * ncols, ncols):
        _absorb(rows, pivots, num[i : i + ncols])
        if len(rows) == ncols:
            break
    out, d = _finished(rows, pivots)
    out.extend([0] * (ncols * (nrows - len(rows))))
    return RatMatrix._of(nrows, ncols, out, d), tuple(pivots)


def rref(m: RatMatrix) -> RatMatrix:
    """Reduced row echelon form (unique for the row space of ``m``)."""
    return _rref_pivots(m)[0]


def rank(m: RatMatrix) -> int:
    return len(_rref_pivots(m)[1])


def row_echelon_basis(m: RatMatrix) -> RatMatrix:
    """Canonical basis of the row space of ``m``: the non-zero rows of rref(m)."""
    r, pivots = _rref_pivots(m)
    k = len(pivots)
    return RatMatrix._of(k, m.cols, r._num[: k * m.cols], r._den)


def column_echelon_basis(m: RatMatrix) -> RatMatrix:
    """Canonical basis of the column space of ``m``.

    The columns of the result are the nonzero rows of rref(m^T); this
    reduced column echelon form depends only on the span, so two
    matrices have equal column space iff this function agrees on them.
    """
    return row_echelon_basis(m.transpose()).transpose()


def _kernel_echelon(m: RatMatrix) -> RatMatrix:
    """The canonical basis (reduced column echelon form) of m x = 0.

    One elimination, of ``m`` with its columns in reverse order.  In that
    rref, the solution of free column f is 1 at f, 0 at every other free
    column, and non-zero otherwise only at pivot columns after f (in the
    original order), since a pivot row is zero left of its pivot.  Taken
    in the order of f, these solutions are the rows of the rref of the
    transposed basis, so no second elimination is needed.
    """
    nrows, n = m.rows, m.cols
    num = m._num
    reversed_num = [x for i in range(nrows) for x in reversed(num[i * n : (i + 1) * n])]
    r, pivots = _rref_pivots(RatMatrix._of(nrows, n, reversed_num, m._den))
    rnum, d = r._num, r._den
    # original column -> its pivot row in the reversed rref
    pivot_row = {n - 1 - p: i for i, p in enumerate(pivots)}
    free = [c for c in range(n) if c not in pivot_row]
    out = []
    for c in range(n):
        i = pivot_row.get(c)
        if i is None:
            out.extend([d if f == c else 0 for f in free])
        else:
            row = rnum[i * n : (i + 1) * n]
            out.extend([-row[n - 1 - f] for f in free])
    return RatMatrix._of(n, len(free), out, d)


def kernel_basis(m: RatMatrix) -> "Subspace":
    """The solution space of m x = 0, as a canonical Subspace of Q^cols."""
    return Subspace._canonical(m.cols, _kernel_echelon(m))


def image_basis(m: RatMatrix) -> "Subspace":
    """The column space of ``m``, as a canonical Subspace of Q^rows."""
    return Subspace(m.rows, m)


def _unit_rows(a: RatMatrix) -> list[int] | None:
    """The row of each column's leading entry, when that entry is 1 and
    the only non-zero entry of its row, as in reduced column echelon
    form; otherwise None."""
    k, num, d = a.cols, a._num, a._den
    out = []
    for j in range(k):
        for i, x in enumerate(num[j::k]):
            if x:
                break
        else:
            return None  # a zero column
        start = i * k
        if x != d or any(num[start : start + j]) or any(num[start + j + 1 : start + k]):
            return None
        out.append(i)
    return out


def solve_right(a: RatMatrix, b: RatMatrix) -> RatMatrix | None:
    """Solve a @ x = b exactly, or return None when no solution exists.

    When each column of ``a`` has a leading entry 1 that is the only
    non-zero entry of its row, as in reduced column echelon form (every
    :class:`Subspace` basis), those rows of ``a`` are the identity, so
    ``x`` must be the same rows of ``b``; that candidate solves the
    system or nothing does, and no elimination is needed.  Any other
    ``a`` is eliminated together with ``b``.  When the system is
    underdetermined the free variables are set to zero, so the returned
    solution is a canonical one.
    """
    if a.rows != b.rows:
        raise ValueError(f"row mismatch: {a.shape} vs {b.shape}")
    unit_rows = _unit_rows(a)
    if unit_rows is not None:
        m, bnum = b.cols, b._num
        x = RatMatrix._of(a.cols, m, [v for i in unit_rows for v in bnum[i * m : (i + 1) * m]],
                          b._den)
        return x if a @ x == b else None
    aug, pivots = _rref_pivots(hstack(a, b))
    if any(p >= a.cols for p in pivots):
        return None  # a pivot in the b block means the system is inconsistent
    n, num = a.cols + b.cols, aug._num
    pivot_row = dict(zip(pivots, range(len(pivots))))
    zeros = (0,) * b.cols
    out = []
    for c in range(a.cols):
        i = pivot_row.get(c)
        out.extend(zeros if i is None else num[i * n + a.cols : (i + 1) * n])
    return RatMatrix._of(a.cols, b.cols, out, aug._den)


def invert(m: RatMatrix) -> RatMatrix | None:
    """Exact inverse of a square matrix, or None if singular."""
    if m.rows != m.cols:
        return None
    # [m | I] has a pivot in the I block exactly when m is singular
    return solve_right(m, RatMatrix.identity(m.rows))


class Subspace:
    """A linear subspace of Q^n held in canonical form.

    The constructor takes any n x k spanning matrix and stores its
    reduced column echelon form, so every Subspace is canonical and two
    values are equal exactly when they describe the same subspace.
    :meth:`span` also accepts a list of vectors.  Where the canonical
    basis is known without eliminating (:meth:`zero`, :meth:`full`, a
    kernel read off one elimination with its columns reversed), it is
    stored through :meth:`_canonical` instead.
    """

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim: int, basis: RatMatrix):
        if basis.rows != ambient_dim:
            raise ValueError("basis does not live in the stated ambient space")
        self.ambient_dim = ambient_dim
        self.basis = column_echelon_basis(basis)

    @classmethod
    def _canonical(cls, ambient_dim: int, basis: RatMatrix) -> "Subspace":
        """The subspace whose basis already is in reduced column echelon form.

        Nothing is checked: the caller vouches for the form.  The callers
        and why each basis is canonical:

        - :meth:`zero` (no columns) and :meth:`full` (the identity);
        - :func:`kernel_basis` and :func:`preimage`, which read the form
          off one elimination (see :func:`_kernel_echelon`);
        - ``FlagBackend.direct_sum_payload``, whose layers are the
          block-diagonal of two canonical bases: the blocks' pivot rows
          do not overlap, so the result is canonical too;
        - ``FlagBackend.drop_coordinate``, which deletes a row that is
          not a pivot row: the pivot rows keep their lone leading 1s;
        - :func:`nested_spans`, which reads the rref of the columns so
          far off the same echelon as every elimination (:func:`_absorb`).
        """
        s = object.__new__(cls)
        s.ambient_dim, s.basis = ambient_dim, basis
        return s

    @classmethod
    def span(cls, ambient_dim: int, vectors) -> "Subspace":
        """Subspace spanned by the columns of ``vectors`` (or listed vectors)."""
        if not isinstance(vectors, RatMatrix):
            vectors = RatMatrix.from_columns(vectors, rows=ambient_dim)
        return cls(ambient_dim, vectors)

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls._canonical(ambient_dim, RatMatrix.zeros(ambient_dim, 0))

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls._canonical(ambient_dim, RatMatrix.identity(ambient_dim))

    @property
    def dim(self) -> int:
        return self.basis.cols

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.basis == other.basis

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self.basis))

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim})"

    def contains(self, other: "Subspace") -> bool:
        """Whether ``other`` lies in this subspace.

        The canonical basis holds the identity in its pivot rows, so
        :func:`solve_right` reads the coordinates of ``other``'s basis
        off those rows and checks one product, with no elimination.
        """
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient spaces differ")
        return solve_right(self.basis, other.basis) is not None

    def intersect(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient spaces differ")
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.ambient_dim)
        # (x, y) with B1 x = B2 y; the intersection is B1 x
        k = kernel_basis(hstack(self.basis, -other.basis))
        coeffs = RatMatrix._of(self.dim, k.dim, k.basis._num[: self.dim * k.dim], k.basis._den)
        return Subspace.span(self.ambient_dim, self.basis @ coeffs)

    def add(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient spaces differ")
        return Subspace.span(self.ambient_dim, hstack(self.basis, other.basis))

    def __add__(self, other: "Subspace") -> "Subspace":
        return self.add(other)


def pushforward(m: RatMatrix, s: Subspace) -> Subspace:
    """Image of ``s`` under the linear map ``m``."""
    if m.cols != s.ambient_dim:
        raise ValueError("map domain does not match subspace ambient space")
    return Subspace.span(m.rows, m @ s.basis)


def preimage(m: RatMatrix, s: Subspace) -> Subspace:
    """The subspace of vectors x with m x in ``s``.

    With S = ``s.basis``, the kernel of [m | S] is the set of (x, y) with
    m x = -S y, so its projection onto the first ``m.cols`` coordinates
    is the preimage.  That projection of the canonical kernel basis is
    already canonical: S has full column rank, so every free column of
    [m | S] lies in the m block, and the top rows keep each basis
    vector's leading 1 and the zeros at the other free columns.
    """
    if m.rows != s.ambient_dim:
        raise ValueError("map codomain does not match subspace ambient space")
    k = _kernel_echelon(hstack(m, s.basis))
    return Subspace._canonical(
        m.cols, RatMatrix._of(m.cols, k.cols, k._num[: m.cols * k.cols], k._den))


def nested_spans(dim: int, blocks: Sequence[RatMatrix]) -> list[Subspace]:
    """The span of each initial run of ``blocks``, as canonical subspaces of Q^dim.

    Entry i is ``Subspace(dim, hstack(*blocks[: i + 1]))``, from one
    echelon in place of one elimination per block.  The columns are
    absorbed one by one (:func:`_absorb`) until the rank is ``dim``;
    after a block that adds a pivot, the transposed :func:`_finished`
    rows are the canonical basis.
    """
    rows: list[Sequence[int]] = []
    pivots: list[int] = []
    cur = Subspace.zero(dim)
    out = []
    for b in blocks:
        if b.rows != dim:
            raise ValueError("block does not live in the stated ambient space")
        k, num, rank_before = b.cols, b._num, len(rows)
        for j in range(k):
            if len(rows) == dim:
                break
            # scaling a column by the block's denominator keeps its span
            _absorb(rows, pivots, num[j::k])
        if len(rows) > rank_before:
            flat, d = _finished(rows, pivots)
            num = [x for i in range(dim) for x in flat[i::dim]]
            cur = Subspace._canonical(dim, RatMatrix._of(dim, len(rows), num, d))
        out.append(cur)
    return out


def complement_rows(s: Subspace) -> RatMatrix:
    """Canonical coordinates for the quotient Q^n / s.

    Returns a (n - dim) x n matrix q of full row rank with q b = 0 for
    every b in s; its kernel is exactly s, so q serves as the quotient
    projection in explicit coordinates.
    """
    return kernel_basis(s.basis.transpose()).basis.transpose()


def matrix_to_json(m: RatMatrix) -> dict:
    return {
        "rows": m.rows,
        "cols": m.cols,
        "entries": [[str(x) for x in m.row(i)] for i in range(m.rows)],
    }


def matrix_from_json(obj: dict) -> RatMatrix:
    try:
        rows, cols, entries = obj["rows"], obj["cols"], obj["entries"]
    except (TypeError, KeyError) as exc:
        raise ValueError(f"malformed matrix object: {exc}") from exc
    if any(not isinstance(n, int) or isinstance(n, bool) for n in (rows, cols)):
        raise ValueError("matrix rows/cols must be integers")
    check_declared_dim(rows, "matrix rows")
    check_declared_dim(cols, "matrix cols")
    if not isinstance(entries, list) or any(not isinstance(r, list) for r in entries):
        raise ValueError("matrix entries must be a list of row lists")
    if len(entries) != rows or any(len(r) != cols for r in entries):
        raise ValueError("matrix entry grid does not match stated shape")
    try:
        return RatMatrix(rows, cols, (frac(x) for row in entries for x in row))
    except TypeError as exc:
        raise ValueError(f"malformed matrix entries: {exc}") from exc
