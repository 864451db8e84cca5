"""Rational vector spaces carrying a chain of marked subspaces.

One implementation covers three backends: plain finite-dimensional
Q-vector spaces (no marked subspaces), spaces with a single marked
subspace, and spaces with a length-3 chain V1 <= V2 <= V3.  An object
is a pair (ambient dimension, chain); a morphism is any matrix mapping
each marked layer of its domain into the matching layer of its
codomain.

With at least one layer these categories have non-invertible
bimorphisms (for example the identity matrix from (V, 0) to (V, V)),
which is what makes them interesting test beds: kernels and cokernels
exist everywhere, but a mono epi need not be an iso.
"""

from __future__ import annotations

from math import lcm
from operator import mul

from ..core import ConstraintViolation, Morphism
from ..linalg import (
    RatMatrix,
    Subspace,
    block_diagonal,
    check_declared_dim,
    column_echelon_basis,
    hstack,
    kernel_basis,
    matrix_from_json,
    matrix_to_json,
    nested_spans,
    preimage,
    row_echelon_basis,
    rref,
    solve_right,
)
from .base import MatrixBackend


def _adapted_columns(dim: int, layers: tuple[Subspace, ...]
                     ) -> tuple[RatMatrix, RatMatrix, list[int]]:
    """An invertible matrix whose leading columns run up the chain, and its inverse.

    Returns (p, p_inv, block) where column j of p belongs to layer
    block[j] (len(layers) meaning "outside every layer"); the columns of
    each initial segment span the corresponding layer.  The columns of p
    are the pivot columns of S = [layer bases... | I]: each candidate not
    in the span of those before it.  rref(S) = E S with E p = I, since
    the pivot columns of an rref are the unit vectors in order, so its
    identity block E is p's inverse.

    When every layer is zero or full (always on vectq), p = p_inv = I
    and no elimination is needed: a zero layer adds no column to S and a
    full one adds the identity, its canonical basis, so S is [I | ... | I]
    and its pivot columns are the unit vectors of the first full layer,
    or of the closing I when there is none.
    """
    if all(s.dim in (0, dim) for s in layers):
        first_full = next((i for i, s in enumerate(layers) if s.dim), len(layers))
        identity = RatMatrix.identity(dim)
        return identity, identity, [first_full] * dim
    blocks = [s.basis for s in layers] + [RatMatrix.identity(dim)]
    owner = [i for i, b in enumerate(blocks) for _ in range(b.cols)]
    stacked = hstack(*blocks)
    r = rref(stacked)
    n, num, rnum = stacked.cols, stacked._num, r._num
    # S has full row rank, so every row of r holds a pivot
    pivots = [next(j for j in range(n) if rnum[i * n + j]) for i in range(dim)]
    p = RatMatrix._of(dim, dim, [num[i * n + j] for i in range(dim) for j in pivots],
                      stacked._den)
    p_inv = RatMatrix._of(dim, dim, [x for i in range(dim)
                                     for x in rnum[(i + 1) * n - dim : (i + 1) * n]], r._den)
    return p, p_inv, [owner[j] for j in pivots]


def _delete_coordinate(s: Subspace, j: int) -> Subspace:
    """The image of ``s`` with ambient coordinate ``j`` projected away.

    Deleting a row that holds no column's leading 1 leaves a reduced
    column echelon basis in that form: every pivot row, with its lone 1,
    survives, and the columns stay independent.  Only a pivot row's
    deletion needs a new elimination.
    """
    k, num = s.basis.cols, s.basis._num
    # a pivot row holds the first non-zero entry of some column
    pivot = any(num[j * k + c] and not any(num[c : j * k : k]) for c in range(k))
    rest = s.basis.delete_row(j)
    return Subspace(rest.rows, rest) if pivot else Subspace._canonical(rest)


def _subobject(b: RatMatrix, ob: tuple) -> tuple[tuple, RatMatrix]:
    """The sub-object of ``ob`` included by ``b``, each layer pulled back along b, and b."""
    return (b.cols, tuple(preimage(b, y) for y in ob[1])), b


def _quotient(q: RatMatrix, ob: tuple) -> tuple[tuple, RatMatrix]:
    """The quotient of ``ob`` projected by ``q``, and q: the layers are nested, so
    their images along q are the spans of one echelon (:func:`nested_spans`)."""
    return (q.rows, tuple(nested_spans(q.rows, [q @ x.basis for x in ob[1]]))), q


class FlagBackend(MatrixBackend):
    """Q-linear maps preserving a fixed-length chain of subspaces."""

    def __init__(self, name: str, n_layers: int):
        self.name = name
        self.n_layers = n_layers
        # built once: every zero morphism decomposes through it
        self._zero = (0, (Subspace.zero(0),) * n_layers)

    # -- objects -----------------------------------------------------------
    def make_object(self, payload) -> tuple:
        try:
            dim, layers = payload
            layers = tuple(layers)
        except (TypeError, ValueError) as exc:
            raise ConstraintViolation(f"object payload must be (dim, layers): {exc}") from exc
        if not isinstance(dim, int) or isinstance(dim, bool) or dim < 0:
            raise ConstraintViolation("dimension must be a non-negative integer")
        if len(layers) != self.n_layers:
            raise ConstraintViolation(f"expected {self.n_layers} marked layers, got {len(layers)}")
        for s in layers:
            if not isinstance(s, Subspace) or s.ambient_dim != dim:
                raise ConstraintViolation("each layer must be a Subspace of the ambient space")
        for small, big in zip(layers, layers[1:]):
            if not big.contains(small):
                raise ConstraintViolation("marked layers must be nested")
        return dim, layers

    def obj(self, dim: int, layers=()) -> tuple:
        return self.make_object((dim, tuple(layers)))

    def zero_object(self) -> tuple:
        return self._zero

    def ambient_dim(self, payload) -> int:
        return payload[0]

    def direct_sum_payload(self, a_payload, b_payload):
        n, xs = a_payload
        m, ys = b_payload
        # the block-diagonal of two canonical bases is already canonical
        return (n + m, tuple(Subspace._canonical(block_diagonal(x.basis, y.basis))
                             for x, y in zip(xs, ys)))

    def drop_coordinate(self, payload, j: int):
        n, layers = payload
        if not 0 <= j < n:
            raise ValueError("coordinate out of range")
        return (n - 1, tuple(_delete_coordinate(s, j) for s in layers))

    # -- morphisms -----------------------------------------------------------
    def check_payload_constraints(self, dom_payload, cod_payload, m: RatMatrix) -> None:
        _, xs = dom_payload
        _, ys = cod_payload
        for x, y in zip(xs, ys):
            if not x.dim or y.dim == y.ambient_dim:
                continue  # nothing to map, or everything lands in the whole space
            if solve_right(y.basis, m @ x.basis) is None:
                raise ConstraintViolation("matrix does not map marked layers into marked layers")

    def rank_and_strict(self, f: Morphism) -> tuple[int, bool]:
        """The rank r of f: (V, X) -> (W, Y) and whether f is strict.

        fbar maps the coimage layers f(X_i), of dimension rank(f X_i),
        into the image layers Y_i meet f(V), of dimension
        r + dim Y_i - rank[f | Y_i], and is an iso exactly when these agree.
        The layers are nested, so r and every rank[f | Y_i] are read off
        one echelon of f, Y_1, Y_2, ... (:func:`nested_spans`), and every
        rank(f X_i) off one of f X_1, f X_2, ...

        When f is invertible, this is dim X_i == dim Y_i.  Proof: the
        inverse matrix is a morphism exactly when each Y_i lies in f(X_i).
        As f is a morphism, f(X_i) lies in Y_i, and as f is injective,
        f(X_i) has the dimension of X_i; so Y_i lies in f(X_i) exactly
        when dim X_i == dim Y_i.
        """
        (n, xs), (m, ys) = f.dom, f.cod
        mat = f.payload
        r, *spans = (s.dim for s in nested_spans(m, [mat] + [y.basis for y in ys]))
        if r == n == m:
            return r, all(x.dim == y.dim for x, y in zip(xs, ys))
        images = nested_spans(m, [mat @ x.basis for x in xs])
        return r, all(fx.dim + s == r + y.dim for fx, s, y in zip(images, spans, ys))

    def kernel_data(self, f: Morphism):
        return _subobject(kernel_basis(f.payload).basis, f.dom)

    def cokernel_data(self, f: Morphism):
        # the rows of q span the annihilator of the image, the kernel of f^T
        return _quotient(kernel_basis(f.payload.transpose()).basis.transpose(), f.cod)

    def coimage_data(self, f: Morphism):
        # ker(K^T), for K the kernel leg, is the row space of f, and the
        # non-zero rows of rref(f) are that space's canonical basis
        return _quotient(row_echelon_basis(f.payload), f.dom)

    def image_data(self, f: Morphism):
        # ker(cok f) is the column space of f
        return _subobject(column_echelon_basis(f.payload), f.cod)

    # -- generation ------------------------------------------------------------
    def random_object(self, rng, dim_bound: int) -> tuple:
        """A seeded object: the zero object, a chain of zero or full layers,
        or layers spanned by growing blocks of random columns.

        The stream of ``rng`` calls is fixed, here and in
        :meth:`random_morphism` and :meth:`random_iso`: audit reports,
        their digests and every seeded test input depend on it, so a
        change that draws differently changes them all.
        """
        roll = rng.random()
        if roll < 0.08:
            return self.zero_object()
        dim = rng.randint(0, dim_bound)
        if roll < 0.14:
            layers = tuple(Subspace.zero(dim) for _ in range(self.n_layers))
        elif roll < 0.20:
            layers = tuple(Subspace.full(dim) for _ in range(self.n_layers))
        else:
            # layer i is spanned by blocks 0..i; every block is drawn, row
            # by row, even once the layers fill the space
            blocks = []
            for _ in range(self.n_layers):
                extra = rng.randint(0, dim)
                blocks.append(RatMatrix._of(dim, extra,
                                            [rng.randint(-3, 3) for _ in range(dim * extra)]))
            layers = tuple(nested_spans(dim, blocks))
        return dim, layers

    def random_morphism(self, rng, a: tuple, b: tuple) -> Morphism:
        if rng.random() < 0.2:
            cand = rng.choice(self._structural_candidates(a, b))
            return Morphism(self, a, b, cand)
        n, xs = a
        m, ys = b
        _, p_inv, block = _adapted_columns(n, xs)
        # adapted column j goes to a combination of the basis of layer
        # block[j] of b, or anywhere when it is outside every layer
        d = 1
        for i in set(block):
            if i < len(ys):
                d = lcm(d, ys[i].basis._den)
        cols = []
        for i in block:
            if i == len(ys):
                cols.append([d * rng.randint(-3, 3) for _ in range(m)])
                continue
            t = ys[i].basis
            k, tnum, s = t.cols, t._num, d // t._den
            coeffs = [rng.randint(-3, 3) for _ in range(k)]
            cols.append([s * sum(map(mul, tnum[r * k : (r + 1) * k], coeffs))
                         for r in range(m)])
        img = RatMatrix._of(m, n, [col[r] for r in range(m) for col in cols], d)
        return Morphism(self, a, b, img @ p_inv)

    def random_iso(self, rng, a: tuple) -> Morphism:
        n, xs = a
        p, p_inv, _ = _adapted_columns(n, xs)
        # upper triangular with invertible diagonal fixes every initial
        # span of adapted columns, hence every marked layer
        t = [[0] * n for _ in range(n)]
        for i in range(n):
            t[i][i] = rng.choice((1, -1, 2, -2))
            for j in range(i + 1, n):
                t[i][j] = rng.randint(-2, 2)
        tm = RatMatrix._of(n, n, [x for row in t for x in row])
        return Morphism(self, a, a, p @ tm @ p_inv)

    # -- serialization ------------------------------------------------------------
    def object_to_json(self, a: tuple) -> dict:
        dim, layers = a
        out: dict = {"dim": dim}
        if self.n_layers == 1:
            out["subspace"] = matrix_to_json(layers[0].basis)
        elif self.n_layers > 1:
            out["flag"] = [matrix_to_json(s.basis) for s in layers]
        return out

    def object_from_json(self, obj: dict) -> tuple:
        try:
            dim = obj["dim"]
            check_declared_dim(dim, f"{self.name} dim")
            if self.n_layers == 0:
                layers = ()
            elif self.n_layers == 1:
                layers = (Subspace.span(dim, matrix_from_json(obj["subspace"])),)
            else:
                layers = tuple(Subspace.span(dim, matrix_from_json(m)) for m in obj["flag"])
        except (TypeError, KeyError) as exc:
            raise ValueError(f"malformed {self.name} object: {exc}") from exc
        return self.make_object((dim, layers))

    # bench/tracer.py wraps these in this class's own dict to count calls per backend
    morphism_to_json = MatrixBackend.morphism_to_json
    morphism_from_json = MatrixBackend.morphism_from_json


def vert_shift(basis: RatMatrix, above: int, below: int) -> RatMatrix:
    """Pad basis columns with zero rows above and below."""
    k = basis.cols
    return RatMatrix._of(above + basis.rows + below, k,
                         [0] * (above * k) + list(basis._num) + [0] * (below * k), basis._den)
