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

from ..core import CatObject, ConstraintViolation, Morphism
from ..linalg import (
    RatMatrix,
    Subspace,
    block_diagonal,
    check_declared_dim,
    hstack,
    kernel_basis,
    matrix_from_json,
    matrix_to_json,
    preimage,
    pushforward,
    rank,
    rref,
    solve_right,
)
from .base import MatrixBackend


def _random_matrix(rng, rows: int, cols: int) -> RatMatrix:
    return RatMatrix(rows, cols, [rng.randint(-3, 3) for _ in range(rows * cols)])


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
    """
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


class FlagBackend(MatrixBackend):
    """Q-linear maps preserving a fixed-length chain of subspaces."""

    def __init__(self, name: str, n_layers: int):
        self.name = name
        self.n_layers = n_layers
        # built once: identities' kernels and cokernels land on it
        self._zero = CatObject(self, (0, (Subspace.zero(0),) * n_layers))

    # -- objects -----------------------------------------------------------
    def make_object(self, payload) -> CatObject:
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
        return CatObject(self, (dim, layers))

    def obj(self, dim: int, layers=()) -> CatObject:
        return self.make_object((dim, tuple(layers)))

    def zero_object(self) -> CatObject:
        return self._zero

    def ambient_dim(self, payload) -> int:
        return payload[0]

    def direct_sum_payload(self, a_payload, b_payload):
        n, xs = a_payload
        m, ys = b_payload
        # the block-diagonal of two canonical bases is already canonical
        return (n + m, tuple(Subspace._canonical(n + m, block_diagonal(x.basis, y.basis))
                             for x, y in zip(xs, ys)))

    def drop_coordinate(self, payload, j: int):
        n, layers = payload
        if not 0 <= j < n:
            raise ValueError("coordinate out of range")
        return (n - 1, tuple(Subspace.span(n - 1, s.basis.delete_row(j)) for s in layers))

    # -- morphisms -----------------------------------------------------------
    def check_payload_constraints(self, dom_payload, cod_payload, m: RatMatrix) -> None:
        _, xs = dom_payload
        _, ys = cod_payload
        for x, y in zip(xs, ys):
            if not x.dim or y.dim == y.ambient_dim:
                continue  # nothing to map, or everything lands in the whole space
            image = m @ x.basis
            fits = image.is_zero() if y.dim == 0 else solve_right(y.basis, image) is not None
            if not fits:
                raise ConstraintViolation("matrix does not map marked layers into marked layers")

    def is_iso(self, f: Morphism) -> bool:
        """Whether f is an iso: an identity, or a square invertible matrix
        whose domain and codomain layers have equal dimensions, pairwise.

        Proof: the inverse matrix is a morphism exactly when it maps each
        codomain layer y into the domain layer x, that is when y lies in
        f(x).  As f is a morphism, f(x) lies in y, and as f is injective,
        f(x) has the dimension of x; so y lies in f(x) exactly when
        x.dim == y.dim.  No inverse is built and no layer is solved against.
        """
        if self._is_identity(f):
            return True
        (n, xs), (m, ys) = f.dom.payload, f.cod.payload
        return (n == m and all(x.dim == y.dim for x, y in zip(xs, ys))
                and rank(f.payload) == n)

    def kernel_data(self, f: Morphism):
        n, xs = f.dom.payload
        k = kernel_basis(f.payload)
        layers = tuple(preimage(k.basis, x) for x in xs)
        return (k.dim, layers), k.basis

    def cokernel_data(self, f: Morphism):
        m, ys = f.cod.payload
        # the rows of q span the annihilator of the image, the kernel of f^T
        q = kernel_basis(f.payload.transpose()).basis.transpose()
        layers = tuple(pushforward(q, y) for y in ys)
        return (q.rows, layers), q

    # -- generation ------------------------------------------------------------
    def random_object(self, rng, dim_bound: int) -> CatObject:
        roll = rng.random()
        if roll < 0.08:
            return self.zero_object()
        dim = rng.randint(0, dim_bound)
        if roll < 0.14:
            layers = tuple(Subspace.zero(dim) for _ in range(self.n_layers))
        elif roll < 0.20:
            layers = tuple(Subspace.full(dim) for _ in range(self.n_layers))
        else:
            layers = []
            cur = Subspace.zero(dim)
            for _ in range(self.n_layers):
                extra = rng.randint(0, dim)
                if extra:
                    cur = Subspace(dim, hstack(cur.basis, _random_matrix(rng, dim, extra)))
                layers.append(cur)
            layers = tuple(layers)
        return CatObject(self, (dim, layers))

    def random_morphism(self, rng, a: CatObject, b: CatObject) -> Morphism:
        if rng.random() < 0.2:
            cand = rng.choice(self._structural_candidates(a, b))
            return Morphism(self, a, b, cand)
        n, xs = a.payload
        m, ys = b.payload
        _, p_inv, block = _adapted_columns(n, xs)
        cols = [RatMatrix.zeros(m, 0)]
        for j in range(n):
            i = block[j]
            target = ys[i].basis if i < len(ys) else RatMatrix.identity(m)
            cols.append(target @ _random_matrix(rng, target.cols, 1))
        img = hstack(*cols)
        return Morphism(self, a, b, img @ p_inv)

    def random_iso(self, rng, a: CatObject) -> Morphism:
        n, xs = a.payload
        p, p_inv, _ = _adapted_columns(n, xs)
        # upper triangular with invertible diagonal fixes every initial
        # span of adapted columns, hence every marked layer
        t = [[0] * n for _ in range(n)]
        for i in range(n):
            t[i][i] = rng.choice((1, -1, 2, -2))
            for j in range(i + 1, n):
                t[i][j] = rng.randint(-2, 2)
        tm = RatMatrix(n, n, [x for row in t for x in row])
        return Morphism(self, a, a, p @ tm @ p_inv)

    # -- serialization ------------------------------------------------------------
    def object_to_json(self, a: CatObject) -> dict:
        dim, layers = a.payload
        out: dict = {"dim": dim}
        if self.n_layers == 1:
            out["subspace"] = matrix_to_json(layers[0].basis)
        elif self.n_layers > 1:
            out["flag"] = [matrix_to_json(s.basis) for s in layers]
        return out

    def object_from_json(self, obj: dict) -> CatObject:
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

    def morphism_to_json(self, f: Morphism) -> dict:
        return {
            "backend": self.name,
            "dom": self.object_to_json(f.dom),
            "cod": self.object_to_json(f.cod),
            "matrix": matrix_to_json(f.payload),
        }

    def morphism_from_json(self, obj: dict) -> Morphism:
        try:
            dom = self.object_from_json(obj["dom"])
            cod = self.object_from_json(obj["cod"])
            matrix = matrix_from_json(obj["matrix"])
        except (TypeError, KeyError) as exc:
            raise ValueError(f"malformed {self.name} morphism: {exc}") from exc
        return self.make_morphism(dom, cod, matrix)


def vert_shift(basis: RatMatrix, above: int, below: int) -> RatMatrix:
    """Pad basis columns with zero rows above and below."""
    k = basis.cols
    return RatMatrix._of(above + basis.rows + below, k,
                         [0] * (above * k) + list(basis._num) + [0] * (below * k), basis._den)
