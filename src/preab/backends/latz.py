"""Finitely generated free abelian groups with integer matrix maps.

Objects are the groups Z^r; morphisms are integer matrices.  Kernels
are the honest integer kernels, read off one Hermite normal form (they
are saturated sublattices, hence free); the cokernel of f projects onto
Z^m modulo the saturation of the image of f, which keeps every object
torsion-free.  The price is
that surjectivity and epimorphy come apart: multiplication by 2 on Z is
both mono and epi here, but certainly not invertible.
"""

from __future__ import annotations

from ..core import ConstraintViolation, Morphism
from ..lattice import column_hnf, integer_kernel, pure_quotient_rows
from ..linalg import RatMatrix, check_declared_dim
from .base import MatrixBackend


class LatZBackend(MatrixBackend):
    name = "latz"

    # -- objects -----------------------------------------------------------
    def make_object(self, payload) -> int:
        if not isinstance(payload, int) or isinstance(payload, bool) or payload < 0:
            raise ConstraintViolation("object payload must be a non-negative rank")
        return payload

    def obj(self, rank: int) -> int:
        return self.make_object(rank)

    def zero_object(self) -> int:
        return 0

    def ambient_dim(self, payload) -> int:
        return payload

    def direct_sum_payload(self, a_payload, b_payload):
        return a_payload + b_payload

    def drop_coordinate(self, payload, j: int):
        if not 0 <= j < payload:
            raise ValueError("coordinate out of range")
        return payload - 1

    # -- morphisms -----------------------------------------------------------
    def check_payload_constraints(self, dom_payload, cod_payload, m: RatMatrix) -> None:
        if not m.is_integral():
            raise ConstraintViolation("matrix must have integer entries")

    def kernel_data(self, f: Morphism):
        # integer_kernel's basis is already in column Hermite form
        basis = integer_kernel(f.payload)
        return basis.cols, basis

    def cokernel_data(self, f: Morphism):
        q = pure_quotient_rows(self.image_data(f)[1])
        return q.rows, q

    def coimage_data(self, f: Morphism):
        # the kernel leg is saturated and in column Hermite form, so it is
        # its own saturation and the coimage is its quotient projection
        q = pure_quotient_rows(integer_kernel(f.payload))
        return q.rows, q

    def image_data(self, f: Morphism):
        # the kernel of the annihilator of the image is the image's
        # saturation, already in column Hermite form
        annihilator = integer_kernel(f.payload.transpose())
        s = integer_kernel(annihilator.transpose())
        return s.cols, s

    def rank_and_strict(self, f: Morphism) -> tuple[int, bool]:
        """The rank of f and whether f is strict, read off two Hermite forms.

        The column Hermite form h of f is a basis of its image, so its
        column count is the rank of f.  f is strict exactly when its image
        is saturated, that is when every elementary divisor of f is 1 (see
        README "Backends"), which holds exactly when the rows of h span
        Z^rank, so when the Hermite form of h's transpose is the identity.

        >>> from preab.backends import LATZ
        >>> from preab.linalg import RatMatrix
        >>> two = LATZ.make_morphism(1, 1, RatMatrix.from_rows([[2]]))
        >>> LATZ.rank_and_strict(two)
        (1, False)
        >>> c = LATZ.classify(two)
        >>> c.mono, c.epi, c.strict
        (True, True, False)
        """
        h = column_hnf(f.payload)
        return h.cols, column_hnf(h.transpose()).is_identity()

    # -- generation ------------------------------------------------------------
    def random_object(self, rng, dim_bound: int) -> int:
        return rng.randint(0, dim_bound)

    def random_morphism(self, rng, a: int, b: int) -> Morphism:
        if rng.random() < 0.2:
            return Morphism(self, a, b, rng.choice(self._structural_candidates(a, b)))
        data = [rng.randint(-3, 3) for _ in range(b * a)]
        return Morphism(self, a, b, RatMatrix(b, a, data))

    def random_iso(self, rng, a: int) -> Morphism:
        grid = [[int(i == j) for j in range(a)] for i in range(a)]
        for _ in range(2 * a):
            i, j = rng.randrange(a), rng.randrange(a)
            if i != j:
                c = rng.randint(-2, 2)
                grid[i] = [x + c * y for x, y in zip(grid[i], grid[j])]
        if a and rng.random() < 0.5:
            i = rng.randrange(a)
            grid[i] = [-x for x in grid[i]]
        return Morphism(self, a, a, RatMatrix(a, a, [x for row in grid for x in row]))

    # -- serialization ------------------------------------------------------------
    def object_to_json(self, a: int) -> dict:
        return {"rank": a}

    def object_from_json(self, obj: dict) -> int:
        try:
            rank = obj["rank"]
        except (TypeError, KeyError) as exc:
            raise ValueError(f"malformed latz object: {exc}") from exc
        check_declared_dim(rank, "latz rank")
        return self.make_object(rank)

    # bench/tracer.py wraps these in this class's own dict to count calls per backend
    morphism_to_json = MatrixBackend.morphism_to_json
    morphism_from_json = MatrixBackend.morphism_from_json
