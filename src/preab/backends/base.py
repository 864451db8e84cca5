"""Shared machinery for categories whose morphisms are rational matrices.

A subclass only has to say what its objects are (ambient dimension plus
whatever extra structure it carries), when a matrix respects that
structure, and how to build kernel and cokernel objects.  Composition,
biproducts, division, iso testing and the cone plumbing are generic.
"""

from __future__ import annotations

from typing import Optional

from ..core import Biproduct, CatObject, Category, Cone, ConstraintViolation, Morphism
from ..linalg import RatMatrix, hstack, invert, solve_right, vstack


class _MatrixBiproduct(Biproduct):
    """A (+) B with A's ``n`` ambient coordinates first (see MatrixBackend)."""

    def __init__(self, cat: "MatrixBackend", a: CatObject, b: CatObject):
        self.category, self.a, self.b = cat, a, b
        self._n = cat.ambient_dim(a.payload)
        self.ob = CatObject(cat, cat.direct_sum_payload(a.payload, b.payload))

    def pair(self, f: Morphism, g: Morphism) -> Morphism:
        if f.dom != g.dom or f.cod != self.a or g.cod != self.b:
            raise ValueError("pair legs must share a domain and land in the summands")
        return Morphism(self.category, f.dom, self.ob, vstack(f.payload, g.payload))

    def copair(self, f: Morphism, g: Morphism) -> Morphism:
        if f.cod != g.cod or f.dom != self.a or g.dom != self.b:
            raise ValueError("copair legs must start at the summands and share a codomain")
        return Morphism(self.category, self.ob, f.cod, hstack(f.payload, g.payload))

    def split_out(self, h: Morphism) -> tuple[Morphism, Morphism]:
        if h.dom != self.ob:
            raise ValueError("split_out needs a morphism out of the biproduct")
        u, v = h.payload.split_columns(self._n)
        return Morphism(self.category, self.a, h.cod, u), Morphism(self.category, self.b, h.cod, v)

    def split_in(self, h: Morphism) -> tuple[Morphism, Morphism]:
        if h.cod != self.ob:
            raise ValueError("split_in needs a morphism into the biproduct")
        u, v = h.payload.split_rows(self._n)
        return Morphism(self.category, h.dom, self.a, u), Morphism(self.category, h.dom, self.b, v)


class MatrixBackend(Category):
    """Category base class with RatMatrix morphism payloads.

    Besides ``make_object``, ``zero_object``, generation and JSON (see
    :class:`~preab.core.Category`), a subclass defines six hooks:
    ``ambient_dim(payload)``; ``check_payload_constraints(dom_payload,
    cod_payload, m)``, which raises ConstraintViolation when ``m`` breaks
    the structure; ``direct_sum_payload(a_payload, b_payload)``, the
    biproduct's payload; ``drop_coordinate(payload, j)``, the payload with
    ambient coordinate ``j`` projected away (for shrinking); and
    ``kernel_data(f)`` and ``cokernel_data(f)``, each returning the apex
    payload and the leg matrix (apex -> dom f for a kernel, cod f -> apex
    for a cokernel).

    A biproduct A (+) B puts A's coordinates first.  Its ``pair`` and
    ``copair`` stack the legs' matrices and its splits slice a matrix's
    rows or columns, with no product through a 0/1 matrix; the injections
    and projections are :class:`~preab.core.Biproduct`'s own.

    Zero morphisms and identities are answered from the universal
    property, with no elimination and no hook call: the kernel of
    ``0: A -> B`` is ``id_A`` and its cokernel ``id_B``; the kernel of
    ``id_A`` is ``0 -> A`` from the zero object and its cokernel
    ``A -> 0``; dividing by an identity returns the dividend; and an
    identity is an iso.  An identity is a morphism with ``dom == cod``
    and the identity matrix; the identity matrix between two different
    objects (such as the bimorphism (V, 0) -> (V, V) of a flag
    category) takes the general path.  The results equal the general
    construction's.

    ``divide_left`` and ``divide_right`` go through
    :func:`~preab.linalg.solve_right`, which reads the quotient off a
    divisor in reduced column echelon form (a flag kernel leg, or the
    transpose of a flag cokernel leg) and checks one product instead of
    eliminating.  ``is_iso`` inverts the matrix and lets the structure
    constraints decide whether the inverse is a morphism; a subclass that
    can read the answer off its structure overrides it, as
    :class:`~preab.backends.flags.FlagBackend` does.
    """

    # -- generic implementations ------------------------------------------
    def is_zero_object(self, a: CatObject) -> bool:
        return self.ambient_dim(a.payload) == 0

    def identity(self, a: CatObject) -> Morphism:
        return Morphism(self, a, a, RatMatrix.identity(self.ambient_dim(a.payload)))

    def zero_morphism(self, a: CatObject, b: CatObject) -> Morphism:
        return Morphism(self, a, b,
                        RatMatrix.zeros(self.ambient_dim(b.payload), self.ambient_dim(a.payload)))

    def is_zero_morphism(self, f: Morphism) -> bool:
        return f.payload.is_zero()

    def compose(self, g: Morphism, f: Morphism) -> Morphism:
        if f.category is not self or g.category is not self:
            raise ValueError("morphisms belong to a different category")
        if f.cod != g.dom:
            raise ValueError("morphisms do not compose")
        return Morphism(self, f.dom, g.cod, g.payload @ f.payload)

    def add(self, f: Morphism, g: Morphism) -> Morphism:
        if f.dom != g.dom or f.cod != g.cod:
            raise ValueError("can only add parallel morphisms")
        return Morphism(self, f.dom, f.cod, f.payload + g.payload)

    def negate(self, f: Morphism) -> Morphism:
        return Morphism(self, f.dom, f.cod, -f.payload)

    def biproduct(self, a: CatObject, b: CatObject) -> Biproduct:
        return _MatrixBiproduct(self, a, b)

    def _is_identity(self, f: Morphism) -> bool:
        return f.payload.is_identity() and f.dom == f.cod

    def kernel(self, f: Morphism) -> Cone:
        if f.payload.is_zero():
            return Cone(kind="kernel", of=f, apex=f.dom, leg=self.identity(f.dom))
        if self._is_identity(f):
            zero = self.zero_object()
            return Cone(kind="kernel", of=f, apex=zero, leg=self.zero_morphism(zero, f.dom))
        apex_payload, leg_matrix = self.kernel_data(f)
        apex = CatObject(self, apex_payload)
        leg = Morphism(self, apex, f.dom, leg_matrix)
        return Cone(kind="kernel", of=f, apex=apex, leg=leg)

    def cokernel(self, f: Morphism) -> Cone:
        if f.payload.is_zero():
            return Cone(kind="cokernel", of=f, apex=f.cod, leg=self.identity(f.cod))
        if self._is_identity(f):
            zero = self.zero_object()
            return Cone(kind="cokernel", of=f, apex=zero, leg=self.zero_morphism(f.cod, zero))
        apex_payload, leg_matrix = self.cokernel_data(f)
        apex = CatObject(self, apex_payload)
        leg = Morphism(self, f.cod, apex, leg_matrix)
        return Cone(kind="cokernel", of=f, apex=apex, leg=leg)

    def divide_left(self, g: Morphism, h: Morphism) -> Optional[Morphism]:
        if g.cod != h.cod:
            raise ValueError("divide_left needs a common codomain")
        if self._is_identity(g):
            return h
        x = solve_right(g.payload, h.payload)
        if x is None:
            return None
        return self.try_morphism(h.dom, g.dom, x)

    def divide_right(self, g: Morphism, h: Morphism) -> Optional[Morphism]:
        if g.dom != h.dom:
            raise ValueError("divide_right needs a common domain")
        if self._is_identity(g):
            return h
        x = solve_right(g.payload.transpose(), h.payload.transpose())
        if x is None:
            return None
        return self.try_morphism(g.cod, h.cod, x.transpose())

    def is_iso(self, f: Morphism) -> bool:
        if self._is_identity(f):
            return True
        # invert the ambient matrix, then let the structure constraints
        # decide whether the inverse is a morphism of this category
        inv = invert(f.payload)
        if inv is None:
            return False
        return self.try_morphism(f.cod, f.dom, inv) is not None

    def _structural_candidates(self, a: CatObject, b: CatObject) -> list[RatMatrix]:
        """The zero map, then whichever of identity, inclusion and projection
        onto the leading coordinates respect the structure of a and b."""
        n, m = self.ambient_dim(a.payload), self.ambient_dim(b.payload)
        out = [RatMatrix.zeros(m, n)]
        named = []
        if n == m:
            named.append(RatMatrix.identity(n))
        if n <= m:
            named.append(hstack(RatMatrix.identity(n), RatMatrix.zeros(n, m - n)).transpose())
        if m <= n:
            named.append(hstack(RatMatrix.identity(m), RatMatrix.zeros(m, n - m)))
        for cand in named:
            try:
                self.check_payload_constraints(a.payload, b.payload, cand)
            except ConstraintViolation:
                continue
            out.append(cand)
        return out

    def make_morphism(self, dom: CatObject, cod: CatObject, payload) -> Morphism:
        if not isinstance(payload, RatMatrix):
            raise ConstraintViolation("morphism payload must be a RatMatrix")
        if payload.rows != self.ambient_dim(cod.payload) or \
                payload.cols != self.ambient_dim(dom.payload):
            raise ConstraintViolation(
                f"matrix shape {payload.shape} does not match objects "
                f"({self.ambient_dim(cod.payload)} x {self.ambient_dim(dom.payload)} expected)")
        self.check_payload_constraints(dom.payload, cod.payload, payload)
        return Morphism(self, dom, cod, payload)
