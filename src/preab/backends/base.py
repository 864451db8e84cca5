"""Shared machinery for categories whose morphisms are rational matrices.

A subclass only has to say what its objects are (ambient dimension plus
whatever extra structure it carries), when a matrix respects that
structure, how to build kernel, cokernel, coimage and image objects,
and a morphism's rank and strictness.  The rest is generic.
"""

from __future__ import annotations

from typing import Optional

from ..core import (
    Biproduct,
    Category,
    Cone,
    ConstraintViolation,
    Decomposition,
    Morphism,
    MorphismClass,
)
from ..linalg import (
    RatMatrix,
    hstack,
    matrix_from_json,
    matrix_to_json,
    solve_right,
    vstack,
)


class _MatrixBiproduct(Biproduct):
    """A (+) B with A's ``n`` ambient coordinates first (see MatrixBackend)."""

    def __init__(self, cat: "MatrixBackend", a, b):
        self.category, self.a, self.b = cat, a, b
        self._n = cat.ambient_dim(a)
        self.ob = cat.direct_sum_payload(a, b)

    def pair(self, f: Morphism, g: Morphism) -> Morphism:
        self.category._own(f, g)
        if f.dom != g.dom or f.cod != self.a or g.cod != self.b:
            raise ValueError("pair legs must share a domain and land in the summands")
        return Morphism(self.category, f.dom, self.ob, vstack(f.payload, g.payload))

    def copair(self, f: Morphism, g: Morphism) -> Morphism:
        self.category._own(f, g)
        if f.cod != g.cod or f.dom != self.a or g.dom != self.b:
            raise ValueError("copair legs must start at the summands and share a codomain")
        return Morphism(self.category, self.ob, f.cod, hstack(f.payload, g.payload))

    def split_out(self, h: Morphism) -> tuple[Morphism, Morphism]:
        self.category._own(h)
        if h.dom != self.ob:
            raise ValueError("split_out needs a morphism out of the biproduct")
        u, v = h.payload.split_columns(self._n)
        return Morphism(self.category, self.a, h.cod, u), Morphism(self.category, self.b, h.cod, v)

    def split_in(self, h: Morphism) -> tuple[Morphism, Morphism]:
        self.category._own(h)
        if h.cod != self.ob:
            raise ValueError("split_in needs a morphism into the biproduct")
        u, v = h.payload.split_rows(self._n)
        return Morphism(self.category, h.dom, self.a, u), Morphism(self.category, h.dom, self.b, v)


class MatrixBackend(Category):
    """Category base class with RatMatrix morphism payloads.

    Morphism JSON lives here: ``morphism_to_json`` writes the backend
    name, both objects and the matrix, and ``morphism_from_json`` reads
    them back through ``make_morphism``.  A backend name other than this
    backend's is a ValueError; a missing one is accepted.  A subclass
    supplies only object JSON (``object_to_json`` and
    ``object_from_json``).  Besides that,
    ``make_object``, ``zero_object`` and generation (see
    :class:`~preab.core.Category`), it defines nine hooks on objects,
    which are payloads, and morphisms: ``ambient_dim(payload)``;
    ``check_payload_constraints(dom_payload, cod_payload, m)``, which
    raises ConstraintViolation when ``m`` breaks the structure;
    ``direct_sum_payload(a_payload, b_payload)``, the biproduct object;
    ``drop_coordinate(payload, j)``, the object with ambient coordinate
    ``j`` projected away (for shrinking); ``kernel_data(f)`` and
    ``cokernel_data(f)``, each returning the apex object and the leg
    matrix (apex -> dom f for a kernel, cod f -> apex
    for a cokernel); and ``coimage_data(f)`` and ``image_data(f)``, the
    same for the coimage cok(ker f) (dom f -> apex) and the image
    ker(cok f) (apex -> cod f), read off f itself.  A coimage leg is
    r x n and an image leg m x r, for r the rank of f.  The ninth,
    ``rank_and_strict(f)``, gives the rank of f and whether f is strict;
    ``classify`` reads mono (full column rank), epi (full row rank) and
    strict off it, and ``is_iso(f)`` is ``classify(f).iso``, with no
    inverse built.

    ``decompose`` builds f = im @ fbar @ coim from those two legs, so no
    kernel or cokernel cone of f is built, and fbar is found by dividing,
    which checks the product exactly (RuntimeError if f does not
    factor).

    A biproduct A (+) B puts A's coordinates first.  Its ``pair`` and
    ``copair`` stack the legs' matrices and its splits slice a matrix's
    rows or columns, with no product through a 0/1 matrix.

    A zero morphism ``0: A -> B`` is answered with no elimination and
    no hook call: its kernel is ``id_A``, its cokernel ``id_B``, it
    decomposes through the zero object and it is strict.  An identity
    (``dom == cod`` and the identity matrix) is classified as an iso,
    and dividing by one returns the dividend.  Audit traffic pays for
    these: zero morphisms are a quarter to two thirds of the cone,
    ``decompose`` and ``classify`` calls, identities a fifth of the
    ``classify`` and nearly half of the division calls.  An identity's
    cones and decomposition, under 4% of those calls, take the general
    path.  The results equal the general construction's.

    ``divide_left`` and ``divide_right`` go through
    :func:`~preab.linalg.solve_right`, which reads the quotient off a
    divisor in reduced column echelon form (a flag kernel leg, or the
    transpose of a flag cokernel leg) and checks one product instead of
    eliminating.
    """

    # -- generic implementations ------------------------------------------
    def _own(self, *morphisms: Morphism) -> None:
        for f in morphisms:
            if f.category is not self:
                raise ValueError("morphisms belong to a different category")

    def is_zero_object(self, a) -> bool:
        return self.ambient_dim(a) == 0

    def identity(self, a) -> Morphism:
        return Morphism(self, a, a, RatMatrix.identity(self.ambient_dim(a)))

    def zero_morphism(self, a, b) -> Morphism:
        return Morphism(self, a, b, RatMatrix.zeros(self.ambient_dim(b), self.ambient_dim(a)))

    def is_zero_morphism(self, f: Morphism) -> bool:
        self._own(f)
        return f.payload.is_zero()

    def compose(self, g: Morphism, f: Morphism) -> Morphism:
        self._own(g, f)
        if f.cod != g.dom:
            raise ValueError("morphisms do not compose")
        return Morphism(self, f.dom, g.cod, g.payload @ f.payload)

    def add(self, f: Morphism, g: Morphism) -> Morphism:
        self._own(f, g)
        if f.dom != g.dom or f.cod != g.cod:
            raise ValueError("can only add parallel morphisms")
        return Morphism(self, f.dom, f.cod, f.payload + g.payload)

    def negate(self, f: Morphism) -> Morphism:
        self._own(f)
        return Morphism(self, f.dom, f.cod, -f.payload)

    def biproduct(self, a, b) -> Biproduct:
        return _MatrixBiproduct(self, a, b)

    def _is_identity(self, f: Morphism) -> bool:
        return f.payload.is_identity() and f.dom == f.cod

    def kernel(self, f: Morphism) -> Cone:
        self._own(f)
        if f.payload.is_zero():
            return Cone(kind="kernel", of=f, leg=self.identity(f.dom))
        apex, m = self.kernel_data(f)
        return Cone(kind="kernel", of=f, leg=Morphism(self, apex, f.dom, m))

    def cokernel(self, f: Morphism) -> Cone:
        self._own(f)
        if f.payload.is_zero():
            return Cone(kind="cokernel", of=f, leg=self.identity(f.cod))
        apex, m = self.cokernel_data(f)
        return Cone(kind="cokernel", of=f, leg=Morphism(self, f.cod, apex, m))

    def decompose(self, f: Morphism) -> Decomposition:
        self._own(f)
        if f.payload.is_zero():
            zero = self.zero_object()
            return Decomposition(coim=self.zero_morphism(f.dom, zero), fbar=self.identity(zero),
                                 im=self.zero_morphism(zero, f.cod))
        coim_apex, q = self.coimage_data(f)
        im_apex, b = self.image_data(f)
        coim = Morphism(self, f.dom, coim_apex, q)
        im = Morphism(self, im_apex, f.cod, b)
        through_coim = self.divide_right(coim, f)
        if through_coim is None:
            raise RuntimeError("f does not factor through its coimage")
        fbar = self.divide_left(im, through_coim)
        if fbar is None:
            raise RuntimeError("f does not factor through its image")
        return Decomposition(coim=coim, fbar=fbar, im=im)

    def divide_left(self, g: Morphism, h: Morphism) -> Optional[Morphism]:
        self._own(g, h)
        if g.cod != h.cod:
            raise ValueError("divide_left needs a common codomain")
        if self._is_identity(g):
            return h
        x = solve_right(g.payload, h.payload)
        if x is None:
            return None
        return self.try_morphism(h.dom, g.dom, x)

    def divide_right(self, g: Morphism, h: Morphism) -> Optional[Morphism]:
        self._own(g, h)
        if g.dom != h.dom:
            raise ValueError("divide_right needs a common domain")
        if self._is_identity(g):
            return h
        x = solve_right(g.payload.transpose(), h.payload.transpose())
        if x is None:
            return None
        return self.try_morphism(g.cod, h.cod, x.transpose())

    def classify(self, f: Morphism) -> MorphismClass:
        self._own(f)
        m = f.payload
        if m.is_zero():
            return MorphismClass(mono=m.cols == 0, epi=m.rows == 0, strict=True)
        if self._is_identity(f):
            return MorphismClass(mono=True, epi=True, strict=True)
        r, strict = self.rank_and_strict(f)
        return MorphismClass(mono=r == m.cols, epi=r == m.rows, strict=strict)

    def is_iso(self, f: Morphism) -> bool:
        return self.classify(f).iso

    def _structural_candidates(self, a, b) -> list[RatMatrix]:
        """The zero map, then whichever of identity, inclusion and projection
        onto the leading coordinates respect the structure of a and b."""
        n, m = self.ambient_dim(a), self.ambient_dim(b)
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
                self.check_payload_constraints(a, b, cand)
            except ConstraintViolation:
                continue
            out.append(cand)
        return out

    def make_morphism(self, dom, cod, payload) -> Morphism:
        if not isinstance(payload, RatMatrix):
            raise ConstraintViolation("morphism payload must be a RatMatrix")
        if payload.rows != self.ambient_dim(cod) or payload.cols != self.ambient_dim(dom):
            raise ConstraintViolation(
                f"matrix shape {payload.shape} does not match objects "
                f"({self.ambient_dim(cod)} x {self.ambient_dim(dom)} expected)")
        self.check_payload_constraints(dom, cod, payload)
        return Morphism(self, dom, cod, payload)

    # -- serialization ------------------------------------------------------
    def morphism_to_json(self, f: Morphism) -> dict:
        self._own(f)
        return {
            "backend": self.name,
            "dom": self.object_to_json(f.dom),
            "cod": self.object_to_json(f.cod),
            "matrix": matrix_to_json(f.payload),
        }

    def morphism_from_json(self, obj: dict) -> Morphism:
        if isinstance(obj, dict) and obj.get("backend", self.name) != self.name:
            raise ValueError(f"morphism backend {obj['backend']!r} is not {self.name!r}")
        try:
            dom = self.object_from_json(obj["dom"])
            cod = self.object_from_json(obj["cod"])
            matrix = matrix_from_json(obj["matrix"])
        except (TypeError, KeyError) as exc:
            raise ValueError(f"malformed {self.name} morphism: {exc}") from exc
        return self.make_morphism(dom, cod, matrix)
