"""Core machinery for additive categories with kernels and cokernels.

A :class:`Category` supplies composition, the additive structure,
biproducts, and kernel/cokernel constructors; everything else here is
generic: canonical decompositions, morphism classification, pushouts
and pullbacks via biproducts, induced maps between kernels and
cokernels, and the opposite category.  Pushouts, pullbacks and their
mediators use a :class:`Biproduct` only through its maps ``pair``,
``copair``, ``split_out`` and ``split_in``, never by composing with
its injections and projections.

Comparisons between kernels (or cokernels, images, ...) are never done
on raw representatives; two monomorphisms present the same subobject
only when the unique mediating morphism exists in both directions and
is an isomorphism.  See :func:`subobject_iso` and :func:`quotient_iso`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Optional


class ConstraintViolation(ValueError):
    """Raised when data does not satisfy a backend's structure constraints."""


@dataclass(frozen=True)
class CatObject:
    """An object of a concrete category: a payload plus its category tag."""

    category: "Category" = field(compare=False)
    payload: Any

    def __eq__(self, other):
        if not isinstance(other, CatObject):
            return NotImplemented
        return self.category is other.category and self.payload == other.payload

    def __hash__(self):
        return hash((id(self.category), self.payload))

    def __repr__(self):
        return f"<{self.category.name}: {self.payload!r}>"


@dataclass(frozen=True)
class Morphism:
    """A morphism with explicit domain and codomain.

    The payload is backend-specific (a matrix for the concrete
    categories here, a wrapped base morphism in an opposite category).
    Composition is available as ``g @ f``.
    """

    category: "Category" = field(compare=False)
    dom: CatObject
    cod: CatObject
    payload: Any

    def __eq__(self, other):
        if not isinstance(other, Morphism):
            return NotImplemented
        return (self.category is other.category and self.dom == other.dom
                and self.cod == other.cod and self.payload == other.payload)

    def __hash__(self):
        return hash((id(self.category), self.dom, self.cod, self.payload))

    def __matmul__(self, other: "Morphism") -> "Morphism":
        return self.category.compose(self, other)

    def __add__(self, other: "Morphism") -> "Morphism":
        return self.category.add(self, other)

    def __sub__(self, other: "Morphism") -> "Morphism":
        return self.category.add(self, self.category.negate(other))

    def __neg__(self) -> "Morphism":
        return self.category.negate(self)

    def __repr__(self):
        return f"<{self.category.name} morphism {self.dom.payload!r} -> {self.cod.payload!r}>"


@dataclass
class Cone:
    """A kernel or cokernel together with its universal factorization.

    For a kernel cone over f, ``leg`` is the inclusion of the apex into
    dom(f) and ``factor(x)`` returns the unique u with leg @ u == x for
    any x satisfying f @ x == 0, or None when x does not qualify.  For
    a cokernel cone the roles are reversed (factor solves u @ leg == x
    for x with x @ f == 0).
    """

    kind: str  # "kernel" or "cokernel"
    of: Morphism
    apex: CatObject
    leg: Morphism

    def factor(self, x: Morphism) -> Optional[Morphism]:
        f, c = self.of, self.of.category
        if self.kind == "kernel":
            if x.cod != f.dom:
                raise ValueError("test morphism must land in dom(f)")
            if not c.is_zero_morphism(c.compose(f, x)):
                return None
            return c.divide_left(self.leg, x)
        if x.dom != f.cod:
            raise ValueError("test morphism must start at cod(f)")
        if not c.is_zero_morphism(c.compose(x, f)):
            return None
        return c.divide_right(self.leg, x)


class Biproduct:
    """A biproduct A (+) B, the object ``ob``, with its structural maps.

    ``category``, ``a`` and ``b`` name the category and the summands.
    Every construction here goes through four maps, which a category
    defines without composing through the injections and projections:

    - ``pair(f, g)``, for f: X -> A and g: X -> B, is the map
      X -> A (+) B equal to inj1 @ f + inj2 @ g;
    - ``copair(f, g)``, for f: A -> X and g: B -> X, is the map
      A (+) B -> X equal to f @ proj1 + g @ proj2;
    - ``split_out(h)``, for h out of A (+) B, is (h @ inj1, h @ inj2);
    - ``split_in(h)``, for h into A (+) B, is (proj1 @ h, proj2 @ h).

    Each raises ValueError when a leg does not fit.  The injections
    ``inj1 = pair(id, 0)``, ``inj2 = pair(0, id)`` and projections
    ``proj1 = copair(id, 0)``, ``proj2 = copair(0, id)`` are derived
    here once, and built only when a caller reads them.
    """

    category: "Category"
    a: CatObject
    b: CatObject
    ob: CatObject

    @cached_property
    def inj1(self) -> Morphism:
        c = self.category
        return self.pair(c.identity(self.a), c.zero_morphism(self.a, self.b))

    @cached_property
    def inj2(self) -> Morphism:
        c = self.category
        return self.pair(c.zero_morphism(self.b, self.a), c.identity(self.b))

    @cached_property
    def proj1(self) -> Morphism:
        c = self.category
        return self.copair(c.identity(self.a), c.zero_morphism(self.b, self.a))

    @cached_property
    def proj2(self) -> Morphism:
        c = self.category
        return self.copair(c.zero_morphism(self.a, self.b), c.identity(self.b))


class _OppositeBiproduct(Biproduct):
    """A biproduct of an opposite category: each map is the base
    biproduct's dual map (pair and copair trade places, as do split_out
    and split_in)."""

    def __init__(self, op: "Opposite", base: Biproduct):
        self._base = base
        self.category, self.a, self.b = op, op._obj(base.a), op._obj(base.b)
        self.ob = op._obj(base.ob)

    def pair(self, f: Morphism, g: Morphism) -> Morphism:
        op = self.category
        return op.wrap(self._base.copair(op.unwrap(f), op.unwrap(g)))

    def copair(self, f: Morphism, g: Morphism) -> Morphism:
        op = self.category
        return op.wrap(self._base.pair(op.unwrap(f), op.unwrap(g)))

    def split_out(self, h: Morphism) -> tuple[Morphism, Morphism]:
        op = self.category
        u, v = self._base.split_in(op.unwrap(h))
        return op.wrap(u), op.wrap(v)

    def split_in(self, h: Morphism) -> tuple[Morphism, Morphism]:
        op = self.category
        u, v = self._base.split_out(op.unwrap(h))
        return op.wrap(u), op.wrap(v)


@dataclass(frozen=True)
class MorphismClass:
    """Classification flags for a single morphism."""

    mono: bool
    epi: bool
    bimorphism: bool
    iso: bool
    strict: bool
    is_kernel: bool
    is_cokernel: bool

    def to_json(self) -> dict:
        return {
            "mono": self.mono,
            "epi": self.epi,
            "bimorphism": self.bimorphism,
            "iso": self.iso,
            "strict": self.strict,
            "is_kernel": self.is_kernel,
            "is_cokernel": self.is_cokernel,
        }


@dataclass(frozen=True)
class Decomposition:
    """The canonical factorization f = im @ fbar @ coim.

    ``coim`` is the cokernel of ker f, ``im`` is the kernel of cok f,
    and ``fbar`` is the induced comparison between them.  A morphism is
    strict exactly when fbar is an isomorphism.  The kernel and cokernel
    cones of f that the factorization is built from ride along; they
    take no part in equality, hashing or repr.
    """

    coim: Morphism
    fbar: Morphism
    im: Morphism
    kernel: Cone = field(compare=False, repr=False)
    cokernel: Cone = field(compare=False, repr=False)

    def recompose(self) -> Morphism:
        return self.im @ self.fbar @ self.coim

    def flags(self) -> MorphismClass:
        """Mono/epi/iso/strict flags of f plus the derived kernel/cokernel tests.

        Mono, epi and strict are read off this decomposition, and the
        other four flags follow from them.  A morphism is a kernel iff it
        is mono and strict, and a cokernel iff it is epi and strict, so no
        search over candidate morphisms is needed.  It is an iso iff it is
        mono, epi and strict: when f is mono its coimage leg is an iso,
        when f is epi its image leg is, and then f = im @ fbar @ coim is
        an iso exactly when fbar is.
        """
        c = self.fbar.category
        mono = c.is_zero_object(self.kernel.apex)
        epi = c.is_zero_object(self.cokernel.apex)
        strict = c.is_iso(self.fbar)
        return MorphismClass(
            mono=mono,
            epi=epi,
            bimorphism=mono and epi,
            iso=mono and epi and strict,
            strict=strict,
            is_kernel=mono and strict,
            is_cokernel=epi and strict,
        )


@dataclass(frozen=True)
class Square:
    """A commutative square.

    Arranged as::

        C --top--> D
        |          |
      left       right
        v          v
        A -bottom-> B

    so commutativity means bottom @ left == right @ top.  ``provenance``
    records how the square was built: "pushout" and "pullback" squares
    come out of the canonical constructions; "commutative" squares are
    merely checked to commute.
    """

    top: Morphism
    left: Morphism
    bottom: Morphism
    right: Morphism
    provenance: str = "commutative"

    def __post_init__(self):
        if self.top.dom != self.left.dom or self.bottom.dom != self.left.cod \
                or self.right.dom != self.top.cod or self.bottom.cod != self.right.cod:
            raise ValueError("square corners do not line up")
        if self.bottom @ self.left != self.right @ self.top:
            raise ValueError("square does not commute")


class Category:
    """What a concrete backend provides.

    Backends are stateless singletons; object and morphism values carry
    a reference to their category, and mixing categories raises.  Each
    backend, and :class:`Opposite`, defines ``zero_object``,
    ``is_zero_object``, ``identity``, ``zero_morphism``,
    ``is_zero_morphism``, ``compose(g, f)`` (``g @ f``), ``add``,
    ``negate``, ``biproduct(a, b)`` (a :class:`Biproduct` defining the
    maps ``pair``, ``copair``, ``split_out`` and ``split_in``; it
    derives the injections and projections), ``kernel`` and
    ``cokernel`` (each a :class:`Cone`), ``is_iso``, the generators
    ``random_object(rng, dim_bound)``, ``random_morphism(rng, a, b)`` and
    ``random_iso(rng, a)``, and the JSON pairs ``object_to_json`` /
    ``object_from_json`` and ``morphism_to_json`` / ``morphism_from_json``.
    ``make_object`` and ``make_morphism`` raise :class:`ConstraintViolation`
    on data that breaks the structure.  ``divide_left(g, h)`` returns some
    x with g @ x == h, or None, and x is unique when g is mono;
    ``divide_right(g, h)`` returns some x with x @ g == h, or None, and x
    is unique when g is epi.
    """

    name: str = "?"

    def try_morphism(self, dom: CatObject, cod: CatObject, payload) -> Optional[Morphism]:
        try:
            return self.make_morphism(dom, cod, payload)
        except ConstraintViolation:
            return None

    _op_cache: Optional["Category"] = None

    def opposite(self) -> "Category":
        if self._op_cache is None:
            self._op_cache = Opposite(self)
        return self._op_cache


def opposite(c: Category) -> Category:
    """The opposite category; an involution (op of op is the original)."""
    if isinstance(c, Opposite):
        return c.base
    return c.opposite()


class Opposite(Category):
    """Formal dual of a category.

    Objects are shared with the base; a morphism a -> b here wraps a
    base morphism b -> a.  Kernels become cokernels and vice versa, so
    every dual notion is available without reimplementing anything.
    """

    def __init__(self, base: Category):
        self.base = base
        self.name = base.name + "^op"

    def _obj(self, a: CatObject) -> CatObject:
        return CatObject(self, a.payload)

    def _base_obj(self, a: CatObject) -> CatObject:
        return CatObject(self.base, a.payload)

    def wrap(self, f: Morphism) -> Morphism:
        if f.category is not self.base:
            raise ValueError("can only wrap morphisms of the base category")
        return Morphism(self, self._obj(f.cod), self._obj(f.dom), f)

    def unwrap(self, f: Morphism) -> Morphism:
        if f.category is not self:
            raise ValueError("morphism does not belong to this opposite category")
        return f.payload

    # objects
    def zero_object(self):
        return self._obj(self.base.zero_object())

    def is_zero_object(self, a):
        return self.base.is_zero_object(self._base_obj(a))

    # structural morphisms
    def identity(self, a):
        return self.wrap(self.base.identity(self._base_obj(a)))

    def zero_morphism(self, a, b):
        return self.wrap(self.base.zero_morphism(self._base_obj(b), self._base_obj(a)))

    def is_zero_morphism(self, f):
        return self.base.is_zero_morphism(self.unwrap(f))

    # additive structure
    def compose(self, g, f):
        if f.cod != g.dom:
            raise ValueError("morphisms do not compose")
        return self.wrap(self.base.compose(self.unwrap(f), self.unwrap(g)))

    def add(self, f, g):
        return self.wrap(self.base.add(self.unwrap(f), self.unwrap(g)))

    def negate(self, f):
        return self.wrap(self.base.negate(self.unwrap(f)))

    def biproduct(self, a, b):
        return _OppositeBiproduct(self, self.base.biproduct(self._base_obj(a), self._base_obj(b)))

    # limits
    def _dual_cone(self, cone: Cone, of: Morphism, kind: str) -> Cone:
        return Cone(kind=kind, of=of, apex=self._obj(cone.apex), leg=self.wrap(cone.leg))

    def kernel(self, f):
        return self._dual_cone(self.base.cokernel(self.unwrap(f)), f, "kernel")

    def cokernel(self, f):
        return self._dual_cone(self.base.kernel(self.unwrap(f)), f, "cokernel")

    # division
    def divide_left(self, g, h):
        u = self.base.divide_right(self.unwrap(g), self.unwrap(h))
        return None if u is None else self.wrap(u)

    def divide_right(self, g, h):
        u = self.base.divide_left(self.unwrap(g), self.unwrap(h))
        return None if u is None else self.wrap(u)

    def is_iso(self, f):
        return self.base.is_iso(self.unwrap(f))

    # construction and generation
    def make_object(self, payload):
        return self._obj(self.base.make_object(payload))

    def make_morphism(self, dom, cod, payload):
        return self.wrap(self.base.make_morphism(self._base_obj(cod), self._base_obj(dom), payload))

    def random_object(self, rng, dim_bound):
        return self._obj(self.base.random_object(rng, dim_bound))

    def random_morphism(self, rng, a, b):
        return self.wrap(self.base.random_morphism(rng, self._base_obj(b), self._base_obj(a)))

    def random_iso(self, rng, a):
        return self.wrap(self.base.random_iso(rng, self._base_obj(a)))

    # serialization: payloads are shared with the base, arrows stay reversed
    def object_to_json(self, a):
        return self.base.object_to_json(self._base_obj(a))

    def object_from_json(self, blob):
        return self._obj(self.base.object_from_json(blob))

    def morphism_to_json(self, f):
        return self.base.morphism_to_json(self.unwrap(f))

    def morphism_from_json(self, blob):
        return self.wrap(self.base.morphism_from_json(blob))

    def opposite(self):
        return self.base


def dualize(f: Morphism) -> Morphism:
    """Move a morphism to the opposite category (or back)."""
    c = f.category
    if isinstance(c, Opposite):
        return c.unwrap(f)
    op = c.opposite()
    return op.wrap(f)


def dualize_square(sq: Square) -> Square:
    """Transport a square across duality.

    Top and bottom trade places (dualized), as do left and right;
    pushout squares become pullback squares and conversely.  The result
    is a pullback (pushout) of its cospan (span), but in general not the
    canonical one: its apex takes the biproduct summands in the other
    order.
    """
    flip = {"pushout": "pullback", "pullback": "pushout"}
    return Square(
        top=dualize(sq.bottom),
        left=dualize(sq.right),
        bottom=dualize(sq.top),
        right=dualize(sq.left),
        provenance=flip.get(sq.provenance, sq.provenance),
    )


# --------------------------------------------------------------- generic ops

def kernel(f: Morphism) -> Cone:
    return f.category.kernel(f)


def cokernel(f: Morphism) -> Cone:
    return f.category.cokernel(f)


def decompose(f: Morphism) -> Decomposition:
    """Canonical factorization through the coimage and the image."""
    c = f.category
    kc = c.kernel(f)
    coim_cone = c.cokernel(kc.leg)
    cc = c.cokernel(f)
    im_cone = c.kernel(cc.leg)
    through_coim = coim_cone.factor(f)
    if through_coim is None:
        raise RuntimeError("cokernel cone refused to factor f through its own coimage")
    fbar = im_cone.factor(through_coim)
    if fbar is None:
        raise RuntimeError("kernel cone refused to factor f through its own image")
    return Decomposition(coim=coim_cone.leg, fbar=fbar, im=im_cone.leg,
                         kernel=kc, cokernel=cc)


def classify(f: Morphism) -> MorphismClass:
    """The flags of f, read off one decomposition (:meth:`Decomposition.flags`)."""
    return decompose(f).flags()


def _pushout_data(alpha: Morphism, g: Morphism):
    """Pushout of the span (alpha: C -> A, g: C -> D).

    Built as the cokernel of the combined map C -> A (+) D; returns the
    square together with the cokernel cone and the biproduct, which the
    mediator searches need.
    """
    if alpha.dom != g.dom:
        raise ValueError("span legs must share their domain")
    c = alpha.category
    bp = c.biproduct(alpha.cod, g.cod)
    cone = c.cokernel(bp.pair(alpha, c.negate(g)))
    bottom, right = bp.split_out(cone.leg)
    sq = Square(top=g, left=alpha, bottom=bottom, right=right, provenance="pushout")
    return sq, cone, bp


def _pullback_data(f: Morphism, t: Morphism):
    """Pullback of the cospan (f: A -> B, t: D -> B), dual construction."""
    if f.cod != t.cod:
        raise ValueError("cospan legs must share their codomain")
    c = f.category
    bp = c.biproduct(f.dom, t.dom)
    cone = c.kernel(bp.copair(f, c.negate(t)))
    left, top = bp.split_in(cone.leg)
    sq = Square(top=top, left=left, bottom=f, right=t, provenance="pullback")
    return sq, cone, bp


def pushout(alpha: Morphism, g: Morphism) -> Square:
    return _pushout_data(alpha, g)[0]


def pullback(f: Morphism, t: Morphism) -> Square:
    return _pullback_data(f, t)[0]


def pullback_mediator(sq: Square) -> Optional[Morphism]:
    """The comparison from sq's apex into the canonical pullback of its cospan."""
    _, cone, bp = _pullback_data(sq.bottom, sq.right)
    return cone.factor(bp.pair(sq.left, sq.top))


def pushout_mediator(sq: Square) -> Optional[Morphism]:
    """The comparison from the canonical pushout of sq's span to its corner."""
    _, cone, bp = _pushout_data(sq.left, sq.top)
    return cone.factor(bp.copair(sq.bottom, sq.right))


def is_pullback(sq: Square) -> bool:
    """Does the (commutative) square satisfy the pullback universal property?"""
    med = pullback_mediator(sq)
    return med is not None and sq.top.category.is_iso(med)


def is_pushout(sq: Square) -> bool:
    med = pushout_mediator(sq)
    return med is not None and sq.top.category.is_iso(med)


def induced_kernel_map(sq: Square) -> Morphism:
    """The unique map Ker(top) -> Ker(bottom) restricting sq.left."""
    c = sq.top.category
    k_top = c.kernel(sq.top)
    k_bot = c.kernel(sq.bottom)
    u = k_bot.factor(c.compose(sq.left, k_top.leg))
    if u is None:
        raise RuntimeError("square commutes but the kernel map did not factor")
    return u


def induced_cokernel_map(sq: Square) -> Morphism:
    """The unique map Cok(top) -> Cok(bottom) extending sq.right; the
    dual of :func:`induced_kernel_map`."""
    return dualize(induced_kernel_map(dualize_square(sq)))


def subobject_iso(u: Morphism, v: Morphism) -> Optional[Morphism]:
    """The canonical iso w with v @ w == u, when u and v present the
    same subobject of their common codomain; otherwise None.

    Intended for monomorphisms (kernel legs, image legs), where the
    mediating morphisms are unique.  Representative equality of the
    underlying payloads is deliberately not used.
    """
    if u.cod != v.cod:
        return None
    c = u.category
    w = c.divide_left(v, u)
    wp = c.divide_left(u, v)
    if w is None or wp is None:
        return None
    if c.compose(w, wp) != c.identity(v.dom) or c.compose(wp, w) != c.identity(u.dom):
        return None
    return w


def quotient_iso(p: Morphism, q: Morphism) -> Optional[Morphism]:
    """The canonical iso w with w @ p == q for two presentations of the
    same quotient of their common domain; otherwise None.  Dual of
    :func:`subobject_iso`, intended for epimorphisms.
    """
    w = subobject_iso(dualize(q), dualize(p))
    return None if w is None else dualize(w)
