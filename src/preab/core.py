"""Core machinery for additive categories with kernels and cokernels.

A :class:`Category` supplies composition, the additive structure,
biproducts, kernel/cokernel constructors, canonical decompositions and
morphism classification, which reads a closed form for each backend and
builds no decomposition.  Each fact is stored once: a classification
keeps mono, epi and strict and derives the rest, a decomposition keeps
its three legs, and a cone its leg.  Everything else here is generic:
pushouts and pullbacks via biproducts, induced maps between kernels and
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

from dataclasses import dataclass
from typing import Any, Optional


class ConstraintViolation(ValueError):
    """Raised when data does not satisfy a backend's structure constraints."""


@dataclass(frozen=True)
class Morphism:
    """A morphism with explicit domain and codomain, and its category,
    which its objects do not name (see :class:`Category`).

    The payload is backend-specific (a matrix for the concrete
    categories here, a wrapped base morphism in an opposite category).
    Composition is available as ``g @ f``.  Two morphisms are equal when
    they live in the same category object (a :class:`Category` defines
    no ``__eq__``) and have equal domains, codomains and payloads.
    """

    category: "Category"
    dom: Any
    cod: Any
    payload: Any

    def __matmul__(self, other: "Morphism") -> "Morphism":
        return self.category.compose(self, other)

    def __add__(self, other: "Morphism") -> "Morphism":
        return self.category.add(self, other)

    def __sub__(self, other: "Morphism") -> "Morphism":
        return self.category.add(self, self.category.negate(other))

    def __neg__(self) -> "Morphism":
        return self.category.negate(self)

    def __repr__(self):
        return f"<{self.category.name} morphism {self.dom!r} -> {self.cod!r}>"


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
    leg: Morphism

    @property
    def apex(self):
        """The kernel or cokernel object: the end of ``leg`` away from f."""
        return self.leg.dom if self.kind == "kernel" else self.leg.cod

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
    With inj1, inj2 and proj1, proj2 the biproduct's injections and
    projections, a category defines four maps without composing through
    them:

    - ``pair(f, g)``, for f: X -> A and g: X -> B, is the map
      X -> A (+) B equal to inj1 @ f + inj2 @ g;
    - ``copair(f, g)``, for f: A -> X and g: B -> X, is the map
      A (+) B -> X equal to f @ proj1 + g @ proj2;
    - ``split_out(h)``, for h out of A (+) B, is (h @ inj1, h @ inj2);
    - ``split_in(h)``, for h into A (+) B, is (proj1 @ h, proj2 @ h).

    Each raises ValueError when a leg does not fit.  The injections are
    ``pair(id, 0)`` and ``pair(0, id)``, the projections ``copair(id, 0)``
    and ``copair(0, id)``.
    """

    category: "Category"
    a: Any
    b: Any
    ob: Any


class _OppositeBiproduct(Biproduct):
    """A (+) B in an opposite category: the base biproduct B (+) A read
    backwards.  Pair and copair trade places, as do split_out and
    split_in, and each swaps its legs.  So the dual of a pushout of the
    opposite category is exactly the base pullback of the dual cospan,
    and conversely (see :func:`dualize_square`)."""

    def __init__(self, op: "Opposite", a, b):
        self._base = op.base.biproduct(b, a)
        self.category, self.a, self.b, self.ob = op, a, b, self._base.ob

    def pair(self, f: Morphism, g: Morphism) -> Morphism:
        op = self.category
        return op.wrap(self._base.copair(op.unwrap(g), op.unwrap(f)))

    def copair(self, f: Morphism, g: Morphism) -> Morphism:
        op = self.category
        return op.wrap(self._base.pair(op.unwrap(g), op.unwrap(f)))

    def split_out(self, h: Morphism) -> tuple[Morphism, Morphism]:
        op = self.category
        v, u = self._base.split_in(op.unwrap(h))
        return op.wrap(u), op.wrap(v)

    def split_in(self, h: Morphism) -> tuple[Morphism, Morphism]:
        op = self.category
        v, u = self._base.split_out(op.unwrap(h))
        return op.wrap(u), op.wrap(v)


@dataclass(frozen=True)
class MorphismClass:
    """Mono, epi and strict of a morphism, and the four flags they fix.

    A morphism is a kernel iff it is mono and strict, and a cokernel iff
    it is epi and strict, so no search over candidate morphisms is
    needed.  It is an iso iff it is mono, epi and strict: when f is mono
    its coimage leg is an iso, when f is epi its image leg is, and then
    f = im @ fbar @ coim is an iso exactly when fbar is.
    """

    mono: bool
    epi: bool
    strict: bool

    @property
    def bimorphism(self) -> bool:
        return self.mono and self.epi

    @property
    def iso(self) -> bool:
        return self.mono and self.epi and self.strict

    @property
    def is_kernel(self) -> bool:
        return self.mono and self.strict

    @property
    def is_cokernel(self) -> bool:
        return self.epi and self.strict

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
    strict exactly when fbar is an isomorphism; its flags come from
    :func:`classify`, which builds no decomposition.

    The matrix backends read both legs off f itself, with no kernel or
    cokernel cone in between (see ``MatrixBackend.decompose``):

    - *row space* (flag categories): with K the kernel leg, the rows of
      cok K span ker(K^T), the annihilator of ker f, which is the row
      space of f; so ``coim`` is the non-zero rows of rref(f).  Dually,
      ker(cok f) is the column space of f, so ``im`` is its canonical
      column basis.
    - *saturation* (latz): the integer kernel of f is saturated and in
      column Hermite form, so it is its own saturation and ``coim`` is
      its quotient projection; ``im`` is the saturation of the image of
      f, the integer kernel of its annihilator.

    >>> from preab.backends import VECTQ
    >>> from preab.linalg import RatMatrix
    >>> f = VECTQ.make_morphism(VECTQ.obj(2), VECTQ.obj(2),
    ...                         RatMatrix.from_rows([[1, 2], [2, 4]]))
    >>> d = decompose(f)
    >>> d.coim.payload == RatMatrix.from_rows([[1, 2]])
    True
    >>> d.im.payload == RatMatrix.from_rows([[1], [2]])
    True
    >>> d.fbar.payload == RatMatrix.identity(1)
    True
    >>> d.recompose() == f
    True
    """

    coim: Morphism
    fbar: Morphism
    im: Morphism

    def recompose(self) -> Morphism:
        return self.im @ self.fbar @ self.coim


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

    Backends are stateless singletons.  An object is a payload that
    ``make_object`` accepted and names no category, so a category and
    its opposite share their objects; a morphism carries its category,
    and mixing the morphisms of two categories raises.  Each backend, and
    :class:`Opposite`, defines ``zero_object``, ``is_zero_object``,
    ``identity``, ``zero_morphism``,
    ``is_zero_morphism``, ``compose(g, f)`` (``g @ f``), ``add``,
    ``negate``, ``biproduct(a, b)`` (a :class:`Biproduct` defining the
    maps ``pair``, ``copair``, ``split_out`` and ``split_in``),
    ``kernel`` and ``cokernel`` (each a :class:`Cone`), ``decompose``
    (the :class:`Decomposition` of a morphism, its three legs),
    ``classify`` (its :class:`MorphismClass`: mono, epi and strict, read
    off a closed form with no decomposition built), ``is_iso`` (the
    ``iso`` flag of ``classify``), the generators
    ``random_object(rng, dim_bound)``, ``random_morphism(rng, a, b)`` and
    ``random_iso(rng, a)``, and ``object_to_json`` and ``morphism_to_json``.
    A backend also parses JSON with ``object_from_json`` and
    ``morphism_from_json``; instances serialize on the base side only, so
    :class:`Opposite` does not.
    ``make_object`` and ``make_morphism`` raise :class:`ConstraintViolation`
    on data that breaks the structure.  ``divide_left(g, h)`` returns some
    x with g @ x == h, or None, and x is unique when g is mono;
    ``divide_right(g, h)`` returns some x with x @ g == h, or None, and x
    is unique when g is epi.
    """

    name: str = "?"

    def try_morphism(self, dom, cod, payload) -> Optional[Morphism]:
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
    return c.opposite()


class Opposite(Category):
    """Formal dual of a category, a view of its base.

    The objects are the base's own payloads, so every object method
    delegates unchanged; only morphisms are wrapped: a morphism a -> b
    here wraps a base morphism b -> a.  Kernels become cokernels and
    vice versa, so every dual notion is available without
    reimplementing anything.
    """

    def __init__(self, base: Category):
        self.base = base
        self.name = base.name + "^op"

    def wrap(self, f: Morphism) -> Morphism:
        if f.category is not self.base:
            raise ValueError("can only wrap morphisms of the base category")
        return Morphism(self, f.cod, f.dom, f)

    def unwrap(self, f: Morphism) -> Morphism:
        if f.category is not self:
            raise ValueError("morphism does not belong to this opposite category")
        return f.payload

    # objects
    def zero_object(self):
        return self.base.zero_object()

    def is_zero_object(self, a):
        return self.base.is_zero_object(a)

    # structural morphisms
    def identity(self, a):
        return self.wrap(self.base.identity(a))

    def zero_morphism(self, a, b):
        return self.wrap(self.base.zero_morphism(b, a))

    def is_zero_morphism(self, f):
        return self.base.is_zero_morphism(self.unwrap(f))

    # additive structure
    def compose(self, g, f):
        return self.wrap(self.base.compose(self.unwrap(f), self.unwrap(g)))

    def add(self, f, g):
        return self.wrap(self.base.add(self.unwrap(f), self.unwrap(g)))

    def negate(self, f):
        return self.wrap(self.base.negate(self.unwrap(f)))

    def biproduct(self, a, b):
        return _OppositeBiproduct(self, a, b)

    # limits
    def _dual_cone(self, cone: Cone, of: Morphism, kind: str) -> Cone:
        return Cone(kind=kind, of=of, leg=self.wrap(cone.leg))

    def kernel(self, f):
        return self._dual_cone(self.base.cokernel(self.unwrap(f)), f, "kernel")

    def cokernel(self, f):
        return self._dual_cone(self.base.kernel(self.unwrap(f)), f, "cokernel")

    def decompose(self, f):
        # the base decomposition backwards: its image leg is the coimage here
        d = self.base.decompose(self.unwrap(f))
        return Decomposition(coim=self.wrap(d.im), fbar=self.wrap(d.fbar), im=self.wrap(d.coim))

    def classify(self, f):
        # the one place where mono and epi trade
        c = self.base.classify(self.unwrap(f))
        return MorphismClass(mono=c.epi, epi=c.mono, strict=c.strict)

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
        return self.base.make_object(payload)

    def make_morphism(self, dom, cod, payload):
        return self.wrap(self.base.make_morphism(cod, dom, payload))

    def random_object(self, rng, dim_bound):
        return self.base.random_object(rng, dim_bound)

    def random_morphism(self, rng, a, b):
        return self.wrap(self.base.random_morphism(rng, b, a))

    def random_iso(self, rng, a):
        return self.wrap(self.base.random_iso(rng, a))

    # serialization: objects are the base's own, arrows stay reversed
    def object_to_json(self, a):
        return self.base.object_to_json(a)

    def morphism_to_json(self, f):
        return self.base.morphism_to_json(self.unwrap(f))

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
    pushout squares become pullback squares and conversely.  The dual of
    the canonical pushout (pullback) is the canonical pullback (pushout)
    of the dual cospan (span): an opposite biproduct is the base one read
    backwards, and the canonical cones of -h are those of h.
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
    return f.category.decompose(f)


def classify(f: Morphism) -> MorphismClass:
    """The mono, epi and strict flags of f and those derived from them.

    Each category answers through its ``classify`` hook with no
    decomposition built: a matrix backend reads rank and strictness off
    its closed form (``rank_and_strict``), and an opposite category
    swaps its base's mono and epi.
    """
    return f.category.classify(f)


def _pushout_cone(alpha: Morphism, g: Morphism) -> tuple[Cone, Biproduct]:
    """The cokernel of the span's combined map C -> A (+) D, and that biproduct."""
    if alpha.dom != g.dom:
        raise ValueError("span legs must share their domain")
    c = alpha.category
    bp = c.biproduct(alpha.cod, g.cod)
    return c.cokernel(bp.pair(alpha, c.negate(g))), bp


def _pullback_cone(f: Morphism, t: Morphism) -> tuple[Cone, Biproduct]:
    """The kernel of the cospan's combined map A (+) D -> B, and that biproduct."""
    if f.cod != t.cod:
        raise ValueError("cospan legs must share their codomain")
    c = f.category
    bp = c.biproduct(f.dom, t.dom)
    return c.kernel(bp.copair(f, c.negate(t))), bp


def pushout(alpha: Morphism, g: Morphism) -> Square:
    """Pushout of the span (alpha: C -> A, g: C -> D)."""
    cone, bp = _pushout_cone(alpha, g)
    bottom, right = bp.split_out(cone.leg)
    return Square(top=g, left=alpha, bottom=bottom, right=right, provenance="pushout")


def pullback(f: Morphism, t: Morphism) -> Square:
    """Pullback of the cospan (f: A -> B, t: D -> B), the dual construction."""
    cone, bp = _pullback_cone(f, t)
    left, top = bp.split_in(cone.leg)
    return Square(top=top, left=left, bottom=f, right=t, provenance="pullback")


def pullback_mediator(sq: Square) -> Optional[Morphism]:
    """The comparison from sq's apex into the canonical pullback of its cospan."""
    cone, bp = _pullback_cone(sq.bottom, sq.right)
    return cone.factor(bp.pair(sq.left, sq.top))


def pushout_mediator(sq: Square) -> Optional[Morphism]:
    """The comparison from the canonical pushout of sq's span to its corner."""
    cone, bp = _pushout_cone(sq.left, sq.top)
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
