"""Per-instance checkers for the exactness-condition catalog.

The catalog has two sides of seven conditions each.  The right-side
conditions say, in various ways, that kernels survive composition and
pushouts; the left-side conditions are their mirror images for cokernels
and pullbacks.  Alongside the catalog there are unconditional checks on
the middle arrow of the canonical decomposition, two composite-cone
identities, an image-slide law and a sampling probe for semi-stability.
Every named check is declared once, in one table with the instance kind
it takes; each left-side check, and the image slide across cokernels, is
its mirror check run in the opposite category.  A condition's name is a
plain string of :data:`CONDITION_NAMES`, such as "right.iii", and
:func:`condition_side` is the one lookup that reads its side and index;
an unknown name is refused where it is looked up.

Checkers are pure.  Each returns a CheckResult whose instance payload
serializes to JSON, so any failure can be replayed.  Each instance kind
states its generating edges once (``edges`` and ``with_edges``); its
JSON and the audit's shrinker both read them.

Right-side catalog (left side is the mirror statement):

    i    the middle arrow of every canonical decomposition is epi
    ii   if outer @ inner arises as a kernel, so does inner
    iii  a pushout square whose top edge is a kernel is also a pullback
    iv   in such a square the bottom edge is mono
    v    as iv, additionally requiring the right edge to be a cokernel
    vi   the composite of two kernels is a kernel
    vii  a pushout square whose top edge is strict induces an epi
         comparison between the kernels of its vertical edges
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Optional

from .backends import get_backend
from .core import (
    Morphism,
    Opposite,
    Square,
    classify,
    cokernel,
    decompose,
    dualize,
    dualize_square,
    induced_kernel_map,
    is_pullback,
    is_pushout,
    kernel,
    pullback,
    pullback_mediator,
    pushout,
    quotient_iso,
    subobject_iso,
)

PASS = "pass"
FAIL = "fail"
VACUOUS = "vacuous"

INDICES = ("i", "ii", "iii", "iv", "v", "vi", "vii")
# the catalog's condition names: right.i ... right.vii, then left.i ... left.vii
CONDITION_NAMES = tuple(f"{side}.{index}" for side in ("right", "left") for index in INDICES)


def condition_side(name: str) -> tuple[str, str]:
    """A condition name's (side, index), e.g. ("right", "iii"); ValueError on any other name."""
    if name not in CONDITION_NAMES:
        raise ValueError(f"unknown condition: {name!r} (known: {', '.join(CONDITION_NAMES)})")
    side, _, index = name.partition(".")
    return side, index


# ---------------------------------------------------------------------------
# instances


def _backend_name(category) -> str:
    if isinstance(category, Opposite):
        raise ValueError("opposite-category instances do not serialize; "
                         "serialize the base-side instance instead")
    return category.name


def _mor_json(f: Morphism) -> dict:
    return f.category.morphism_to_json(f)


def _instance_json(inst, **extra) -> dict:
    """An instance as JSON: kind, backend, the extra keys, then its edges."""
    blob = {"kind": inst.kind, "backend": _backend_name(inst.category), **extra}
    blob.update((key, _mor_json(f)) for key, (f, _, _) in inst.edges().items())
    return blob


@dataclass(frozen=True)
class MorphismInstance:
    """A single morphism."""

    f: Morphism
    kind = "morphism"

    @property
    def category(self):
        return self.f.category

    def edges(self) -> dict:
        return {"morphism": (self.f, 0, 1)}

    def with_edges(self, morphisms: dict) -> "MorphismInstance":
        return MorphismInstance(morphisms["morphism"])

    def dualize(self) -> "MorphismInstance":
        return MorphismInstance(dualize(self.f))

    def to_json(self) -> dict:
        return _instance_json(self)


@dataclass(frozen=True)
class PairInstance:
    """A composable pair; the composite is outer @ inner."""

    outer: Morphism
    inner: Morphism
    kind = "pair"

    def __post_init__(self):
        if self.inner.category is not self.outer.category:
            raise ValueError("pair members live in different categories")
        if self.inner.cod != self.outer.dom:
            raise ValueError("pair is not composable")

    @property
    def category(self):
        return self.outer.category

    @property
    def composite(self) -> Morphism:
        return self.outer @ self.inner

    def edges(self) -> dict:
        return {"inner": (self.inner, 0, 1), "outer": (self.outer, 1, 2)}

    def with_edges(self, morphisms: dict) -> "PairInstance":
        return PairInstance(outer=morphisms["outer"], inner=morphisms["inner"])

    def dualize(self) -> "PairInstance":
        return PairInstance(outer=dualize(self.inner), inner=dualize(self.outer))

    def to_json(self) -> dict:
        return _instance_json(self)


# a square's generating edges by provenance: pushouts keep their span,
# pullbacks their cospan, and a merely commutative square all four edges
_SQUARE_EDGES = {
    "pushout": (("left", 0, 1), ("top", 0, 2)),
    "pullback": (("bottom", 0, 2), ("right", 1, 2)),
    "commutative": (("top", 0, 2), ("left", 0, 1), ("bottom", 1, 3), ("right", 2, 3)),
}


def _build_square(provenance: str, morphisms: dict) -> Square:
    if provenance == "pushout":
        return pushout(morphisms["left"], morphisms["top"])
    if provenance == "pullback":
        return pullback(morphisms["bottom"], morphisms["right"])
    return Square(**morphisms)


@dataclass(frozen=True)
class SquareInstance:
    """A commutative square, usually a constructed pushout or pullback.

    Pushout squares serialize by their generating span (left and top
    edges) and pullback squares by their generating cospan, and replay
    rebuilds the canonical square of that span or cospan: the identical
    square, also for a pullback dualized from a pushout of the opposite
    category (see :func:`~preab.core.dualize_square`).
    """

    square: Square
    kind = "square"

    @property
    def category(self):
        return self.square.top.category

    def edges(self) -> dict:
        sq = self.square
        return {key: (getattr(sq, key), dom, cod)
                for key, dom, cod in _SQUARE_EDGES[sq.provenance]}

    def with_edges(self, morphisms: dict) -> "SquareInstance":
        return SquareInstance(_build_square(self.square.provenance, morphisms))

    def dualize(self) -> "SquareInstance":
        return SquareInstance(dualize_square(self.square))

    def to_json(self) -> dict:
        return _instance_json(self, provenance=self.square.provenance)


@dataclass(frozen=True)
class ProbeInstance:
    """One semi-stability sample: a (co)kernel and a map to push it along."""

    role: str
    f: Morphism
    along: Morphism
    kind = "probe"

    def __post_init__(self):
        if self.role not in ("kernel", "cokernel"):
            raise ValueError(f"unknown probe role: {self.role!r}")
        if self.along.category is not self.f.category:
            raise ValueError("probe members live in different categories")
        if self.role == "kernel" and self.along.dom != self.f.dom:
            raise ValueError("pushout probe needs a map out of the kernel's domain")
        if self.role == "cokernel" and self.along.cod != self.f.cod:
            raise ValueError("pullback probe needs a map into the cokernel's codomain")

    @property
    def category(self):
        return self.f.category

    def edges(self) -> dict:
        along = (self.along, 0, 2) if self.role == "kernel" else (self.along, 2, 1)
        return {"morphism": (self.f, 0, 1), "along": along}

    def with_edges(self, morphisms: dict) -> "ProbeInstance":
        return ProbeInstance(role=self.role, f=morphisms["morphism"], along=morphisms["along"])

    def dualize(self) -> "ProbeInstance":
        other = "cokernel" if self.role == "kernel" else "kernel"
        return ProbeInstance(role=other, f=dualize(self.f), along=dualize(self.along))

    def to_json(self) -> dict:
        return _instance_json(self, role=self.role)


Instance = Any  # MorphismInstance | PairInstance | SquareInstance | ProbeInstance


def _require(blob: dict, key: str):
    if key not in blob:
        raise ValueError(f"instance is missing key {key!r}")
    return blob[key]


def instance_from_json(blob: dict) -> Instance:
    """Parse any instance kind; raises ValueError on malformed input."""
    if not isinstance(blob, dict):
        raise ValueError("instance must be a JSON object")
    cat = get_backend(_require(blob, "backend"))
    kind = _require(blob, "kind")
    if kind == "morphism":
        return MorphismInstance(cat.morphism_from_json(_require(blob, "morphism")))
    if kind == "pair":
        return PairInstance(outer=cat.morphism_from_json(_require(blob, "outer")),
                            inner=cat.morphism_from_json(_require(blob, "inner")))
    if kind == "square":
        provenance = _require(blob, "provenance")
        if not isinstance(provenance, str) or provenance not in _SQUARE_EDGES:
            raise ValueError(f"unknown square provenance: {provenance!r}")
        return SquareInstance(_build_square(provenance, {
            key: cat.morphism_from_json(_require(blob, key))
            for key, _, _ in _SQUARE_EDGES[provenance]}))
    if kind == "probe":
        return ProbeInstance(role=_require(blob, "role"),
                             f=cat.morphism_from_json(_require(blob, "morphism")),
                             along=cat.morphism_from_json(_require(blob, "along")))
    raise ValueError(f"unknown instance kind: {kind!r}")


# ---------------------------------------------------------------------------
# results


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one checker on one instance.

    verdict is "pass", "fail" or "vacuous"; failing results always carry
    a witness dict explaining (and, through the instance, replaying) the
    violation.
    """

    check: str
    verdict: str
    instance: Instance
    witness: Optional[dict] = None

    def to_json(self) -> dict:
        return {"check": self.check, "verdict": self.verdict,
                "instance": self.instance.to_json(), "witness": self.witness}


# ---------------------------------------------------------------------------
# right-side conditions


def check_right_i(f: Morphism) -> CheckResult:
    """The middle arrow of the canonical decomposition is an epimorphism."""
    inst = MorphismInstance(f)
    mid = decompose(f).fbar
    if classify(mid).epi:
        return CheckResult("right.i", PASS, inst)
    return CheckResult("right.i", FAIL, inst, {
        "reason": "middle-arrow-not-epi",
        "middle": _mor_json(mid),
    })


def check_right_ii(h: Morphism, l: Morphism) -> CheckResult:
    """If the composite h @ l arises as a kernel then so does l."""
    inst = PairInstance(outer=h, inner=l)
    if not classify(inst.composite).is_kernel:
        return CheckResult("right.ii", VACUOUS, inst)
    flags = classify(l)
    if flags.is_kernel:
        return CheckResult("right.ii", PASS, inst)
    return CheckResult("right.ii", FAIL, inst, {
        "reason": "inner-factor-not-kernel",
        "inner_flags": flags.to_json(),
    })


def _pushout_shaped(sq: Square) -> bool:
    # constructed pushouts are trusted; anything else is verified
    return sq.provenance == "pushout" or is_pushout(sq)


def _pushout_of_kernel(sq: Square) -> bool:
    # the shared hypothesis of right.iii, right.iv and right.v
    return _pushout_shaped(sq) and classify(sq.top).is_kernel


def _bottom_mono(check: str, inst: SquareInstance) -> CheckResult:
    flags = classify(inst.square.bottom)
    if flags.mono:
        return CheckResult(check, PASS, inst)
    return CheckResult(check, FAIL, inst, {
        "reason": "pushed-out-edge-not-mono",
        "bottom_flags": flags.to_json(),
    })


def check_right_iii(sq: Square) -> CheckResult:
    """A pushout square whose top edge is a kernel is also a pullback."""
    inst = SquareInstance(sq)
    if not _pushout_of_kernel(sq):
        return CheckResult("right.iii", VACUOUS, inst)
    if is_pullback(sq):
        return CheckResult("right.iii", PASS, inst)
    med = pullback_mediator(sq)
    return CheckResult("right.iii", FAIL, inst, {
        "reason": "pushout-square-not-pullback",
        "mediator": None if med is None else _mor_json(med),
    })


def check_right_iv(sq: Square) -> CheckResult:
    """A pushout square whose top edge is a kernel has a mono bottom edge."""
    inst = SquareInstance(sq)
    if not _pushout_of_kernel(sq):
        return CheckResult("right.iv", VACUOUS, inst)
    return _bottom_mono("right.iv", inst)


def check_right_v(sq: Square) -> CheckResult:
    """As right.iv, under the extra hypothesis that the right edge is a cokernel."""
    inst = SquareInstance(sq)
    if not (_pushout_of_kernel(sq) and classify(sq.right).is_cokernel):
        return CheckResult("right.v", VACUOUS, inst)
    return _bottom_mono("right.v", inst)


def check_right_vi(h: Morphism, l: Morphism) -> CheckResult:
    """The composite of two kernels is a kernel."""
    inst = PairInstance(outer=h, inner=l)
    if not (classify(l).is_kernel and classify(h).is_kernel):
        return CheckResult("right.vi", VACUOUS, inst)
    flags = classify(inst.composite)
    if flags.is_kernel:
        return CheckResult("right.vi", PASS, inst)
    return CheckResult("right.vi", FAIL, inst, {
        "reason": "composite-of-kernels-not-kernel",
        "composite_flags": flags.to_json(),
    })


def check_right_vii(sq: Square) -> CheckResult:
    """A pushout along a strict top edge induces an epi kernel comparison.

    The comparison runs from the kernel of the top edge to the kernel of
    the bottom edge, over the left leg of the square.
    """
    inst = SquareInstance(sq)
    if not (_pushout_shaped(sq) and classify(sq.top).strict):
        return CheckResult("right.vii", VACUOUS, inst)
    comparison = induced_kernel_map(sq)
    flags = classify(comparison)
    if flags.epi:
        return CheckResult("right.vii", PASS, inst)
    return CheckResult("right.vii", FAIL, inst, {
        "reason": "kernel-comparison-not-epi",
        "comparison": _mor_json(comparison),
        "comparison_flags": flags.to_json(),
    })


# ---------------------------------------------------------------------------
# dispatch and the left side


def check_left(cond: str, instance: Instance) -> CheckResult:
    """Evaluate a left-side condition on a base-side instance.

    The instance is transported to the opposite category, the matching
    right-side checker runs there, and the verdict is relabeled.  The
    returned result keeps the original instance so it serializes (and
    replays) on the base side.  A right-side condition raises ValueError.
    """
    if condition_side(cond)[0] != "left":
        raise ValueError(f"check_left takes a left-side condition, got {cond}")
    return _run(cond, instance)


def check_condition(cond: str, instance: Instance) -> CheckResult:
    """Evaluate any catalog condition, e.g. "right.iii"."""
    condition_side(cond)
    return _run(cond, instance)


# ---------------------------------------------------------------------------
# unconditional decomposition checks


def check_semi_abelian(f: Morphism) -> CheckResult:
    """The middle arrow is a bimorphism (both one-sided conditions at once)."""
    inst = MorphismInstance(f)
    flags = classify(decompose(f).fbar)
    if flags.bimorphism:
        return CheckResult("semi_abelian", PASS, inst)
    return CheckResult("semi_abelian", FAIL, inst, {
        "reason": "middle-arrow-not-bimorphism",
        "middle_flags": flags.to_json(),
    })


def check_strict(f: Morphism) -> CheckResult:
    """The middle arrow is an isomorphism."""
    inst = MorphismInstance(f)
    flags = classify(f)
    if flags.strict:
        return CheckResult("strict", PASS, inst)
    return CheckResult("strict", FAIL, inst, {
        "reason": "middle-arrow-not-iso",
        "flags": flags.to_json(),
    })


def check_composite_cones(f: Morphism, g: Morphism) -> CheckResult:
    """Composite cones ignore image and coimage replacements.

    For composable f then g: the cokernel of g @ (image of f) is the
    cokernel of g @ f, and the kernel of (coimage of g) @ f is the kernel
    of g @ f, each up to the canonical comparison isomorphism.
    """
    inst = PairInstance(outer=g, inner=f)
    composite = g @ f
    u = quotient_iso(cokernel(composite).leg, cokernel(g @ decompose(f).im).leg)
    v = subobject_iso(kernel(composite).leg, kernel(decompose(g).coim @ f).leg)
    if u is not None and v is not None:
        return CheckResult("composite_cones", PASS, inst)
    return CheckResult("composite_cones", FAIL, inst, {
        "reason": "composite-cone-mismatch",
        "cokernel_side_ok": u is not None,
        "kernel_side_ok": v is not None,
    })


def check_image_slide(f: Morphism, g: Morphism, side: str) -> CheckResult:
    """Images slide across an outer kernel: im(g @ f) = g @ im(f).

    side "kernels" checks exactly that, and is vacuous unless g is a
    kernel.  side "cokernels" checks the mirror statement (coimages slide
    across an inner cokernel) by transport to the opposite category, and
    is vacuous unless f is a cokernel.
    """
    return _run(f"image_slide.{side}", PairInstance(outer=g, inner=f))


def _slide_images(inst: PairInstance) -> CheckResult:
    """check_image_slide's side "kernels", on the pair inst."""
    if not classify(inst.outer).is_kernel:
        return CheckResult("image_slide.kernels", VACUOUS, inst)
    composite_image = kernel(cokernel(inst.composite).leg).leg
    slid_image = inst.outer @ decompose(inst.inner).im
    if subobject_iso(composite_image, slid_image) is not None:
        return CheckResult("image_slide.kernels", PASS, inst)
    return CheckResult("image_slide.kernels", FAIL, inst, {
        "reason": "image-does-not-slide",
        "composite_image": _mor_json(composite_image),
        "slid_image": _mor_json(slid_image),
    })


# ---------------------------------------------------------------------------
# semi-stability


def _require_role(f: Morphism, role: str) -> None:
    if role not in ("kernel", "cokernel"):
        raise ValueError(f"unknown probe role: {role!r}")
    flags = classify(f)
    if not (flags.is_kernel if role == "kernel" else flags.is_cokernel):
        raise ValueError(f"probed morphism is not a {role}")


def check_semistable_step(inst: ProbeInstance) -> CheckResult:
    """One semi-stability sample: push the morphism out, reclassify the copy.

    Classifies inst.f first and raises ValueError unless it plays its
    role; this is the entry point for replay and shrinking.
    """
    _require_role(inst.f, inst.role)
    return _semistable_step(inst)


def _semistable_step(inst: ProbeInstance) -> CheckResult:
    """check_semistable_step for a probed morphism whose role is validated."""
    if inst.role == "kernel":
        moved = classify(pushout(inst.along, inst.f).bottom)
        ok = moved.is_kernel
    else:
        moved = classify(pullback(inst.f, inst.along).top)
        ok = moved.is_cokernel
    if ok:
        return CheckResult("semistable", PASS, inst)
    return CheckResult("semistable", FAIL, inst, {
        "reason": f"moved-copy-not-{inst.role}",
        "moved_flags": moved.to_json(),
    })


def probe_semistable(f: Morphism, role: str, n_samples: int, seed,
                     dim_bound: int = 3) -> CheckResult:
    """Sample pushouts (resp. pullbacks) along random maps and watch the copy.

    Falsification only: "pass" means no counterexample surfaced within
    n_samples tries, never a proof.  A failing result carries the single
    offending sample, which replays through check_semistable_step.
    f is classified once, to validate its role, before any sample.
    """
    cat = f.category
    _require_role(f, role)
    for i in range(n_samples):
        rng = random.Random(f"{seed}:semistable:{i}")
        other = cat.random_object(rng, dim_bound)
        if role == "kernel":
            along = cat.random_morphism(rng, f.dom, other)
        else:
            along = cat.random_morphism(rng, other, f.cod)
        step = _semistable_step(ProbeInstance(role=role, f=f, along=along))
        if step.verdict == FAIL:
            witness = dict(step.witness)
            witness["sample_index"] = i
            return CheckResult("semistable", FAIL, step.instance, witness)
    return CheckResult("semistable", PASS, MorphismInstance(f))


# ---------------------------------------------------------------------------
# the check catalog (CLI surface)


def _mirrored(name: str, check: Callable[[Instance], CheckResult]):
    """check's mirror statement, named name: check runs on the dualized
    instance, and its result is relabelled as name on the instance.  Its
    witness describes the opposite category, where mono and epi trade
    places, so it is kept whole under "dual"."""
    def mirror(instance: Instance) -> CheckResult:
        res = check(instance.dualize())
        witness = None if res.witness is None else {"dual": res.witness}
        return CheckResult(name, res.verdict, instance, witness)
    return mirror


# check name -> (the instance kind it takes, its checker)
_CATALOG: dict[str, tuple[str, Callable[[Instance], CheckResult]]] = {
    "right.i": ("morphism", lambda inst: check_right_i(inst.f)),
    "right.ii": ("pair", lambda inst: check_right_ii(inst.outer, inst.inner)),
    "right.iii": ("square", lambda inst: check_right_iii(inst.square)),
    "right.iv": ("square", lambda inst: check_right_iv(inst.square)),
    "right.v": ("square", lambda inst: check_right_v(inst.square)),
    "right.vi": ("pair", lambda inst: check_right_vi(inst.outer, inst.inner)),
    "right.vii": ("square", lambda inst: check_right_vii(inst.square)),
}
_CATALOG.update({f"left.{i}": (kind, _mirrored(f"left.{i}", check))
                 for i, (kind, check) in zip(INDICES, _CATALOG.values())})
_CATALOG.update({
    "semi_abelian": ("morphism", lambda inst: check_semi_abelian(inst.f)),
    "strict": ("morphism", lambda inst: check_strict(inst.f)),
    "composite_cones": ("pair", lambda inst: check_composite_cones(inst.inner, inst.outer)),
    "image_slide.kernels": ("pair", _slide_images),
    "image_slide.cokernels": ("pair", _mirrored("image_slide.cokernels", _slide_images)),
    "semistable": ("probe", lambda inst: check_semistable_step(inst)),
})

CHECKS = {name: check for name, (_, check) in _CATALOG.items()}


def _run(name: str, instance: Instance) -> CheckResult:
    try:
        kind, check = _CATALOG[name]
    except KeyError:
        raise ValueError(f"unknown check: {name!r} (known: {', '.join(sorted(_CATALOG))})")
    got = getattr(instance, "kind", type(instance).__name__)
    if got != kind:
        raise ValueError(f"{name} expects a {kind} instance, got {got}")
    return check(instance)


def run_check(name: str, instance: Instance) -> CheckResult:
    """Run a named checker; raises ValueError for unknown names or bad kinds."""
    return _run(name, instance)
