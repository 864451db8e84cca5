"""preab: a workbench for exact computations in preabelian categories.

Compute kernels, cokernels, images, coimages and the canonical
decomposition of any morphism in several concrete categories (rational
vector spaces, spaces with marked subspace chains, free abelian
groups); build pushouts and pullbacks; and audit, by seeded random
sampling, which exactness properties each category appears to satisfy.
"""

from .core import (
    Category,
    Cone,
    ConstraintViolation,
    Decomposition,
    Morphism,
    MorphismClass,
    Square,
    classify,
    cokernel,
    decompose,
    dualize,
    dualize_square,
    induced_cokernel_map,
    induced_kernel_map,
    is_pullback,
    is_pushout,
    kernel,
    opposite,
    pullback,
    pushout,
    quotient_iso,
    subobject_iso,
)
from .backends import BACKENDS, get_backend

__version__ = "0.1.0"

__all__ = [
    "BACKENDS",
    "Category",
    "Cone",
    "ConstraintViolation",
    "Decomposition",
    "Morphism",
    "MorphismClass",
    "Square",
    "classify",
    "cokernel",
    "decompose",
    "dualize",
    "dualize_square",
    "get_backend",
    "induced_cokernel_map",
    "induced_kernel_map",
    "is_pullback",
    "is_pushout",
    "kernel",
    "opposite",
    "pullback",
    "pushout",
    "quotient_iso",
    "subobject_iso",
    "__version__",
]
