"""Concrete category backends and the name registry."""

from __future__ import annotations

from ..core import Category
from .flags import FlagBackend
from .latz import LatZBackend

VECTQ = FlagBackend("vectq", 0)
SUBVECT = FlagBackend("subvect", 1)
FILTVECT3 = FlagBackend("filtvect3", 3)
LATZ = LatZBackend()

BACKENDS: dict[str, Category] = {
    b.name: b for b in (VECTQ, SUBVECT, FILTVECT3, LATZ)
}


def get_backend(name: str) -> Category:
    if not isinstance(name, str):
        raise ValueError(f"backend name must be a string, got {name!r}")
    try:
        return BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; available: {', '.join(sorted(BACKENDS))}"
        ) from None


__all__ = ["BACKENDS", "FILTVECT3", "LATZ", "SUBVECT", "VECTQ", "get_backend"]
