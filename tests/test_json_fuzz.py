"""Fuzz of the JSON readers: every input gives a value or a ValueError.

Documents are valid instances and morphisms with one part of them
replaced, deleted or added, so most inputs get past the first key
check and reach the backend parsers.
"""

import json
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from preab import BACKENDS
from preab.conditions import (
    MorphismInstance,
    PairInstance,
    ProbeInstance,
    SquareInstance,
    instance_from_json,
)
from preab.core import Square, pullback, pushout

ALL = sorted(BACKENDS)

_KEYS = ("backend", "kind", "morphism", "outer", "inner", "provenance", "left", "top",
         "bottom", "right", "role", "along", "dom", "cod", "matrix", "rows", "cols",
         "entries", "dim", "rank", "subspace", "flag")

_leaves = (st.none() | st.booleans() | st.integers(-3, 9)
           | st.sampled_from([513, 2 ** 70, -2 ** 70])
           | st.floats(allow_nan=True, allow_infinity=True)
           | st.sampled_from(["", "1", "-2", "3/4", "1/0", "1e3", "2.5", "x", "latz",
                              "vectq", "subvect", "filtvect3", "latz^op", "morphism",
                              "pair", "square", "probe", "pushout", "pullback",
                              "commutative", "kernel", "cokernel"])
           | st.text(max_size=4))
_values = st.recursive(
    _leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(_KEYS) | st.text(max_size=3), inner, max_size=4),
    max_leaves=12)


def _morphism(cat, rng):
    a, b = cat.random_object(rng, 2), cat.random_object(rng, 2)
    return cat.random_morphism(rng, a, b)


def _documents(name):
    """Valid instance documents of every kind on one backend."""
    cat = BACKENDS[name]
    rng = random.Random(f"fuzz seeds:{name}")
    f = _morphism(cat, rng)
    g = cat.random_morphism(rng, cat.random_object(rng, 2), f.dom)
    alpha = cat.random_morphism(rng, f.dom, cat.random_object(rng, 2))
    t = cat.random_morphism(rng, cat.random_object(rng, 2), f.cod)
    ident = cat.identity(f.dom)
    inj1 = cat.biproduct(f.dom, f.cod).pair(ident, cat.zero_morphism(f.dom, f.cod))
    instances = [
        MorphismInstance(f),
        PairInstance(outer=f, inner=g),
        SquareInstance(pushout(alpha, f)),
        SquareInstance(pullback(f, t)),
        SquareInstance(Square(top=ident, left=ident, bottom=ident, right=ident)),
        ProbeInstance(role="kernel", f=inj1, along=ident),
    ]
    return [json.loads(json.dumps(inst.to_json())) for inst in instances]


_DOCUMENTS = {name: _documents(name) for name in ALL}


def _paths(blob, here=()):
    yield here
    if isinstance(blob, dict):
        for k, v in blob.items():
            yield from _paths(v, here + (k,))
    elif isinstance(blob, list):
        for i, v in enumerate(blob):
            yield from _paths(v, here + (i,))


@st.composite
def mutated(draw, documents):
    """A document with up to three nodes below its root replaced,
    deleted or given a new sibling."""
    blob = json.loads(json.dumps(draw(st.sampled_from(documents))))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(blob))[1:]
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        op = draw(st.sampled_from(["replace", "delete", "insert"]))
        parent = blob
        for step in path[:-1]:
            parent = parent[step]
        if op == "replace":
            parent[path[-1]] = draw(_values)
        elif op == "delete":
            del parent[path[-1]]
        elif isinstance(parent, dict):
            parent[draw(st.sampled_from(_KEYS))] = draw(_values)
        else:
            parent.insert(path[-1], draw(_values))
    return blob


def _value_or_value_error(parse, blob):
    try:
        parse(blob)
    except ValueError:
        pass


_FUZZ = settings(max_examples=150, deadline=None, derandomize=True,
                 suppress_health_check=[HealthCheck.too_slow])


@pytest.mark.parametrize("name", ALL)
def test_instance_from_json_gives_value_or_value_error(name):
    @_FUZZ
    @given(mutated(_DOCUMENTS[name]))
    def run(blob):
        _value_or_value_error(instance_from_json, blob)

    run()


@pytest.mark.parametrize("name", ALL)
def test_morphism_from_json_gives_value_or_value_error(name):
    cat = BACKENDS[name]
    rng = random.Random(f"fuzz morphisms:{name}")
    documents = [json.loads(json.dumps(cat.morphism_to_json(_morphism(cat, rng))))
                 for _ in range(4)]

    @_FUZZ
    @given(mutated(documents))
    def run(blob):
        _value_or_value_error(cat.morphism_from_json, blob)

    run()


def test_documents_parse_unmutated():
    for name in ALL:
        for blob in _DOCUMENTS[name]:
            assert instance_from_json(blob).to_json() == blob
