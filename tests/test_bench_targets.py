"""The benchmark tracer's names must stay where it looks them up.

``bench/tracer.py`` wraps every name in its ``TARGETS`` table by reading
``vars(owner)[name]``, so deleting a pinned name from its owner, or
leaving it only on a base class, breaks every traced benchmark run.
This guard loads the tracer by path, without installing it, and checks
the table against the package.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _targets() -> dict:
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_traced_name_is_in_its_owner():
    missing = []
    for owners in _targets().values():
        for owner, names in owners.items():
            modname, _, clsname = owner.partition(":")
            target = importlib.import_module(modname)
            if clsname:
                target = getattr(target, clsname)
            missing += [f"{owner}.{name.rstrip('!')}" for name in names
                        if name.rstrip("!") not in vars(target)]
    assert not missing
