"""Spans and call counts for the program's layers, from outside the program.

``Tracer.install`` wraps the public functions and methods of each layer
(a module of ``preab``) and rebinds every module attribute that held the
original, so a function imported by name elsewhere is traced at every
binding site.  ``uninstall`` puts the originals back.

Every wrapped call is counted.  A call records a span (name, start, end,
parent, trace id) when it crosses into another layer, or when its
target is marked ``forced`` because a phase or check needs its own
time; a call that stays inside its caller's layer only counts, which
keeps the span list small.  Spans live in flat arrays in memory and are
written out only on request.  A layer's self time is the duration of
its spans minus the part their child spans cover.  Tracing is active
only between ``begin_op`` and ``end_op``, so input generation and output
checks by the benchmark itself are neither counted nor timed.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from array import array
from time import perf_counter

# layer -> owner ("module" or "module:Class") -> wrapped names.  A name
# ending in "!" always records a span (phases and checks need their own
# inclusive time even when called from their own layer).
TARGETS = {
    "linalg": {
        "preab.linalg": (
            "rref", "rank", "column_echelon_basis", "kernel_basis", "image_basis",
            "solve_right", "invert", "pushforward", "preimage", "complement_rows",
            "hstack", "vstack", "matrix_to_json", "matrix_from_json"),
        "preab.linalg:RatMatrix": (
            "__init__", "from_rows", "from_columns", "identity", "zeros", "__matmul__",
            "__add__", "__sub__", "__neg__", "scale", "transpose", "delete_row",
            "delete_column", "with_entry", "is_zero", "is_integral"),
        "preab.linalg:Subspace": (
            "__init__", "span", "zero", "full", "contains", "intersect", "add"),
    },
    "lattice": {
        "preab.lattice": (
            "column_hnf", "smith_with_transforms", "elementary_divisors", "saturate",
            "pure_quotient_rows"),
        "preab.lattice:IntLattice": ("__init__", "span", "zero", "full", "member", "contains"),
    },
    "backends": {
        "preab.backends": ("get_backend",),
        "preab.backends.base:MatrixBackend": (
            "identity", "zero_morphism", "is_zero_morphism", "compose", "add", "negate",
            "biproduct", "kernel", "cokernel", "divide_left", "divide_right", "is_iso",
            "make_morphism"),
        "preab.backends.flags": ("_adapted_columns", "vert_shift"),
        "preab.backends.flags:FlagBackend": (
            "make_object", "direct_sum_payload", "drop_coordinate",
            "check_payload_constraints", "kernel_data", "cokernel_data", "random_object",
            "random_morphism", "random_iso", "object_to_json", "object_from_json",
            "morphism_to_json", "morphism_from_json"),
        "preab.backends.latz:LatZBackend": (
            "make_object", "direct_sum_payload", "drop_coordinate",
            "check_payload_constraints", "kernel_data", "cokernel_data", "random_object",
            "random_morphism", "random_iso", "object_to_json", "object_from_json",
            "morphism_to_json", "morphism_from_json"),
    },
    "core": {
        "preab.core": (
            "kernel", "cokernel", "decompose", "classify", "pushout", "pullback",
            "pullback_mediator", "pushout_mediator", "is_pullback", "is_pushout",
            "induced_kernel_map", "induced_cokernel_map", "subobject_iso", "quotient_iso",
            "dualize", "dualize_square", "opposite"),
        "preab.core:Category": ("try_morphism", "opposite"),
        "preab.core:Square": ("__post_init__",),
        "preab.core:Opposite": (
            "identity", "zero_morphism", "is_zero_morphism", "compose", "add", "negate",
            "biproduct", "kernel", "cokernel", "divide_left", "divide_right", "is_iso",
            "make_object", "make_morphism", "random_object", "random_morphism",
            "random_iso", "wrap", "unwrap", "morphism_to_json", "object_to_json"),
    },
    "conditions": {
        "preab.conditions": (
            "check_right_i", "check_right_ii", "check_right_iii", "check_right_iv",
            "check_right_v", "check_right_vi", "check_right_vii", "check_left",
            "check_condition!", "check_semi_abelian", "check_strict!",
            "check_composite_cones", "check_image_slide", "check_semistable_step!",
            "probe_semistable!", "run_check!", "instance_from_json"),
        "preab.conditions:MorphismInstance": ("dualize", "to_json"),
        "preab.conditions:PairInstance": ("dualize", "to_json"),
        "preab.conditions:SquareInstance": ("dualize", "to_json"),
        "preab.conditions:ProbeInstance": ("dualize", "to_json"),
        "preab.conditions:CheckResult": ("to_json",),
    },
    "audit": {
        "preab.audit": (
            "run_audit!", "generate_instance!", "_generate_right", "shrink!",
            "instance_size", "_plan", "_evaluate_condition_job!",
            "_evaluate_strictness_job!", "_evaluate_probe_job!", "decide_verdict"),
        "preab.audit:AuditConfig": ("from_json", "to_json"),
        "preab.audit:AuditReport": ("to_json",),
    },
    "report": {
        "preab.report": ("emit_report", "parse_report"),
        "preab.report:ReportDocument": ("from_audit!", "emit!", "to_json", "parse"),
    },
    "cli": {
        "preab.cli": ("main", "cmd_audit", "cmd_check", "cmd_decompose", "build_parser",
                      "_load_json", "_emit", "_canonical"),
    },
}

LAYERS = ("bench",) + tuple(TARGETS)  # "bench" is the benchmark's own op span

# span names computed from the call, so each check gets its own inclusive time
SPAN_NAMES = {
    "conditions.check_condition": lambda args: f"conditions.{args[0]}",
    "conditions.run_check": lambda args: f"conditions.{args[0]}",
    "conditions.check_strict": lambda args: "conditions.strict",
    "conditions.check_semistable_step": lambda args: "conditions.semistable",
    "conditions.probe_semistable": lambda args: "conditions.semistable",
}

# calls whose first morphism argument is collected per op, to measure reuse
DISTINCT_ARG = {"backends.MatrixBackend.kernel": 1, "backends.MatrixBackend.cokernel": 1,
                "core.classify": 0}


class Tracer:
    """Counters, span arrays and per-layer self time for one process."""

    def __init__(self):
        self.active = False
        self.calls: dict[str, int] = {}
        self.self_time = [0.0] * len(LAYERS)
        self.inclusive: dict[str, float] = {}   # outermost calls only
        self.exclusive: dict[str, float] = {}   # span time minus child spans
        self.depth: dict[str, int] = {}
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.trace_ids: list[str] = []
        # one entry per span; parent -1 marks an op's root span
        self.span_name = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.span_trace = array("l")
        self.distinct: dict[str, set] = {key: set() for key in DISTINCT_ARG}
        self.distinct_total: dict[str, int] = dict.fromkeys(DISTINCT_ARG, 0)
        self.shrink_sizes = [0, 0]  # instance_size summed before, after
        self.shrink_checks = 0   # checker calls shrink reports spending
        self.shrink_accepts = 0  # of those, edits kept because the check still failed
        self._stack: list[list] = []
        self._patched: list[tuple] = []

    # -- installation -------------------------------------------------------
    def install(self) -> None:
        replaced = {}
        for layer, owners in TARGETS.items():
            layer_id = LAYERS.index(layer)
            for owner, names in owners.items():
                modname, _, clsname = owner.partition(":")
                target = importlib.import_module(modname)
                if clsname:
                    target = getattr(target, clsname)
                for name in names:
                    forced = name.endswith("!")
                    name = name.rstrip("!")
                    key = f"{layer}.{clsname + '.' if clsname else ''}{name}"
                    raw = vars(target)[name]
                    self.calls[key] = 0
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(self._wrap(raw.__func__, key, layer_id, forced))
                    else:
                        wrapped = self._wrap(raw, key, layer_id, forced)
                        replaced[id(raw)] = (raw, wrapped)
                    self._patched.append((target, name, raw))
                    setattr(target, name, wrapped)
        # rebind names imported elsewhere (``from .linalg import solve_right``)
        for module in list(sys.modules.values()):
            space = getattr(module, "__dict__", None)
            if not isinstance(space, dict):
                continue
            for attr, value in list(space.items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for target, name, raw in reversed(self._patched):
            setattr(target, name, raw)
        self._patched.clear()

    def _wrap(self, fn, key, layer_id, forced):
        calls = self.calls
        stack = self._stack
        name_of = SPAN_NAMES.get(key)
        distinct_at = DISTINCT_ARG.get(key)
        is_shrink = key == "audit.shrink"
        is_run_check = key == "conditions.run_check"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            calls[key] += 1
            if distinct_at is not None:
                self._collect(key, args[distinct_at])
            if not forced and stack[-1][0] == layer_id:
                return fn(*args, **kwargs)
            name = name_of(args) if name_of else key
            frame = self._push(layer_id, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._pop(frame)
            if is_run_check and self.depth.get("audit.shrink"):
                self.shrink_accepts += result.verdict == "fail"
            elif is_shrink:
                self._shrink_done(args[0], result)
            return result

        return traced

    # -- spans -------------------------------------------------------------
    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.inclusive[name] = 0.0
            self.exclusive[name] = 0.0
            self.depth[name] = 0
        return nid

    def _push(self, layer_id: int, name: str) -> list:
        parent = self._stack[-1][4] if self._stack else -1
        index = len(self.span_start)
        self.span_name.append(self._name_id(name))
        self.span_parent.append(parent)
        self.span_trace.append(len(self.trace_ids) - 1)
        self.depth[name] += 1
        frame = [layer_id, name, 0.0, 0.0, index]
        self._stack.append(frame)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        frame[2] = self.span_start[index] = perf_counter()
        return frame

    def _pop(self, frame: list) -> None:
        end = perf_counter()
        layer_id, name, start, child, index = frame
        self._stack.pop()
        self.span_end[index] = end
        duration = end - start
        self.self_time[layer_id] += duration - child
        self.exclusive[name] += duration - child
        self.depth[name] -= 1
        if not self.depth[name]:
            self.inclusive[name] += duration
        if self._stack:
            self._stack[-1][3] += duration

    def begin_op(self, trace_id: str) -> None:
        """Open the root span of one op; its layer is the benchmark itself."""
        self.trace_ids.append(trace_id)
        self._push(0, "bench.op")
        self.active = True

    def end_op(self) -> None:
        self.active = False
        while self._stack:
            self._pop(self._stack[-1])
        for key, seen in self.distinct.items():
            self.distinct_total[key] += len(seen)
            seen.clear()

    def _collect(self, key, morphism) -> None:
        # hashing a morphism calls program code; keep it out of the counts
        self.active = False
        try:
            self.distinct[key].add(morphism)
        finally:
            self.active = True

    def _shrink_done(self, failing, result) -> None:
        from preab.audit import instance_size

        self.active = False
        try:
            self.shrink_sizes[0] += instance_size(failing.instance)
            self.shrink_sizes[1] += instance_size(result[0].instance)
            self.shrink_checks += result[1]
        finally:
            self.active = True

    # -- results -----------------------------------------------------------
    def layer_self(self, layer: str) -> float:
        return self.self_time[LAYERS.index(layer)]

    def layer_calls(self, layer: str) -> int:
        return sum(n for key, n in self.calls.items() if key.startswith(layer + "."))

    def incl(self, name: str) -> float:
        return self.inclusive.get(name, 0.0)

    def excl(self, name: str) -> float:
        return self.exclusive.get(name, 0.0)

    def unique_ratio(self, key: str) -> float:
        calls = self.calls.get(key, 0)
        return self.distinct_total[key] / calls if calls else 0.0

    def span_count(self) -> int:
        return len(self.span_start)

    def write_spans(self, path: str) -> None:
        """One JSON object per span: name, start, end, parent, trace id."""
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.span_start)):
                fh.write(json.dumps({
                    "span": i, "name": self.names[self.span_name[i]],
                    "start": self.span_start[i], "end": self.span_end[i],
                    "parent": self.span_parent[i],
                    "trace_id": self.trace_ids[self.span_trace[i]]}) + "\n")
