"""Command-line front end: audit campaigns, single-check replay, decomposition.

Exit codes are a stable contract.

    audit:     0 verdict is one of the -consistent family and no
                 counterexample was recorded
               2 a counterexample (failing check) was found and witnessed
               3 inconclusive (insufficient non-vacuous coverage)
               1 config or I/O problem
    check:     0 pass / 2 fail / 3 vacuous / 1 malformed input
    decompose: 0 printed / 1 malformed input

A usage error (unknown option or subcommand, missing argument) prints
one line and exits 1, so it can never read as a witness or a failure.
So does every ValueError or OSError a command raises, bad input or
failed I/O alike; ``main`` alone turns it into that line.
"""

from __future__ import annotations

import argparse
import json
import sys

from .audit import AuditConfig, run_audit
from .backends import get_backend
from .conditions import CHECKS, instance_from_json, run_check
from .core import classify, decompose
from .report import ReportDocument, emit_report


def _load_json(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as e:
        raise ValueError(f"{path}: not valid JSON: {e}") from None
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _canonical(blob: dict) -> str:
    return emit_report(blob)


def cmd_audit(args) -> int:
    blob = _load_json(args.config)
    if not isinstance(blob, dict):
        raise ValueError("config must be a JSON object")
    if args.backend:
        blob = {**blob, "backend": args.backend}
    if args.seed is not None:
        blob = {**blob, "seed": args.seed}
    cfg = AuditConfig.from_json(blob)
    if args.out:
        # fail before the audit on an unwritable path; appending keeps a report if it raises
        open(args.out, "a", encoding="utf-8").close()
    report = run_audit(cfg)
    _emit(ReportDocument.from_audit(report).emit(), args.out)
    if report.witnesses:
        return 2
    if report.verdict == "inconclusive":
        return 3
    return 0


def cmd_check(args) -> int:
    if args.name not in CHECKS:
        raise ValueError(f"unknown check: {args.name!r} "
                         f"(known: {', '.join(sorted(CHECKS))})")
    instance = instance_from_json(_load_json(args.instance))
    if args.backend and instance.category.name != args.backend:
        raise ValueError(f"instance backend {instance.category.name!r} "
                         f"does not match --backend {args.backend!r}")
    result = run_check(args.name, instance)
    sys.stdout.write(_canonical(result.to_json()))
    return {"pass": 0, "fail": 2, "vacuous": 3}[result.verdict]


def cmd_decompose(args) -> int:
    blob = _load_json(args.morphism)
    if not isinstance(blob, dict):
        raise ValueError("morphism must be a JSON object")
    cat = get_backend(blob.get("backend"))
    if args.backend and cat.name != args.backend:
        raise ValueError(f"morphism backend {cat.name!r} does not match "
                         f"--backend {args.backend!r}")
    f = cat.morphism_from_json(blob)
    d = decompose(f)
    sys.stdout.write(_canonical({
        "coim": cat.morphism_to_json(d.coim),
        "fbar": cat.morphism_to_json(d.fbar),
        "im": cat.morphism_to_json(d.im),
        "flags": classify(f).to_json(),
    }))
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are one line and exit 1."""

    def error(self, message):
        self.exit(1, f"{self.prog}: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="preab",
        description="Kernels, cokernels and exactness audits in concrete "
                    "preabelian categories.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("audit", help="run a randomized audit from a config file")
    p.add_argument("--config", required=True, help="audit config JSON path")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.add_argument("--seed", help="override the config seed")
    p.add_argument("--backend", help="override the config backend")
    p.set_defaults(run=cmd_audit)

    p = sub.add_parser("check", help="replay one named check on one instance")
    p.add_argument("name", help="check name, e.g. right.iii, strict, semistable")
    p.add_argument("--instance", default="-",
                   help="instance JSON path, '-' for stdin (default)")
    p.add_argument("--backend", help="require the instance to use this backend")
    p.set_defaults(run=cmd_check)

    p = sub.add_parser("decompose",
                       help="print the canonical decomposition of a morphism")
    p.add_argument("--morphism", default="-",
                   help="morphism JSON path, '-' for stdin (default)")
    p.add_argument("--backend", help="require the morphism to use this backend")
    p.set_defaults(run=cmd_decompose)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (ValueError, OSError) as e:
        print(f"preab {args.command}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
