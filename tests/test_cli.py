"""Command-line contract: exit codes, canonical bytes, report envelope."""

import hashlib
import io
import json
import os
import random
import subprocess
import sys

import pytest

from preab import BACKENDS
from preab.audit import MAX_DIM_BOUND, AuditConfig, run_audit
from preab.cli import main
from preab.report import SCHEMA_VERSION, ReportDocument, emit_report, parse_report

import preab.cli as cli_module

SUBVECT_WITNESS = {
    "kind": "morphism", "backend": "subvect",
    "morphism": {
        "backend": "subvect",
        "dom": {"dim": 1, "subspace": {"rows": 1, "cols": 0, "entries": [[]]}},
        "cod": {"dim": 1, "subspace": {"rows": 1, "cols": 1, "entries": [["1"]]}},
        "matrix": {"rows": 1, "cols": 1, "entries": [["1"]]}}}

VACUOUS_PAIR = {
    "kind": "pair", "backend": "vectq",
    "outer": {"backend": "vectq", "dom": {"dim": 1}, "cod": {"dim": 1},
              "matrix": {"rows": 1, "cols": 1, "entries": [["1"]]}},
    "inner": {"backend": "vectq", "dom": {"dim": 1}, "cod": {"dim": 1},
              "matrix": {"rows": 1, "cols": 1, "entries": [["0"]]}}}


def _vectq_edge(rows, cols, entries):
    return {"backend": "vectq", "dom": {"dim": cols}, "cod": {"dim": rows},
            "matrix": {"rows": rows, "cols": cols, "entries": entries}}


# the kernel Q -> Q^2 of a projection, pushed out along Q -> Q
KERNEL_PROBE = {"kind": "probe", "backend": "vectq", "role": "kernel",
                "morphism": _vectq_edge(2, 1, [["1"], ["0"]]),
                "along": _vectq_edge(1, 1, [["1"]])}

LATZ_DOUBLING = {"backend": "latz", "dom": {"rank": 1}, "cod": {"rank": 1},
                 "matrix": {"rows": 1, "cols": 1, "entries": [["2"]]}}

AUDIT_CONFIG = {"backend": "vectq", "seed": "cli-tests", "dim_bound": 3,
                "samples": {"default": 4, "strictness": 12, "semistable": 1},
                "min_nonvacuous": 2, "probe_steps": 3}

# the benchmark's audit config, and the SHA-256 of the report each backend
# prints for it: a change that alters these bytes must say why
REFERENCE_CONFIG = {"backend": "vectq", "seed": "bench", "dim_bound": 3,
                    "samples": {"default": 10, "strictness": 20, "semistable": 2},
                    "min_nonvacuous": 5, "probe_steps": 5}
REFERENCE_SHA256 = {
    "vectq": "3f0214bf4e372f4d7c4ab3dcc79e00bc1041c80fcbc47677c836caec2c6ec41a",
    "subvect": "e63295a015c8b0d011d452c3c1973709e8fbc11a5a7f1b671dbdce40437d11ad",
    "filtvect3": "b165e4d4ea7ad95da7c135b4e31c2b6bc07d717db6467426897fa6117604d1a2",
    "latz": "512fd0f6ed58f5736aa6748399df137f9380a918032b8649fdbd221be984fe30",
}

# the same config at dim_bound 8, where layers are partial and matrices
# two to three times larger
REFERENCE_SHA256_DIM_8 = {
    "vectq": "b9d1548935c1315bbfd103ee7fa4a5f746ea7e393a75b4d3211f131cfbaa3f5f",
    "subvect": "612b7579a684bee4ce1bbb6346b171c74d629a90690fa3c6691f8a363387ac74",
    "filtvect3": "c4d38db9e6bc4a652dc340ed29bb6da0ced64e3e5a0d1db7eb0b612b21c30956",
    "latz": "10a38e5fa1aeeb503020963acc25ee06bed2f488ea25374734f8abe5c8103bc2",
}

# the SHA-256 of what `preab decompose` prints for a seeded sweep of 40
# morphisms per backend (dimension <= 4), joined: the legs and the flags
DECOMPOSE_SWEEP_SHA256 = {
    "vectq": "5417d3214279c144e9949e8a9229c7dbef2900a74fee38de5fa6173f937583f4",
    "subvect": "4d1d2261f66ef0d1122907e93e357803a6c39d52b8983f976b3fd88ed36a159f",
    "filtvect3": "dfd11716c9a2d671d62d27fd8990e4a6f0f185e0cee30764cc84e06ec2b14231",
    "latz": "b9eea351b67231845af37033bd019cd166332eb82d1da04236eca2b971b91d6b",
}


def run_main(argv, stdin_text=None, monkeypatch=None, capsys=None):
    if stdin_text is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def write_json(tmp_path, name, blob):
    path = tmp_path / name
    path.write_text(json.dumps(blob))
    return str(path)


# ---------------------------------------------------------------------------
# report envelope


class TestReportDocument:
    def test_emit_parse_emit_is_identity(self):
        rep = run_audit(AuditConfig.from_json(AUDIT_CONFIG))
        doc = ReportDocument.from_audit(rep)
        text = doc.emit()
        assert ReportDocument.parse(text).emit() == text
        assert text.endswith("\n")

    def test_envelope_fields(self):
        rep = run_audit(AuditConfig.from_json(AUDIT_CONFIG))
        blob = ReportDocument.from_audit(rep).to_json()
        assert blob["schema_version"] == SCHEMA_VERSION
        assert blob["tool"]["name"] == "preab"
        assert blob["config"] == rep.config.to_json()
        assert blob["report"]["verdict"] == rep.verdict

    def test_emit_is_canonical(self):
        text = emit_report({"b": 1, "a": {"z": 2, "y": 3}})
        assert text == '{\n  "a": {\n    "y": 3,\n    "z": 2\n  },\n  "b": 1\n}\n'

    @pytest.mark.parametrize("text", [
        "not json",
        "[1, 2]",
        json.dumps({"schema_version": 2, "tool": {}, "config": {}, "report": {}}),
        json.dumps({"schema_version": 1, "tool": {}, "config": {}}),
        json.dumps({"tool": {}, "config": {}, "report": {}}),
        json.dumps({"schema_version": True, "tool": {}, "config": {}, "report": {}}),
        json.dumps({"schema_version": 1.0, "tool": {}, "config": {}, "report": {}}),
        json.dumps({"schema_version": "1", "tool": {}, "config": {}, "report": {}}),
        json.dumps({"schema_version": 1, "tool": [], "config": {}, "report": {}}),
        json.dumps({"schema_version": 1, "tool": "preab", "config": {}, "report": {}}),
        json.dumps({"schema_version": 1, "tool": {}, "config": None, "report": {}}),
        json.dumps({"schema_version": 1, "tool": {}, "config": {}, "report": [1]}),
    ])
    def test_parse_refuses_bad_documents(self, text):
        with pytest.raises(ValueError):
            parse_report(text)
        with pytest.raises(ValueError):
            ReportDocument.parse(text)


# ---------------------------------------------------------------------------
# audit subcommand


class TestAuditCommand:
    def test_clean_audit_exits_zero(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "cfg.json", AUDIT_CONFIG)
        code = main(["audit", "--config", cfg])
        out, err = capsys.readouterr()
        assert code == 0 and err == ""
        doc = parse_report(out)
        assert doc["report"]["verdict"] == "abelian-consistent"
        assert doc["config"]["backend"] == "vectq"

    def test_out_file_matches_stdout_bytes(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "cfg.json", AUDIT_CONFIG)
        assert main(["audit", "--config", cfg]) == 0
        stdout_text, _ = capsys.readouterr()
        target = tmp_path / "report.json"
        assert main(["audit", "--config", cfg, "--out", str(target)]) == 0
        capsys.readouterr()
        assert target.read_text() == stdout_text

    def test_seed_and_backend_overrides(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "cfg.json", AUDIT_CONFIG)
        code = main(["audit", "--config", cfg, "--backend", "latz", "--seed", "ovr"])
        out, _ = capsys.readouterr()
        assert code == 0
        doc = parse_report(out)
        assert doc["config"]["backend"] == "latz"
        assert doc["config"]["seed"] == "ovr"

    @pytest.mark.parametrize("backend", sorted(REFERENCE_SHA256))
    def test_reference_report_bytes(self, tmp_path, capsys, backend):
        cfg = write_json(tmp_path, "cfg.json", REFERENCE_CONFIG)
        code = main(["audit", "--config", cfg, "--backend", backend])
        out, _ = capsys.readouterr()
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == REFERENCE_SHA256[backend]

    @pytest.mark.parametrize("backend", sorted(REFERENCE_SHA256_DIM_8))
    def test_reference_report_bytes_at_dim_bound_8(self, tmp_path, capsys, backend):
        cfg = write_json(tmp_path, "cfg.json", {**REFERENCE_CONFIG, "dim_bound": 8})
        code = main(["audit", "--config", cfg, "--backend", backend])
        out, _ = capsys.readouterr()
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == REFERENCE_SHA256_DIM_8[backend]

    def test_config_on_stdin(self, monkeypatch, capsys):
        code, out, err = run_main(["audit", "--config", "-"],
                                  stdin_text=json.dumps(AUDIT_CONFIG),
                                  monkeypatch=monkeypatch, capsys=capsys)
        assert code == 0
        assert parse_report(out)["report"]["verdict"] == "abelian-consistent"

    def test_inconclusive_exits_three(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "cfg.json",
                         {**AUDIT_CONFIG, "min_nonvacuous": 99})
        code = main(["audit", "--config", cfg])
        out, _ = capsys.readouterr()
        assert code == 3
        assert parse_report(out)["report"]["verdict"] == "inconclusive"

    def test_witnesses_exit_two(self, tmp_path, capsys, monkeypatch):
        real = run_audit

        def with_witness(cfg):
            rep = real(cfg)
            object.__setattr__(rep, "witnesses", ({"check": "right.iii"},))
            return rep

        monkeypatch.setattr(cli_module, "run_audit", with_witness)
        cfg = write_json(tmp_path, "cfg.json", AUDIT_CONFIG)
        assert main(["audit", "--config", cfg]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("blob", [
        {"backend": "vectq", "bogus": 1},
        {"seed": "no-backend"},
        {"backend": "vectq", "dim_bound": 0},
        {"backend": "vectq", "dim_bound": MAX_DIM_BOUND + 1},
        # no probe step would sample no pushout or pullback
        {"backend": "subvect", "samples": {"semistable": 2}, "probe_steps": 0},
        {"backend": ["vectq"]},
        {"backend": {"a": 1}},
        {"backend": "vectq", "seed": True},
        {"backend": "vectq", "seed": 1.5},
        {"backend": "vectq", "seed": None},
        {"backend": "vectq", "seed": [1, 2]},
        {"backend": "vectq", "seed": {"a": 1}},
        [1, 2],
        "x",
    ])
    def test_bad_config_exits_one(self, tmp_path, capsys, blob):
        cfg = write_json(tmp_path, "cfg.json", blob)
        # a config that is no object is refused before an override merges into it
        overrides = [[]] if isinstance(blob, dict) else [[], ["--backend", "vectq"], ["--seed", "7"]]
        for flags in overrides:
            code = main(["audit", "--config", cfg, *flags])
            _, err = capsys.readouterr()
            assert code == 1 and err.startswith("preab audit:") and err.count("\n") == 1

    def test_missing_file_exits_one(self, tmp_path, capsys):
        code = main(["audit", "--config", str(tmp_path / "absent.json")])
        _, err = capsys.readouterr()
        assert code == 1 and "absent.json" in err

    def test_unwritable_out_exits_one(self, tmp_path, capsys, monkeypatch):
        audits = []
        monkeypatch.setattr(cli_module, "run_audit", lambda cfg: audits.append(cfg))
        cfg = write_json(tmp_path, "cfg.json", AUDIT_CONFIG)
        # a missing directory, and a directory; neither may cost an audit
        for target in (tmp_path / "nodir" / "r.json", tmp_path):
            code = main(["audit", "--config", cfg, "--out", str(target)])
            out, err = capsys.readouterr()
            assert code == 1 and out == ""
            assert err.startswith("preab audit:") and err.count("\n") == 1
        assert audits == []

    def test_failed_audit_keeps_the_out_file(self, tmp_path, capsys, monkeypatch):
        def fail(cfg):
            raise ValueError("audit failed")

        monkeypatch.setattr(cli_module, "run_audit", fail)
        cfg = write_json(tmp_path, "cfg.json", AUDIT_CONFIG)
        target = tmp_path / "report.json"
        target.write_bytes(b"an earlier report\n")
        assert main(["audit", "--config", cfg, "--out", str(target)]) == 1
        _, err = capsys.readouterr()
        assert err == "preab audit: audit failed\n"
        assert target.read_bytes() == b"an earlier report\n"


# ---------------------------------------------------------------------------
# check subcommand


class TestCheckCommand:
    def test_pass_fail_vacuous_exit_codes(self, monkeypatch, capsys):
        code, out, _ = run_main(["check", "right.i"],
                                stdin_text=json.dumps(SUBVECT_WITNESS),
                                monkeypatch=monkeypatch, capsys=capsys)
        assert code == 0 and json.loads(out)["verdict"] == "pass"

        code, out, _ = run_main(["check", "strict"],
                                stdin_text=json.dumps(SUBVECT_WITNESS),
                                monkeypatch=monkeypatch, capsys=capsys)
        assert code == 2
        result = json.loads(out)
        assert result["verdict"] == "fail"
        assert result["witness"]["reason"] == "middle-arrow-not-iso"

        code, out, _ = run_main(["check", "right.ii"],
                                stdin_text=json.dumps(VACUOUS_PAIR),
                                monkeypatch=monkeypatch, capsys=capsys)
        assert code == 3 and json.loads(out)["verdict"] == "vacuous"

    def test_instance_from_file(self, tmp_path, capsys):
        path = write_json(tmp_path, "inst.json", SUBVECT_WITNESS)
        code = main(["check", "strict", "--instance", path])
        out, _ = capsys.readouterr()
        assert code == 2 and json.loads(out)["check"] == "strict"

    def test_unknown_check_name_exits_one(self, monkeypatch, capsys):
        code, _, err = run_main(["check", "right.ix"],
                                stdin_text=json.dumps(SUBVECT_WITNESS),
                                monkeypatch=monkeypatch, capsys=capsys)
        assert code == 1 and "unknown check" in err

    def test_backend_mismatch_exits_one(self, monkeypatch, capsys):
        code, _, err = run_main(["check", "strict", "--backend", "vectq"],
                                stdin_text=json.dumps(SUBVECT_WITNESS),
                                monkeypatch=monkeypatch, capsys=capsys)
        assert code == 1 and "does not match" in err

    def test_edge_naming_another_backend_exits_one(self, monkeypatch, capsys):
        # a latz doubling map whose edge says vectq: refused, not replayed as latz
        blob = {"kind": "morphism", "backend": "latz",
                "morphism": {**LATZ_DOUBLING, "backend": "vectq"}}
        code, out, err = run_main(["check", "strict"], stdin_text=json.dumps(blob),
                                  monkeypatch=monkeypatch, capsys=capsys)
        assert code == 1 and out == ""
        assert err.startswith("preab check:") and err.count("\n") == 1

    @pytest.mark.parametrize("text", [
        "not json",
        json.dumps({"kind": "morphism"}),
        json.dumps({**SUBVECT_WITNESS, "kind": "cube"}),
        pytest.param("[" * 100000 + "]" * 100000, id="deeply-nested"),
    ])
    def test_malformed_instance_exits_one(self, monkeypatch, capsys, text):
        code, _, err = run_main(["check", "strict"], stdin_text=text,
                                monkeypatch=monkeypatch, capsys=capsys)
        assert code == 1 and err.startswith("preab check:")

    @pytest.mark.parametrize("edit,reason", [
        ({}, None),
        ({"role": "middle"}, "unknown probe role"),
        ({"along": _vectq_edge(1, 2, [["1", "0"]])}, "out of the kernel's domain"),
    ])
    def test_semistable_probe_shape(self, monkeypatch, capsys, edit, reason):
        code, _, err = run_main(["check", "semistable"],
                                stdin_text=json.dumps({**KERNEL_PROBE, **edit}),
                                monkeypatch=monkeypatch, capsys=capsys)
        if reason is None:
            assert code == 0 and err == ""
        else:
            assert code == 1 and err.startswith("preab check:") and reason in err
            assert err.count("\n") == 1


# ---------------------------------------------------------------------------
# decompose subcommand


class TestDecomposeCommand:
    def test_doubling_map_decomposition(self, monkeypatch, capsys):
        code, out, _ = run_main(["decompose"], stdin_text=json.dumps(LATZ_DOUBLING),
                                monkeypatch=monkeypatch, capsys=capsys)
        assert code == 0
        blob = json.loads(out)
        assert blob["coim"]["matrix"]["entries"] == [["1"]]
        assert blob["fbar"]["matrix"]["entries"] == [["2"]]
        assert blob["im"]["matrix"]["entries"] == [["1"]]
        assert blob["flags"] == {"mono": True, "epi": True, "bimorphism": True,
                                 "iso": False, "strict": False,
                                 "is_kernel": False, "is_cokernel": False}
        assert out == json.dumps(blob, sort_keys=True, indent=2) + "\n"

    def test_decomposes_once(self, monkeypatch, capsys):
        import preab.core as core_module

        calls = []
        real = core_module.decompose

        def counted(f):
            calls.append(f)
            return real(f)

        # the command's own binding and core's, so a decomposition built
        # anywhere else on the command's path counts too
        monkeypatch.setattr(core_module, "decompose", counted)
        monkeypatch.setattr(cli_module, "decompose", counted)
        code, out, _ = run_main(["decompose"], stdin_text=json.dumps(LATZ_DOUBLING),
                                monkeypatch=monkeypatch, capsys=capsys)
        assert code == 0 and json.loads(out)["flags"]["bimorphism"]
        assert len(calls) == 1

    @pytest.mark.parametrize("backend", sorted(DECOMPOSE_SWEEP_SHA256))
    def test_reference_decompose_bytes(self, monkeypatch, capsys, backend):
        cat = BACKENDS[backend]
        rng = random.Random(f"decompose sweep:{backend}")
        outs = []
        for _ in range(40):
            a, b = cat.random_object(rng, 4), cat.random_object(rng, 4)
            f = cat.random_morphism(rng, a, b)
            code, out, _ = run_main(["decompose"], stdin_text=json.dumps(cat.morphism_to_json(f)),
                                    monkeypatch=monkeypatch, capsys=capsys)
            assert code == 0
            outs.append(out)
        digest = hashlib.sha256("".join(outs).encode()).hexdigest()
        assert digest == DECOMPOSE_SWEEP_SHA256[backend]

    def test_morphism_from_file(self, tmp_path, capsys):
        path = write_json(tmp_path, "f.json", LATZ_DOUBLING)
        code = main(["decompose", "--morphism", path])
        out, _ = capsys.readouterr()
        assert code == 0 and json.loads(out)["fbar"]["matrix"]["entries"] == [["2"]]

    @pytest.mark.parametrize("text", [
        "not json",
        json.dumps(["latz"]),
        json.dumps({"backend": "latz"}),
        json.dumps({**LATZ_DOUBLING, "matrix": {"rows": 2, "cols": 1,
                                                "entries": [["1"]]}}),
        json.dumps({**LATZ_DOUBLING, "matrix": {"rows": 1, "cols": 1,
                                                "entries": [["1/0"]]}}),
        json.dumps({**LATZ_DOUBLING, "matrix": {"rows": 1, "cols": 1,
                                                "entries": [["1e3"]]}}),
        json.dumps({**LATZ_DOUBLING, "matrix": {"rows": True, "cols": 1,
                                                "entries": [["2"]]}}),
        json.dumps({**LATZ_DOUBLING, "dom": {"rank": True}}),
        json.dumps({"backend": "vectq", "dom": {"dim": True}, "cod": {"dim": 1},
                    "matrix": {"rows": 1, "cols": 1, "entries": [["1"]]}}),
        json.dumps({**LATZ_DOUBLING, "cod": {"rank": 2},
                    "matrix": {"rows": 2, "cols": 1, "entries": ["1", "2"]}}),
        json.dumps({**LATZ_DOUBLING, "dom": {"rank": 2},
                    "matrix": {"rows": 1, "cols": 2, "entries": ["12"]}}),
        json.dumps({**LATZ_DOUBLING, "matrix": {"rows": 1, "cols": 1,
                                                "entries": {"2": ["2"]}}}),
        pytest.param("[" * 100000 + "]" * 100000, id="deeply-nested"),
        # declared dimensions above linalg.MAX_DIM: decompose time grows as n^2
        pytest.param(json.dumps({"backend": "vectq", "dom": {"dim": 3000}, "cod": {"dim": 0},
                                 "matrix": {"rows": 0, "cols": 3000, "entries": []}}),
                     id="vectq-dim-3000"),
        pytest.param(json.dumps({"backend": "latz", "dom": {"rank": 600}, "cod": {"rank": 0},
                                 "matrix": {"rows": 0, "cols": 600, "entries": []}}),
                     id="latz-rank-600"),
    ])
    def test_malformed_morphism_exits_one(self, monkeypatch, capsys, text, ten_second_alarm):
        code, _, err = run_main(["decompose"], stdin_text=text,
                                monkeypatch=monkeypatch, capsys=capsys)
        assert code == 1 and err.startswith("preab decompose:")

    def test_backend_mismatch_exits_one(self, monkeypatch, capsys):
        code, _, err = run_main(["decompose", "--backend", "vectq"],
                                stdin_text=json.dumps(LATZ_DOUBLING),
                                monkeypatch=monkeypatch, capsys=capsys)
        assert code == 1 and "does not match" in err


# ---------------------------------------------------------------------------
# wiring


class TestEntryPoints:
    def test_missing_subcommand_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        ["audit", "--config", "cfg.json", "--workers", "2"],
        ["audit"],
        ["frobnicate"],
    ])
    def test_usage_errors_exit_one_with_one_line(self, capsys, argv):
        # exit 2 would read as a witness (audit) or a failing check
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert exc.value.code == 1 and out == ""
        assert err.startswith("preab") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["audit", "check", "decompose"])
    def test_broken_stdout_exits_one_with_one_line(self, tmp_path, monkeypatch, capsys,
                                                   command):
        class BrokenPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        argv, stdin = {
            "audit": (["audit", "--config", write_json(tmp_path, "cfg.json", AUDIT_CONFIG)],
                      None),
            "check": (["check", "strict"], SUBVECT_WITNESS),
            "decompose": (["decompose"], LATZ_DOUBLING),
        }[command]
        monkeypatch.setattr(sys, "stdout", BrokenPipe())
        code, _, err = run_main(argv, stdin_text=stdin and json.dumps(stdin),
                                monkeypatch=monkeypatch, capsys=capsys)
        assert code == 1 and err.startswith(f"preab {command}:") and err.count("\n") == 1

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["audit", "--help"])
        assert exc.value.code == 0
        assert "--config" in capsys.readouterr().out

    def test_module_invocation(self):
        # the child imports the same preab as this process, installed or not
        src = os.path.dirname(os.path.dirname(cli_module.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH"))))}
        proc = subprocess.run(
            [sys.executable, "-m", "preab.cli", "check", "strict"],
            input=json.dumps(SUBVECT_WITNESS), capture_output=True, text=True, env=env)
        assert proc.returncode == 2
        assert json.loads(proc.stdout)["verdict"] == "fail"

    def test_shrunk_audit_witness_replays_through_check(self, monkeypatch, capsys):
        # the loop the report is designed for: shrink, save, replay
        from preab.audit import shrink
        from preab.conditions import MorphismInstance, run_check
        from preab.backends import get_backend
        from preab.linalg import RatMatrix, Subspace

        cat = get_backend("subvect")
        dom = cat.make_object((2, (Subspace.zero(2),)))
        cod = cat.make_object((2, (Subspace.full(2),)))
        witness = cat.make_morphism(dom, cod, RatMatrix.identity(2))
        small, _ = shrink(run_check("strict", MorphismInstance(witness)))
        code, out, _ = run_main(["check", "strict"],
                                stdin_text=json.dumps(small.instance.to_json()),
                                monkeypatch=monkeypatch, capsys=capsys)
        assert code == 2 and json.loads(out)["verdict"] == "fail"
