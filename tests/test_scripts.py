"""Smoke tests for the scripts under ``scripts/``."""

from __future__ import annotations

import importlib.util
import json
import re
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_exceptional_graphs_chromatic_numbers(capsys):
    load_script("exceptional_graphs").main()
    out = capsys.readouterr().out
    found = dict(re.findall(r"== (.+?)  \(group.*?chromatic number: (\S+)", out, re.S))
    assert found == {
        "complete graph K4": "4",
        "complete tripartite graph K333": "3",
        "complement of the 4x4 rook's graph": "4",
        "complement of the Shrikhande graph": "6",
    }


def test_bench_records_each_rung(tmp_path, monkeypatch, capsys):
    import hashlib

    from diaglab.cli import main as diaglab_main

    bench = load_script("bench")
    monkeypatch.setattr(bench, "RUNGS", [("C2", 2), ("C3", 2)])
    monkeypatch.setattr(bench, "OUT", tmp_path / "BENCH_check_all.json")
    assert bench.main() == 0
    report = json.loads((tmp_path / "BENCH_check_all.json").read_text())
    assert report["command"] == "check-all"
    assert set(report["git"]) == {"revision", "dirty"}
    assert report["machine"]["cpus"] >= 1
    assert [(r["group"], r["m"]) for r in report["rungs"]] == [("C2", 2), ("C3", 2)]
    capsys.readouterr()
    for rung in report["rungs"]:
        assert rung["exit_code"] == 0
        assert rung["wall_s"] > 0 and rung["ru_maxrss_kb"] > 0
        diaglab_main(["check-all", "--group", rung["group"], "--m", str(rung["m"])])
        ledger = capsys.readouterr().out.encode()
        assert rung["ledger_sha256"] == hashlib.sha256(ledger).hexdigest()


def test_bench_runs_the_large_rungs_only_when_asked(tmp_path, monkeypatch, capsys):
    bench = load_script("bench")
    monkeypatch.setattr(bench, "RUNGS", [("C2", 2)])
    monkeypatch.setattr(bench, "LARGE_RUNGS", [("C3", 2)])
    monkeypatch.setattr(bench, "OUT", tmp_path / "BENCH_check_all.json")
    for argv, expect in (([], [("C2", 2)]), (["--large"], [("C2", 2), ("C3", 2)])):
        assert bench.main(argv) == 0
        report = json.loads((tmp_path / "BENCH_check_all.json").read_text())
        assert [(r["group"], r["m"], r["exit_code"]) for r in report["rungs"]] == [
            (group, m, 0) for group, m in expect]


def test_bench_runs_a_rung_with_its_own_environment(tmp_path, monkeypatch):
    # the large rung C4 m=9 runs past the default vertex cap; here a cap of
    # 5 vertices makes C3 m=2, with 9, exit 3, and C2 m=2, with none set,
    # run as before
    bench = load_script("bench")
    assert ("C4", 9) in bench.LARGE_RUNGS
    assert bench.RUNG_ENV[("C4", 9)] == {"DIAGLAB_CAP_VERTICES": "300000"}
    monkeypatch.delenv("DIAGLAB_CAP_VERTICES", raising=False)
    monkeypatch.setattr(bench, "RUNGS", [("C2", 2)])
    monkeypatch.setattr(bench, "LARGE_RUNGS", [("C3", 2)])
    monkeypatch.setattr(bench, "RUNG_ENV", {("C3", 2): {"DIAGLAB_CAP_VERTICES": "5"}})
    monkeypatch.setattr(bench, "OUT", tmp_path / "BENCH_check_all.json")
    assert bench.main(["--large"]) == 0
    report = json.loads((tmp_path / "BENCH_check_all.json").read_text())
    assert [(r["group"], r["m"], r["env"], r["exit_code"]) for r in report["rungs"]] == [
        ("C2", 2, {}, 0), ("C3", 2, {"DIAGLAB_CAP_VERTICES": "5"}, 3)]
