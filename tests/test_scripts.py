"""Smoke tests for the scripts under ``scripts/``."""

from __future__ import annotations

import importlib.util
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
