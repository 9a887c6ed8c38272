"""The package root exports only what its own callers use.

A name belongs in ``hashta.__all__`` when the command line, the bench
harness or the serving benchmark refers to it;
helpers that only tests call live in ``tests/`` instead.
"""

import re
from pathlib import Path

import hashta

ROOT = Path(__file__).resolve().parents[1]
CALLERS = [ROOT / "src" / "hashta" / "cli.py", ROOT / "src" / "hashta" / "bench.py"]
CALLERS += sorted((ROOT / "perfbench").glob("*.py"))


def test_all_lists_exactly_the_root_exports():
    exported = {
        name for name, value in vars(hashta).items()
        if not name.startswith("_") and getattr(value, "__module__", "").startswith("hashta")
    }
    assert sorted(hashta.__all__) == sorted(exported)
    assert len(set(hashta.__all__)) == len(hashta.__all__)


def test_every_export_has_a_caller_outside_the_tests():
    text = "\n".join(path.read_text(encoding="utf-8") for path in CALLERS)
    unused = [name for name in hashta.__all__ if not re.search(rf"\b{re.escape(name)}\b", text)]
    assert unused == []
