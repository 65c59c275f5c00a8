"""The package's public surface: runtime dependencies and the documented API."""

import ast
import re
import sys
from pathlib import Path

import pgpu

ROOT = Path(__file__).resolve().parents[1]


def test_numpy_is_the_only_runtime_dependency():
    for path in sorted((ROOT / "src" / "pgpu").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                top = module.split(".")[0]
                ok = top in sys.stdlib_module_names or top == "numpy"
                assert ok, f"{path.name} imports {module}"


def test_public_names_resolve_and_match_readme():
    assert len(pgpu.__all__) == len(set(pgpu.__all__)) <= 30
    for name in pgpu.__all__:
        assert getattr(pgpu, name) is not None
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Public API", 1)[1].split("\n## ", 1)[0]
    documented = re.findall(r"^- `(\w+)`", section, flags=re.M)
    assert sorted(documented) == sorted(pgpu.__all__)
