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


def test_readme_quickstart_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quickstart", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], "README.md quickstart", "exec"), namespace)
    gaps, train = namespace["gaps"], namespace["train"]
    assert gaps.shape == (train.n,) and ((gaps > -1.0) & (gaps < 1.0)).all()
    assert 0.5 < namespace["accuracy"] <= 1.0


def _references(path: Path, dotted_strings: bool) -> set[str]:
    """Names a file loads or reads as attributes; with ``dotted_strings``, also every part of
    a string constant such as "svm.smo_solve", as perfbench names the functions it traces."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif (dotted_strings and isinstance(node, ast.Constant) and isinstance(node.value, str)
              and re.fullmatch(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+", node.value)):
            names.update(node.value.split("."))
    return names


def test_the_library_carries_no_helper_that_only_tests_use():
    library = sorted((ROOT / "src" / "pgpu").glob("*.py"))
    used = set(pgpu.__all__)
    for path in library:
        used |= _references(path, dotted_strings=False)
    for path in sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")):
        used |= _references(path, dotted_strings=True)
    unused = []
    for path in library:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not re.fullmatch(r"__\w+__", node.name) and node.name not in used):
                unused.append(f"{path.name}:{node.lineno} {node.name}")
    assert unused == []


def test_no_module_imports_a_name_it_never_loads():
    # __init__.py is left out: its imports are the package's public re-exports
    paths = [p for p in sorted((ROOT / "src" / "pgpu").glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
    unused = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}  # the name an import binds -> its line
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update((a.asname or a.name, node.lineno) for a in node.names)
        loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.relative_to(ROOT)}:{line} {name}"
                   for name, line in imported.items() if name not in loaded]
    assert unused == []
