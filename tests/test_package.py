"""The package's public surface: runtime dependencies and the documented API."""

import ast
import os
import re
import subprocess
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


def test_importing_pgpu_loads_no_thread_executor():
    # concurrent.futures loads logging, queue and traceback (about 740 kB); only a call
    # that shares a large matrix with a helper thread needs it
    code = "import sys, pgpu; print('concurrent.futures' in sys.modules)"
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, timeout=120, check=True)
    assert out.stdout.split() == ["False"]


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


# Defaulted parameters that only tests set, each kept on purpose:
_TEST_ONLY_PARAMETERS = {
    # tests check tight optima and the iteration cap with them, and a second SMO tolerance
    # for the clean fit of data generation is planned
    ("svm.py", "smo_solve", "tol"),
    ("svm.py", "smo_solve", "max_iter"),
    # the command-line entry point, which tests drive with an argument list
    ("cli.py", "main", "argv"),
}


def _defaulted(fn: ast.FunctionDef, is_method: bool) -> dict[str, int | None]:
    """Each parameter of ``fn`` that has a default -> its position among a call's positional
    arguments (a method's self is not one), or None when it is keyword-only."""
    positional = [a.arg for a in fn.args.posonlyargs + fn.args.args][1 if is_method else 0:]
    first = len(positional) - len(fn.args.defaults)
    found = {name: i for i, name in enumerate(positional) if i >= first}
    found.update((a.arg, None) for a, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                 if default is not None)
    return found


def _passes(call: ast.Call, name: str, position: int | None) -> bool:
    """Whether ``call`` may pass the parameter: by keyword or a ** mapping, or by position
    or a * sequence."""
    return (any(k.arg in (name, None) for k in call.keywords)
            or position is not None and any(isinstance(a, ast.Starred) or i >= position
                                             for i, a in enumerate(call.args)))


def test_no_defaulted_parameter_is_set_only_by_tests():
    library = sorted((ROOT / "src" / "pgpu").glob("*.py"))
    callers = library + sorted((ROOT / "scripts").glob("*.py"))
    callers += sorted((ROOT / "perfbench").glob("*.py"))
    calls = [node for path in callers
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call)]
    unused = []
    for path in library:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            # a call by the function's name, plain or as an attribute
            named = [c for c in calls
                     if getattr(c.func, "id", getattr(c.func, "attr", None)) == fn.name]
            for name, position in _defaulted(fn, id(fn) in methods).items():
                if ((path.name, fn.name, name) not in _TEST_ONLY_PARAMETERS
                        and not any(_passes(c, name, position) for c in named)):
                    unused.append(f"{path.name}:{fn.lineno} {fn.name}({name}=...)")
    assert unused == []
