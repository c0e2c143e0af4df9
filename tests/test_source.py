"""Checks on the package source itself."""

from __future__ import annotations

import ast
import importlib
import os
import re
import shutil
import subprocess
import sys
from collections import Counter
from dataclasses import fields
from pathlib import Path

import pytest

import dxcouncil
from dxcouncil import errors, runner
from dxcouncil.config import RunConfig
from dxcouncil.gateway import LIVE, REPLAY
from dxcouncil.trace import Trace

from conftest import FIXTURES
from test_fanout import TableBackend, fixture_config, fixture_runtime

REPO = Path(__file__).resolve().parent.parent


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so an invariant guarded by one
    # would go unchecked; the package raises EngineError subclasses instead
    package = Path(dxcouncil.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(package.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def _names_used(tree: ast.AST) -> set[str]:
    """Every name the module reads: bare names, the strings of ``__all__``,
    and names inside string annotations and subscripts (``"Gateway"`` in
    ``Callable[["Gateway"], T]``)."""
    used: set[str] = set()
    typed: list[ast.AST] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(elt.value for elt in node.value.elts)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            typed.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            typed.append(node.returns)
        elif isinstance(node, ast.Subscript):
            typed.append(node.slice)
    for annotation in typed:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    used |= _names_used(ast.parse(node.value, mode="eval"))
                except SyntaxError:  # a string that is not a type, as in Literal
                    pass
    return used


def test_package_has_no_unused_imports():
    package = Path(dxcouncil.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = _names_used(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []


def test_every_name_in_all_exists_on_the_package():
    assert [name for name in dxcouncil.__all__ if not hasattr(dxcouncil, name)] == []


def test_package_imports_only_at_module_level():
    # an import inside a function hides a module dependency from the top of
    # the file, and usually works round an import cycle that is not there
    package = Path(dxcouncil.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(package.glob("*.py"))
             for func in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(func)
             if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert found == []


def test_package_takes_vector_products_with_matmul_only():
    # np.dot and np.linalg.norm release and re-take the GIL on every call,
    # so beside a busy thread each call waits; 1-d `@` gives the same bits
    # and keeps the GIL
    package = Path(dxcouncil.__file__).parent
    found = [f"{path.name}:{node.lineno} {ast.unparse(node)}"
             for path in sorted(package.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Attribute)
             and (node.attr == "dot" or node.attr == "norm"
                  and isinstance(node.value, ast.Attribute) and node.value.attr == "linalg")]
    assert found == []


def test_file_lines_are_decoded_by_the_jsonl_decoder_only():
    # json.loads reads a model's answer and an HTTP reply; a line of a file
    # goes through jsonl.decode, orjson's loads first, then json.loads
    package = Path(dxcouncil.__file__).parent
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in package.glob("*.py")}
    found = sorted(f"{name} {getattr(top, 'name', top.lineno)}"
                   for name, tree in trees.items()
                   for top in tree.body
                   for node in ast.walk(top)
                   if isinstance(node, ast.Attribute) and node.attr == "loads"
                   or isinstance(node, ast.ImportFrom)
                   and any(alias.name == "loads" for alias in node.names))
    allowed = {"backends.py post_json", "jsonl.py decode"}
    assert [site for site in found
            if not site.startswith("judgments.py ") and site not in allowed] == []
    assert allowed <= set(found)
    # orjson encodes trace lines and decodes file lines, nothing else
    assert sorted(name for name, tree in trees.items()
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Import)
                  and any(alias.name == "orjson" for alias in node.names)
                  or isinstance(node, ast.ImportFrom) and node.module == "orjson"
                  ) == ["jsonl.py", "trace.py"]


def test_every_exception_class_is_defined_in_errors_py():
    package = Path(dxcouncil.__file__).parent
    modules = [importlib.import_module(f"dxcouncil.{path.stem}")
               for path in sorted(package.glob("*.py")) if path.stem != "__main__"]
    found = {f"{module.__name__}.{name}"
             for module in modules for name, value in vars(module).items()
             if isinstance(value, type) and issubclass(value, BaseException)
             and value.__module__ == module.__name__}
    assert found == {f"dxcouncil.errors.{name}" for name, value in vars(errors).items()
                     if isinstance(value, type) and issubclass(value, errors.EngineError)}


def test_every_error_class_but_the_base_is_raised_or_caught_outside_errors_py():
    # a class only tests tell apart from its stage's class folds into it
    package = Path(dxcouncil.__file__).parent
    used: set[str] = set()
    for path in sorted(package.glob("*.py")):
        if path.name != "errors.py":
            used |= _names_used(ast.parse(path.read_text(encoding="utf-8")))
    classes = {name for name, value in vars(errors).items()
               if isinstance(value, type) and issubclass(value, errors.EngineError)}
    assert sorted(classes - used - {"EngineError"}) == []


def test_only_the_runner_builds_a_gateway_or_a_trace():
    # one gateway and one trace per case: every branch task calls through
    # its case's gateway, and what a branch writes is held, not traced apart
    package = Path(dxcouncil.__file__).parent
    found = sorted(f"{path.name} {node.func.id}"
                   for path in package.glob("*.py")
                   for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                   if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                   and node.func.id in ("Gateway", "Trace"))
    assert found == ["runner.py Gateway", "runner.py Trace"]


def test_deliberation_imports_nothing_from_retrieval_or_the_graph():
    # a panel asks for more evidence through the supplement builder it is
    # handed; the graph, the index and the scorer stay with the runner
    tree = ast.parse((Path(dxcouncil.__file__).parent / "deliberation.py")
                     .read_text(encoding="utf-8"))
    imported = {name.split(".")[-1] for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for name in [getattr(node, "module", None) or "",
                             *(alias.name for alias in node.names)]}
    assert sorted(imported & {"backends", "guidelines", "kg"}) == []


def test_config_imports_nothing_from_the_package_but_errors():
    # RunConfig declares every run setting and its default itself
    tree = ast.parse((Path(dxcouncil.__file__).parent / "config.py").read_text(encoding="utf-8"))
    assert [node.module for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level > 0] == ["errors"]


def test_no_function_gives_a_run_setting_a_default():
    # RunConfig's field defaults are the one copy of each run setting's
    # default; every function takes the setting as a required argument
    settings = {setting.name for setting in fields(RunConfig)}
    found = []
    for path in sorted(Path(dxcouncil.__file__).parent.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            positional = func.args.posonlyargs + func.args.args
            defaulted = positional[len(positional) - len(func.args.defaults):] + [
                arg for arg, default in zip(func.args.kwonlyargs, func.args.kw_defaults)
                if default is not None]
            found += [f"{path.name}:{func.lineno} {arg.arg}" for arg in defaulted
                      if arg.arg in settings]
    assert found == []


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _private_definitions(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """(name, node) of each private module-level function, class and
    constant, and of each private method."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.name, node))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found.extend((t.id, node) for t in targets if isinstance(t, ast.Name))
        if isinstance(node, ast.ClassDef):
            found.extend((item.name, item) for item in node.body
                         if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)))
    return [(name, node) for name, node in found if _private(name)]


def _references(node: ast.AST) -> Counter:
    """How often each name is read under ``node``: as a bare name, an
    attribute, or an imported name."""
    found: Counter = Counter()
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            found[child.id] += 1
        elif isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
            found[child.attr] += 1
        elif isinstance(child, ast.ImportFrom):
            found.update(alias.name for alias in child.names)
    return found


def test_every_private_helper_is_used_outside_its_own_definition():
    # a helper only its own body (or nothing) refers to is dead code left
    # behind by a refactor; names are matched across the package
    package = Path(dxcouncil.__file__).parent
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}
    used = sum((_references(tree) for tree in trees.values()), Counter())
    found = [f"{module}:{node.lineno} {name}"
             for module, tree in trees.items()
             for name, node in _private_definitions(tree)
             if used[name] - _references(node)[name] <= 0]
    assert found == []


def test_no_module_imports_a_private_name_from_another():
    # a module's private names are its own: what another module needs from
    # it is public, or stays where it is used
    package = Path(dxcouncil.__file__).parent
    found = [f"{path.name}:{node.lineno} {alias.name}"
             for path in sorted(package.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.ImportFrom)
             and (node.level > 0 or (node.module or "").split(".")[0] == "dxcouncil")
             for alias in node.names if _private(alias.name)]
    assert found == []


# distributions whose import name differs from their name
_IMPORT_NAMES = {"pyyaml": "yaml"}


def _imported_top_level_modules(tree: ast.Module) -> set[str]:
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_the_package_imports_the_standard_library_and_its_declared_dependencies_only():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((REPO / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = set()
    for requirement in project["dependencies"]:
        name = re.match(r"[A-Za-z0-9._-]+", requirement).group(0).lower()
        declared.add(_IMPORT_NAMES.get(name, name))
    package = Path(dxcouncil.__file__).parent
    imported = set().union(*(_imported_top_level_modules(ast.parse(path.read_text(
        encoding="utf-8"))) for path in sorted(package.glob("*.py"))))
    undeclared = imported - set(sys.stdlib_module_names) - {"dxcouncil"} - declared
    assert (sorted(undeclared), sorted(declared - imported)) == ([], [])


def test_a_cli_replay_loads_no_http_client_package(tmp_path):
    # the replay config's output directory, ../runs/replay, then lies in tmp_path
    config = shutil.copytree(FIXTURES, tmp_path / "fixtures") / "replay_config.yaml"
    script = (
        "import sys\n"
        "from dxcouncil import cli\n"
        f"code = cli.main(['batch', '--config', {str(config)!r}])\n"
        "loaded = {'requests', 'urllib3', 'charset_normalizer', 'idna'} & set(sys.modules)\n"
        "print(repr((code, sorted(loaded))))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    assert done.stdout.splitlines()[-1] == "(0, [])"
    assert len((tmp_path / "runs" / "replay" / "results.jsonl").read_text().splitlines()) == 10


@pytest.mark.parametrize("label", [LIVE, REPLAY])
def test_a_batch_runs_each_case_through_run_case_and_writes_it_through_trace_write(
        tmp_path, monkeypatch, label):
    # perfbench times each case by rebinding the module-level name
    # runner.run_case, refuses a run that did not call it once per case, and
    # counts trace records and bytes by wrapping Trace.write
    calls: Counter = Counter()
    run_case, write = runner.run_case, Trace.write

    def counted_run_case(runtime, case):
        calls["run_case", case.case_id] += 1
        return run_case(runtime, case)

    def counted_write(trace, path):
        calls["Trace.write", trace.case_id] += 1
        return write(trace, path)

    monkeypatch.setattr(runner, "run_case", counted_run_case)
    monkeypatch.setattr(Trace, "write", counted_write)
    runtime = fixture_runtime(fixture_config(tmp_path), TableBackend(label))
    try:
        result = runner.run_batch(runtime)
    finally:
        runtime.close()
    assert len(result.rows) == 10
    assert calls == Counter({(name, row.case_id): 1 for row in result.rows
                             for name in ("run_case", "Trace.write")})
