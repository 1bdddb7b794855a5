"""The public names each layer module declares, and the README's use of
them."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

LAYERS = ("potentials", "spectra", "susyqm", "wavefunctions", "limits",
          "oracle")
SRC = Path(__file__).resolve().parent.parent / "src" / "diracbound"


@pytest.mark.parametrize("layer", LAYERS)
def test_every_exported_name_resolves(layer):
    # Tools that wrap the public functions look each __all__ entry up with
    # getattr, so a name left behind by a rename breaks them at start-up.
    module = importlib.import_module(f"diracbound.{layer}")
    assert len(set(module.__all__)) == len(module.__all__)
    missing = [name for name in module.__all__
               if not hasattr(module, name)]
    assert not missing, f"{layer}.__all__ names missing attributes {missing}"


@pytest.mark.parametrize("layer", LAYERS)
def test_the_package_reexports_every_layer_name(layer):
    # `from diracbound import name` must reach every public name, so one
    # added to a layer's __all__ cannot be left out of the package.
    package = importlib.import_module("diracbound")
    module = importlib.import_module(f"diracbound.{layer}")
    missing = [name for name in module.__all__
               if getattr(package, name, None) is not getattr(module, name)]
    assert not missing, f"diracbound does not re-export {missing}"


def test_each_public_name_has_one_home():
    # A layer that re-exports another's name gives it two import paths,
    # and the package one more; each name is declared by one layer only.
    homes = {}
    for layer in LAYERS:
        for name in importlib.import_module(f"diracbound.{layer}").__all__:
            homes.setdefault(name, []).append(layer)
    shared = {name: found for name, found in homes.items() if len(found) > 1}
    assert not shared, f"names in more than one layer's __all__: {shared}"


def _private(name):
    return name.startswith("_") and not (name.startswith("__")
                                         and name.endswith("__"))


def _defined(body):
    """Names that function, class and assignment statements bind in body."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        yield leaf.id


def test_every_private_helper_has_a_caller():
    # A module- or class-level _name that nothing reads or imports is dead
    # code: a reference is a loaded name or attribute, or an imported name,
    # anywhere in the package.
    trees = [ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))]
    assert trees, SRC
    defined, used = set(), set()
    for tree in trees:
        defined.update(_defined(tree.body))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                defined.update(_defined(node.body))
            elif isinstance(node, ast.Name) \
                    and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) \
                    and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    unused = sorted(name for name in defined - used if _private(name))
    assert not unused, f"private names without a caller: {unused}"


def _passed(call, positional, keyword_only):
    """The argument node call gives each parameter, None where it leaves
    the parameter out; None for the whole call if it unpacks * or **."""
    if any(isinstance(arg, ast.Starred) for arg in call.args) \
            or any(kw.arg is None for kw in call.keywords):
        return None
    given = dict(zip(positional, call.args))
    given.update((kw.arg, kw.value) for kw in call.keywords)
    return [given.get(name) for name in positional + keyword_only]


def test_no_private_function_parameter_is_a_constant():
    # A parameter of a private module-level function that every bare-name
    # call in the package leaves out, or sets to one and the same literal,
    # is a constant posing as an argument: fold it into the body.
    trees = [ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))]
    functions = {node.name: node for tree in trees for node in tree.body
                 if isinstance(node, ast.FunctionDef) and _private(node.name)}
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                    and node.func.id in functions:
                calls.setdefault(node.func.id, []).append(node)
    constant = []
    for name, found in sorted(calls.items()):
        args = functions[name].args
        positional = [a.arg for a in args.posonlyargs + args.args]
        keyword_only = [a.arg for a in args.kwonlyargs]
        passed = [_passed(call, positional, keyword_only) for call in found]
        if None in passed:
            continue
        for param, nodes in zip(positional + keyword_only, zip(*passed)):
            if all(node is None for node in nodes) or (
                    all(isinstance(node, ast.Constant) for node in nodes)
                    and len({(type(node.value), node.value)
                             for node in nodes}) == 1):
                constant.append(f"{name}({param})")
    assert not constant, f"parameters every call sets alike: {constant}"


def test_only_potentials_forms_the_screened_variable():
    # 1 - e^(-2 delta r) is formed once, by potentials._screening with
    # expm1; a module that calls expm1 itself restates it.
    callers = sorted(
        path.name for path in SRC.glob("*.py") if path.name != "potentials.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and "expm1" in (getattr(node.func, "attr", None),
                        getattr(node.func, "id", None)))
    assert not callers, f"modules that call expm1: {callers}"


def test_the_readme_library_example_runs():
    # The README's one python block, run on this checkout's src in a new
    # interpreter, so a renamed or removed name or field cannot leave it
    # broken; its first line is the table root.
    readme = (SRC.parents[1] / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
    assert len(blocks) == 1
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", blocks[0]], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert f"{float(run.stdout.splitlines()[0]):.8f}" == "0.24725816"
