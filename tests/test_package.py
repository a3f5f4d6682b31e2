"""The package holds only what its subcommands run, and loads only that."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import condlab

SRC = Path(condlab.__file__).resolve().parent
CONFIGS = SRC.parents[1] / "configs"


def _names_used(tree: ast.AST, skip: set[int]) -> set[str]:
    """Every name and attribute read in ``tree`` outside the nodes whose
    ids are in ``skip``."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))
            and id(node) not in skip}


def test_every_module_level_definition_is_used_in_the_package():
    # code that only the tests exercise lives in tests/reference.py
    trees = {p.name: ast.parse(p.read_text()) for p in SRC.glob("*.py")}
    unused = []
    for module, tree in sorted(trees.items()):
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            own = {id(n) for n in ast.walk(node)}
            if not any(node.name in _names_used(t, own if m == module
                                                else set())
                       for m, t in trees.items()):
                unused.append(f"{module}: {node.name}")
    assert unused == []


def test_oracle_import_loads_no_scipy():
    code = ("import sys, condlab.oracle; "
            "print(sorted(m for m in sys.modules "
            "if m.partition('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_cli_import_loads_only_the_config_readers():
    # reading a config builds meshes, material maps and data; each
    # command's builder imports the layers its run uses
    code = ("import json, sys, condlab.cli; "
            "print(json.dumps(sorted(m for m in sys.modules "
            "if m.partition('.')[0] == 'condlab')))")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert json.loads(out.stdout) == [
        "condlab", "condlab.cli", "condlab.constitutive", "condlab.mesh",
        "condlab.solver"]


@pytest.mark.parametrize("argv, unused", [
    (["reproduce-wire", "wire_tables_unitscale.json"],
     ["imaging", "monotonicity", "oracle"]),
    (["mpm-image", "phantom_single.json", "--workers", "1"],
     ["monotonicity", "oracle"]),
    (["monotonicity-suite", "battery.json"], ["imaging", "oracle"])],
    ids=["reproduce-wire", "mpm-image", "monotonicity-suite"])
def test_runs_load_no_numpy_module_they_do_not_use(argv, unused, tmp_path):
    # a plain np.unique call imports numpy.ma, a noise draw numpy.random
    # and a quadrature rule numpy.polynomial; these commands use none of
    # them, the noiseless phantom and a quad_order they ignore included,
    # and load none of the package's layers that they do not run
    command, config, *rest = argv
    cfg = json.loads((CONFIGS / config).read_text())
    path = tmp_path / config
    path.write_text(json.dumps(dict(cfg, quad_order=2)))
    modules = ["numpy.ma", "numpy.random", "numpy.polynomial",
               *(f"condlab.{name}" for name in unused)]
    code = ("import sys, condlab.cli; "
            "assert condlab.cli.main(sys.argv[1:]) == 0; "
            f"print([m for m in {modules!r} if m in sys.modules])")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", code, command, "--config",
                          str(path), "--out", str(tmp_path / "out"), *rest],
                         env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip().splitlines()[-1] == "[]"
