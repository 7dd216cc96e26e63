"""The names of the package that perfbench/ pins, read without running it.

The benchmark wraps functions where its tracer finds them and imports
others by name, so a rename or a deletion in src/belltime breaks it.
These checks catch such a break in the tests.  ``run.py`` sets BLAS
environment variables when imported, so its imports are read with ``ast``.
"""

import ast
import pkgutil
import runpy
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_function_is_where_the_tracer_reads_it():
    targets = runpy.run_path(str(PERFBENCH / "tracing.py"))["TARGETS"]
    # Tracer.install reads and replaces owner.__dict__[attr], not an inherited one
    assert [f"{owner.__name__}.{attr}" for owner, attr, _ in targets
            if attr not in vars(owner)] == []


@pytest.mark.parametrize("script", ["run.py", "workloads.py"])
def test_every_name_taken_from_the_package_exists(script):
    names = set()  # dotted: each import, and each attribute read such as belltime.cli.main
    for node in ast.walk(ast.parse((PERFBENCH / script).read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Attribute):
            names.add(ast.unparse(node))
    taken = sorted(name for name in names if name.split(".")[0] == "belltime")
    assert taken
    for name in taken:
        pkgutil.resolve_name(name)  # an AttributeError names what is gone
