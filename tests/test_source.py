"""Checks on the library's source text."""

import ast
from pathlib import Path

import screenkhorn

SOURCES = sorted(Path(screenkhorn.__file__).resolve().parent.glob("*.py"))


def unused_parameters(path: Path) -> list[str]:
    """'file function(parameter)' for each parameter of a function in path,
    other than self and cls, that the function's body never names."""
    found = []
    for func in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = func.args
        params = [
            *args.posonlyargs, *args.args, *args.kwonlyargs,
            *(a for a in (args.vararg, args.kwarg) if a is not None),
        ]
        named = {
            node.id
            for stmt in func.body
            for node in ast.walk(stmt)
            if isinstance(node, ast.Name)
        }
        found.extend(
            f"{path.name} {func.name}({a.arg})"
            for a in params
            if a.arg not in ("self", "cls") and a.arg not in named
        )
    return found


def test_every_parameter_is_named():
    # the glob found the package's modules, so an empty list below means
    # something
    assert Path(screenkhorn.__file__).resolve() in SOURCES and len(SOURCES) > 1
    unused = [hit for path in SOURCES for hit in unused_parameters(path)]
    assert unused == []
