"""Static checks over the package source."""

import ast
from pathlib import Path

import tickettriage

_SRC = Path(tickettriage.__file__).parent


def _unread_parameters(tree: ast.AST) -> list[tuple[int, str, str]]:
    """(line, function, parameter) for every parameter of a function or
    lambda, other than self/cls, that its body never reads."""
    unread = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs,
                  *(x for x in (a.vararg, a.kwarg) if x is not None)]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", "<lambda>")
        unread += [(node.lineno, name, arg.arg) for arg in params
                   if arg.arg not in ("self", "cls") and arg.arg not in read]
    return unread


def test_no_function_ignores_a_parameter():
    found = [f"{path.name}:{line}: {fn}({arg})"
             for path in sorted(_SRC.glob("*.py"))
             for line, fn, arg in _unread_parameters(ast.parse(path.read_text(), str(path)))]
    assert found == []


def test_the_check_sees_unread_parameters():
    tree = ast.parse("def f(a, b, *rest, c=1, **kw):\n    return a + kw['x']\n"
                     "g = lambda x, y: x\n"
                     "class C:\n    def m(self, z):\n        def inner():\n"
                     "            return z\n        return inner\n")
    assert sorted(arg for _, _, arg in _unread_parameters(tree)) == ["b", "c", "rest", "y"]
