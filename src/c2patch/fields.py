"""Named scalar fields and a small arithmetic expression grammar.

Fields are callables f(x1, x2) operating on numpy arrays.  Expressions may
use the identifiers x1 and x2, numeric literals, + - * /, unary minus,
** or pow(a, b), and the functions sin, cos, exp.
"""

from __future__ import annotations

import ast

import numpy as np

FIELDS = {
    # 2*cos(2*x1)*sin(2*x2), the oscillatory benchmark field
    "cos2sin2": lambda x1, x2: 2.0 * np.cos(2.0 * x1) * np.sin(2.0 * x2),
    "one": lambda x1, x2: np.ones_like(np.asarray(x1, dtype=float)),
    "linear": lambda x1, x2: np.asarray(x1, dtype=float),
}

_FUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "pow": np.power}
_BIN = {ast.Add: np.add, ast.Sub: np.subtract, ast.Mult: np.multiply,
        ast.Div: np.divide, ast.Pow: np.power}


class FieldError(ValueError):
    """Unknown field name or malformed field expression."""


def _eval_node(node, env):
    if isinstance(node, ast.Expression):
        return _eval_node(node.body, env)
    if isinstance(node, ast.Constant):
        if isinstance(node.value, (int, float)):
            return float(node.value)
        raise FieldError(f"non-numeric literal {node.value!r}")
    if isinstance(node, ast.Name):
        if node.id in env:
            return env[node.id]
        raise FieldError(f"unknown identifier {node.id!r} (use x1, x2)")
    if isinstance(node, ast.BinOp) and type(node.op) in _BIN:
        return _BIN[type(node.op)](_eval_node(node.left, env),
                                   _eval_node(node.right, env))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return -_eval_node(node.operand, env)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.UAdd):
        return _eval_node(node.operand, env)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        fn = _FUNCS.get(node.func.id)
        if fn is None:
            raise FieldError(f"unknown function {node.func.id!r}")
        if node.keywords:
            raise FieldError("keyword arguments are not supported")
        if len(node.args) != fn.nin:
            raise FieldError(f"{node.func.id}() takes {fn.nin} argument(s), "
                             f"got {len(node.args)}")
        args = [_eval_node(a, env) for a in node.args]
        return fn(*args)
    raise FieldError(f"unsupported syntax: {ast.dump(node)}")


def parse_expression(expr: str):
    """Compile an expression in x1, x2 into a field callable."""
    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as exc:
        raise FieldError(f"cannot parse field expression: {exc}") from exc

    def field(x1, x2):
        return _eval_node(tree, {"x1": np.asarray(x1, dtype=float),
                                 "x2": np.asarray(x2, dtype=float)})

    field(0.5, 0.5)  # fail fast on bad identifiers
    return field


def resolve_field(name_or_expr: str):
    """A named field from the registry, or a compiled expression."""
    if name_or_expr in FIELDS:
        return FIELDS[name_or_expr]
    return parse_expression(name_or_expr)
