"""Arithmetic rule strings for generating mode sequences.

A rule is an expression in the integer mode index ``n`` (n = 1, 2, ...),
for example ``"(n*pi)^2"`` or ``"sqrt(2)*n*pi*(-1)^(n+1)"``.  The grammar
is deliberately small: numeric literals, the constants ``pi`` and ``e``,
the variable ``n``, the operations ``+ - * / ^``, and the functions
``sqrt``, ``sin``, ``cos``.  Rules are parsed with the stdlib ``ast``
module against a node whitelist; nothing is ever passed to ``eval``.
"""

from __future__ import annotations

import ast
import math

__all__ = ["RuleError", "RuleParseError", "compile_rule", "evaluate_rule"]

# Rule values past 2^40 are refused: downstream exponentials and products
# stop being meaningful at desk scale.
RULE_VALUE_CEILING = 2.0**40

_FUNCTIONS = {"sqrt": math.sqrt, "sin": math.sin, "cos": math.cos}
_CONSTANTS = {"pi": math.pi, "e": math.e}

_BINOPS = {
    ast.Add: lambda a, b: a + b,
    ast.Sub: lambda a, b: a - b,
    ast.Mult: lambda a, b: a * b,
    ast.Div: lambda a, b: a / b,
    ast.Pow: lambda a, b: a**b,
}


class RuleError(ValueError):
    """A rule could not be evaluated (bad value, overflow, domain error)."""


class RuleParseError(RuleError):
    """A rule could not be parsed; ``position`` is a 0-based column offset."""

    def __init__(self, message, position=None):
        self.position = position
        if position is not None:
            message = f"{message} (column {position})"
        super().__init__(message)


def _source_position(translated, offset):
    # The parser sees '^' rewritten to '**'; map a column in the rewritten
    # text back to the original rule string.
    return max(0, offset - translated[:max(offset, 0)].count("**"))


def _check_number(value):
    if isinstance(value, complex):
        raise RuleError("rule produced a non-real value")
    if not math.isfinite(value):
        raise RuleError("rule produced a non-finite value")
    return float(value)


def _evaluate_node(node, n, translated):
    if isinstance(node, ast.Expression):
        return _evaluate_node(node.body, n, translated)
    if isinstance(node, ast.Constant):
        if isinstance(node.value, (int, float)) and not isinstance(node.value, bool):
            return float(node.value)
        raise RuleParseError(
            "only numeric constants are allowed",
            _source_position(translated, node.col_offset),
        )
    if isinstance(node, ast.Name):
        if node.id == "n":
            return float(n)
        if node.id in _CONSTANTS:
            return _CONSTANTS[node.id]
        raise RuleParseError(
            f"unknown name {node.id!r}", _source_position(translated, node.col_offset)
        )
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        value = _evaluate_node(node.operand, n, translated)
        return value if isinstance(node.op, ast.UAdd) else -value
    if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
        left = _evaluate_node(node.left, n, translated)
        right = _evaluate_node(node.right, n, translated)
        try:
            value = _BINOPS[type(node.op)](left, right)
        except ZeroDivisionError:
            raise RuleError("division by zero while evaluating rule") from None
        except OverflowError:
            raise RuleError("overflow while evaluating rule") from None
        return _check_number(value)
    if isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCTIONS:
            raise RuleParseError(
                "only sqrt, sin and cos calls are allowed",
                _source_position(translated, node.col_offset),
            )
        if len(node.args) != 1 or node.keywords:
            raise RuleParseError(
                f"{node.func.id} takes exactly one argument",
                _source_position(translated, node.col_offset),
            )
        arg = _evaluate_node(node.args[0], n, translated)
        try:
            value = _FUNCTIONS[node.func.id](arg)
        except (ValueError, OverflowError) as exc:
            raise RuleError(f"{node.func.id}: {exc}") from None
        return _check_number(value)
    raise RuleParseError(
        "unsupported construct in rule",
        _source_position(translated, getattr(node, "col_offset", 0)),
    )


def compile_rule(text):
    """Parse a rule string and return a callable ``n -> float``."""
    if not isinstance(text, str) or not text.strip():
        raise RuleParseError("rule must be a non-empty string", 0)
    translated = text.replace("^", "**")
    try:
        tree = ast.parse(translated, mode="eval")
    except SyntaxError as exc:
        position = _source_position(translated, (exc.offset or 1) - 1)
        raise RuleParseError(f"invalid syntax in rule {text!r}", position) from None

    def evaluate(n):
        return _evaluate_node(tree, n, translated)

    return evaluate


def evaluate_rule(text, count):
    """Values of a rule at n = 1 .. count; any past ``RULE_VALUE_CEILING`` raises RuleError."""
    if count < 1:
        raise ValueError("count must be at least 1")
    rule = compile_rule(text)
    values = [rule(n) for n in range(1, count + 1)]
    worst = max(abs(v) for v in values)
    if worst > RULE_VALUE_CEILING:
        raise RuleError(f"rule values reach {worst:.3g}, beyond the 2^40 working ceiling")
    return values
