"""Concrete run-time value semantics shared by both interpreters.

ints are 32-bit two's complement, floats are doubles, matching the C
backends (compiled with ``-fwrapv``) so every execution route produces the
same output stream.
"""

from __future__ import annotations

from repro.frontend.errors import InterpError
from repro.frontend.types import BOOLEAN, FLOAT, INT, ScalarType
from repro.graph.builder import BINARY_OPS
from repro.lir.ops import wrap_i32


def runtime_binary(op: str, left: object, right: object) -> object:
    """Apply one binary operator with C-like semantics."""
    fn = BINARY_OPS.get(op)
    if fn is None:
        raise AssertionError(f"unknown operator {op}")
    try:
        result = fn(left, right)
    except ZeroDivisionError:
        raise InterpError(f"division by zero in {op!r}") from None
    except ValueError:
        raise InterpError(f"negative shift count in {op!r} (shift counts "
                          "must be in [0, 31])") from None
    if isinstance(result, int) and not isinstance(result, bool):
        return wrap_i32(result)
    return result


def runtime_unary(op: str, value: object) -> object:
    if op == "-":
        result = -value  # type: ignore[operator]
        return wrap_i32(result) if isinstance(result, int) \
            and not isinstance(result, bool) else result
    if op == "!":
        return not value
    if op == "~":
        return wrap_i32(~value)  # type: ignore[operator]
    raise AssertionError(f"unknown unary operator {op}")


def coerce_runtime(value: object, ty: ScalarType) -> object:
    if ty == INT:
        if isinstance(value, bool):
            return int(value)
        return wrap_i32(int(value))  # type: ignore[arg-type]
    if ty == FLOAT:
        return float(value)  # type: ignore[arg-type]
    if ty == BOOLEAN:
        return bool(value)
    raise AssertionError(f"cannot coerce to {ty}")


def default_value(ty: ScalarType) -> object:
    if ty == INT:
        return 0
    if ty == FLOAT:
        return 0.0
    if ty == BOOLEAN:
        return False
    raise AssertionError(f"no default for {ty}")
