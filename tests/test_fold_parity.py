"""The lowering's constant folder agrees with the interpreters' arithmetic.

For every binary and unary operator and for int, float and mixed operands
(edge values included), three things must give what
:func:`repro.interp.values.runtime_binary` / ``runtime_unary`` give:

* ``Emitter.binop``/``unop`` on two constants (the folder every caller
  shares);
* the *folded form*: an expression over stream parameters, which the
  staged executor folds while lowering, so the printed values are
  constants in the lowered program;
* the *emitted form*: the same expression over fields, which lowers to
  real ops, run through the LaminarIR interpreter without optimization.

An operation the interpreters reject (division by zero, a negative shift
count) must be rejected by each form as well.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro import OptOptions, compile_source
from repro.frontend.errors import CompileError, InterpError, UNKNOWN_LOCATION
from repro.frontend.types import FLOAT, INT
from repro.lir import PrintOp, lower
from repro.lir.ops import Const
from repro.lir.symexec import Emitter
from repro.interp.values import coerce_runtime, runtime_binary, runtime_unary

INT_MIN, INT_MAX = -2 ** 31, 2 ** 31 - 1
INT_OPS = ("+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>",
           "==", "!=", "<", "<=", ">", ">=")
FLOAT_OPS = ("+", "-", "*", "/", "==", "!=", "<", "<=", ">", ">=")

ints = st.sampled_from([INT_MIN, INT_MIN + 1, -1, 0, 1, 2, 31, 32,
                        INT_MAX]) | st.integers(INT_MIN, INT_MAX)
floats = st.sampled_from([-0.0, 0.0, 1.0, -1.5, math.inf, -math.inf,
                          math.nan, 1e308, 5e-324]) | st.floats()


def _literal(value: object) -> str:
    """Source text that elaborates to exactly ``value``."""
    if isinstance(value, int):
        return str(value)
    if math.isnan(value):
        return "(1e308 * 10.0 - 1e308 * 10.0)"
    if math.isinf(value):
        return "(1e308 * 10.0)" if value > 0 else "(-1e308 * 10.0)"
    return repr(value)


def _cases(a, b, ops):
    """(source expression, expected value or exception type) pairs."""
    cases = []
    for op in ops:
        try:
            cases.append((f"x {op} y", runtime_binary(op, a, b)))
        except InterpError:
            cases.append((f"x {op} y", InterpError))
    cases.append(("-x", runtime_unary("-", a)))
    cases.append(("!(x < y)", runtime_unary("!", runtime_binary("<", a, b))))
    if isinstance(a, int):
        cases.append(("~x", runtime_unary("~", a)))
    return cases


def _program(out: str, a, b, exprs: list[str], emitted: bool) -> str:
    a_ty = "int" if isinstance(a, int) else "float"
    b_ty = "int" if isinstance(b, int) else "float"
    pushes = " ".join(f"push(({out})({e}));" for e in exprs)
    if emitted:
        # fields: the operands are loads, so every operator is an op
        head = (f"void->{out} filter S({a_ty} a, {b_ty} b) {{ "
                f"{a_ty} x; {b_ty} y; init {{ x = a; y = b; }} ")
    else:
        # parameters: the operands are constants, so everything folds
        head = (f"void->{out} filter S({a_ty} x, {b_ty} y) {{ ")
    return (head + f"work push {len(exprs)} {{ {pushes} }} }}\n"
            f"{out}->void filter P() {{ work pop 1 {{ println(pop()); }} }}\n"
            f"void->void pipeline Top {{ add S({_literal(a)}, "
            f"{_literal(b)}); add P(); }}\n")


def _same(got, want) -> bool:
    return repr(got) == repr(want) and type(got) is type(want)


def _check(a, b, ops):
    out_ty = INT if isinstance(a, int) and isinstance(b, int) else FLOAT
    out = str(out_ty)
    cases = _cases(a, b, ops)
    # a boolean cannot be pushed or cast: select 1 or 0 with it instead
    one, zero = ("1", "0") if out_ty is INT else ("1.0", "0.0")
    good = [(f"({e}) ? {one} : {zero}" if isinstance(v, bool) else e,
             coerce_runtime(v, out_ty)) for e, v in cases
            if v is not InterpError]
    exprs = [e for e, _ in good]
    want = [v for _, v in good]

    folded = compile_source(_program(out, a, b, exprs, emitted=False))
    prints = [op.value for op in lower(folded.schedule, folded.source).steady
              if isinstance(op, PrintOp)]
    assert all(isinstance(v, Const) for v in prints)
    got = [v.value for v in prints]
    assert all(_same(g, w) for g, w in zip(got, want)), (exprs, got, want)

    emitted = compile_source(_program(out, a, b, exprs, emitted=True))
    got = emitted.run_laminar(1, opt=OptOptions.none()).outputs
    assert all(_same(g, w) for g, w in zip(got, want)), (exprs, got, want)

    for expr in (e for e, v in cases if v is InterpError):
        folded = compile_source(_program(out, a, b, [expr], emitted=False))
        with pytest.raises(CompileError):
            lower(folded.schedule, folded.source)
        emitted = compile_source(_program(out, a, b, [expr], emitted=True))
        with pytest.raises(InterpError):
            emitted.run_laminar(1, opt=OptOptions.none())


class TestEmitterFolding:
    @settings(max_examples=200, deadline=None)
    @given(ints, ints, st.sampled_from(INT_OPS))
    def test_int_binop(self, a, b, op):
        self._agree(Const(INT, a), Const(INT, b), op)

    @settings(max_examples=200, deadline=None)
    @given(floats, floats, st.sampled_from(FLOAT_OPS))
    def test_float_binop(self, a, b, op):
        self._agree(Const(FLOAT, a), Const(FLOAT, b), op)

    @given(ints)
    def test_int_unop(self, a):
        for op in ("-", "~"):
            folded = Emitter().unop(op, Const(INT, a))
            assert _same(folded.value, runtime_unary(op, a))

    @given(floats)
    def test_float_unop(self, a):
        assert _same(Emitter().unop("-", Const(FLOAT, a)).value,
                     runtime_unary("-", a))

    @staticmethod
    def _agree(lhs, rhs, op):
        try:
            want = runtime_binary(op, lhs.value, rhs.value)
        except InterpError:
            with pytest.raises(CompileError):
                Emitter().binop(op, lhs, rhs, UNKNOWN_LOCATION)
            return
        folded = Emitter().binop(op, lhs, rhs, UNKNOWN_LOCATION)
        assert isinstance(folded, Const)
        assert _same(folded.value, want)


class TestLoweringFolding:
    @settings(max_examples=25, deadline=None)
    @given(ints, ints)
    def test_int_operands(self, a, b):
        _check(a, b, INT_OPS)

    @settings(max_examples=25, deadline=None)
    @given(floats, floats)
    def test_float_operands(self, a, b):
        _check(a, b, FLOAT_OPS)

    @settings(max_examples=15, deadline=None)
    @given(ints, floats)
    def test_mixed_operands(self, a, b):
        _check(a, b, FLOAT_OPS)

    @pytest.mark.parametrize("a, b", [(INT_MIN, -1), (7, 0), (1, -1),
                                      (-1, 31), (INT_MAX, 2)])
    def test_int_edges(self, a, b):
        _check(a, b, INT_OPS)

    @pytest.mark.parametrize("a, b", [(-0.0, 0.0), (math.inf, -0.0),
                                      (math.nan, 1.0), (1.0, math.inf)])
    def test_float_edges(self, a, b):
        _check(a, b, FLOAT_OPS)
