"""Tests for the LaminarIR verifier and the DOT exporter."""

import pytest

from repro import compile_source
from repro.frontend.types import FLOAT, INT
from repro.graph import to_dot
from repro.lir import (BinOp, CastOp, LoadOp, PrintOp, Program, StateSlot,
                       StoreOp, Temp, VerificationError, const_float,
                       const_int, verify)
from repro.suite import load_benchmark


class TestVerifier:
    def test_valid_programs_pass(self, demo_stream):
        verify(demo_stream.lower().program)

    def test_suite_programs_pass(self):
        for name in ("fft", "bitonic_sort", "fm_radio"):
            verify(load_benchmark(name).lower().program)

    def test_use_before_def(self):
        program = Program(name="bad")
        dangling = Temp(FLOAT)
        program.steady = [PrintOp(result=None, value=dangling)]
        with pytest.raises(VerificationError, match="undefined value"):
            verify(program)

    def test_double_definition(self):
        program = Program(name="bad")
        t = Temp(INT)
        op1 = BinOp(result=t, op="+", lhs=const_int(1), rhs=const_int(2))
        op2 = BinOp(result=t, op="+", lhs=const_int(3), rhs=const_int(4))
        program.steady = [op1, op2]
        with pytest.raises(VerificationError, match="defined twice"):
            verify(program)

    def test_unknown_slot(self):
        program = Program(name="bad")
        rogue = StateSlot("ghost", FLOAT)
        program.steady = [StoreOp(result=None, slot=rogue,
                                  value=const_float(1.0))]
        with pytest.raises(VerificationError, match="unknown state slot"):
            verify(program)

    def test_indexed_scalar_access(self):
        program = Program(name="bad")
        slot = StateSlot("s", FLOAT)
        program.state_slots = [slot]
        program.steady = [StoreOp(result=None, slot=slot,
                                  index=const_int(0),
                                  value=const_float(1.0))]
        with pytest.raises(VerificationError, match="indexed access"):
            verify(program)

    def test_constant_index_bounds(self):
        program = Program(name="bad")
        slot = StateSlot("arr", FLOAT, size=4)
        program.state_slots = [slot]
        program.steady = [LoadOp(result=Temp(FLOAT), slot=slot,
                                 index=const_int(9))]
        with pytest.raises(VerificationError, match="out of bounds"):
            verify(program)

    def test_same_type_cast(self):
        # Lowering coerces only across types; a same-type cast would be a
        # copy, and the optimizer has no copy propagation to remove it.
        program = Program(name="bad")
        source, copy = Temp(INT), Temp(INT)
        program.steady = [
            BinOp(result=source, op="+", lhs=const_int(1),
                  rhs=const_int(2)),
            CastOp(result=copy, operand=source),
            PrintOp(result=None, value=copy),
        ]
        with pytest.raises(VerificationError, match="cast to its own type"):
            verify(program)

    def test_cross_type_cast_passes(self):
        program = Program(name="ok")
        source, widened = Temp(INT), Temp(FLOAT)
        program.steady = [
            BinOp(result=source, op="+", lhs=const_int(1),
                  rhs=const_int(2)),
            CastOp(result=widened, operand=source),
            PrintOp(result=None, value=widened),
        ]
        verify(program)

    def test_carry_length_mismatch(self):
        program = Program(name="bad")
        program.carry_params = [Temp(FLOAT)]
        program.carry_inits = []
        program.carry_nexts = []
        with pytest.raises(VerificationError, match="mismatched lengths"):
            verify(program)

    def test_steady_cannot_feed_init(self):
        # carry inits must come from setup/init, never from steady temps
        program = Program(name="bad")
        late = Temp(FLOAT)
        program.steady = [BinOp(result=late, op="+",
                                lhs=const_float(1.0),
                                rhs=const_float(2.0))]
        program.carry_params = [Temp(FLOAT)]
        program.carry_inits = [late]
        program.carry_nexts = [program.carry_params[0]]
        with pytest.raises(VerificationError, match="undefined value"):
            verify(program)

    def test_verifier_runs_after_every_opt_config(self, demo_stream):
        from repro.opt import OptOptions
        for opt in (OptOptions.none(), OptOptions(),
                    OptOptions(promote_state=False)):
            verify(demo_stream.lower(opt=opt).program)


class TestDot:
    def test_structure(self, demo_stream):
        dot = to_dot(demo_stream.graph, demo_stream.schedule.reps)
        assert dot.startswith('digraph "Demo"')
        assert dot.rstrip().endswith("}")
        assert dot.count("->") == len(demo_stream.graph.channels)
        assert "shape=box" in dot
        assert "shape=triangle" in dot  # the splitter

    def test_repetition_annotations(self, demo_stream):
        dot = to_dot(demo_stream.graph, demo_stream.schedule.reps)
        assert "x2" in dot or "x1" in dot

    def test_feedback_edge_dashed(self):
        stream = compile_source("""
            void->float filter Src() { work push 1 { push(randf()); } }
            float->void filter Snk() { work pop 1 { println(pop()); } }
            float->float filter Mix() { work push 2 pop 2 {
              float a = pop(); float b = pop();
              push(a + b); push(a - b); } }
            float->float filter Id() { work push 1 pop 1 { push(pop()); } }
            void->void pipeline P {
              add Src();
              add feedbackloop { join roundrobin(1, 1); body Mix();
                loop Id(); split roundrobin(1, 1); enqueue 0.0; };
              add Snk();
            }""")
        dot = to_dot(stream.graph)
        assert "style=dashed" in dot
        assert "1 init" in dot

    def test_names_escaped(self, demo_stream):
        dot = to_dot(demo_stream.graph)
        # labels are well-formed quoted strings: even number of quotes
        assert dot.count('"') % 2 == 0
