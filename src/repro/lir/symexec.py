"""Symbolic execution of filter bodies into LaminarIR ops.

This is the machinery behind the lowering: it executes a work body (or init
block, field initializer, prework, helper function) with *partially known*
values.  Compile-time-known values stay :class:`~repro.lir.ops.Const` and
fold eagerly; everything else becomes SSA temps with emitted ops.

Token operations (``peek``/``pop``/``push``) are delegated to
:class:`TokenHooks` supplied by the scheduler-driven lowering — that is
where FIFO queues become compile-time name lookups.

Control flow is resolved at compile time: loops with static bounds unroll,
``if`` on a static condition takes one branch, and ``if`` on a dynamic
condition is if-converted into ``select`` ops (both branches must be free
of side effects).  Data-dependent rates are impossible by construction —
exactly the SDF restriction LaminarIR relies on.

Execution is *staged* (docs/LOWERING.md, "How symbolic execution runs"):
each body is translated once per lowering into a tree of closures that
has already settled node dispatch, operators and every variable's frame
slot.  A firing only runs closures over a fresh frame.  Everything that
can fail — unknown names, dynamic loop bounds, dynamic local-array
indices — still fails only when the offending code runs, with the same
message, location and step count as a direct walk of the AST.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.frontend import ast_nodes as ast
from repro.faults.limits import ResourceExhausted
from repro.frontend.errors import LoweringError, RateError, SourceLocation
from repro.frontend.intrinsics import INTRINSICS, result_type
from repro.frontend.types import BOOLEAN, FLOAT, INT, ScalarType, Type, VOID
from repro.graph.builder import BINARY_OPS, apply_binary
from repro.graph.nodes import FilterNode
from repro.lir.ops import (BinOp, CallOp, CastOp, Const, LoadOp, Op, PrintOp,
                           Provenance, SelectOp, StateSlot, StoreOp, Temp,
                           UnOp, Value, wrap_i32)

_CMP_OPS = frozenset(("==", "!=", "<", "<=", ">", ">="))
_INT_ONLY_OPS = frozenset(("%", "&", "|", "^", "<<", ">>"))
_MAX_CALL_DEPTH = 64
_I32_MIN, _I32_MAX = -0x80000000, 0x7FFFFFFF

Frame = list  # one activation's slots: scalar Values and ArrayCells
Eval = Callable[[Frame], Value]
Exec = Callable[[Frame], None]


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


class _Return(Exception):
    def __init__(self, value: Value | None):
        self.value = value


def _zero(ty: ScalarType) -> Const:
    if ty is INT:
        return Const(INT, 0)
    if ty is FLOAT:
        return Const(FLOAT, 0.0)
    return Const(BOOLEAN, False)


def _fold_binary(op: str, ty: ScalarType, left: object, right: object,
                 loc: SourceLocation, source: str = "") -> Const:
    """Fold ``left op right`` whose operands have the unified type ``ty``.

    C semantics come from :func:`apply_binary`; the result is wrapped to
    32 bits for ints, as :func:`~repro.lir.ops.const_int` does.
    """
    value = apply_binary(op, left, right, loc, source)
    if op in _CMP_OPS:
        return Const(BOOLEAN, bool(value))
    if ty is INT:
        return Const(INT, wrap_i32(int(value)))  # type: ignore[arg-type]
    if ty is FLOAT:
        return Const(FLOAT, float(value))  # type: ignore[arg-type]
    return Const(BOOLEAN, bool(value))


class _HelperFrame:
    """Predicated-return state of one inlined helper invocation.

    A `return` under a data-dependent condition cannot abort symbolic
    execution (both branches run speculatively), so it is *predicated*:
    ``done`` accumulates "has this call already returned" and ``value``
    accumulates the selected return value.  Effects are forbidden while
    ``done`` is not statically false.
    """

    __slots__ = ("return_ty", "path_depth", "done", "value")

    def __init__(self, return_ty: ScalarType | None, path_depth: int):
        self.return_ty = return_ty
        self.path_depth = path_depth
        self.done: Value = Const(BOOLEAN, False)
        self.value: Value = _zero(return_ty or INT)


class TokenHooks:
    """Interface the lowering provides for one firing's token operations."""

    def peek(self, offset: int, loc: SourceLocation) -> Value:
        raise NotImplementedError

    def pop(self, loc: SourceLocation) -> Value:
        raise NotImplementedError

    def push(self, value: Value, loc: SourceLocation) -> None:
        raise NotImplementedError


class Emitter:
    """Appends ops to the current block with eager constant folding.

    Also stamps provenance: the lowering keeps the emitter told which
    actor is firing (:meth:`set_actor`), which program section is being
    built (:meth:`set_phase`) and which source line is executing
    (:meth:`set_line`); every emitted op gets the current
    :class:`Provenance`.  Provenance objects are interned per
    (actor, kind, line, phase) so a large unrolled schedule shares them.

    Scalar types are the shared instances of :mod:`repro.frontend.types`
    and are compared by identity.
    """

    def __init__(self, op_limit: int = 4_000_000):
        self.block: list[Op] = []
        self.op_limit = op_limit
        self.emitted = 0
        self._actor = ""
        self._actor_kind = "filter"
        self._phase = "setup"
        self._line = 0
        self._prov: tuple[Provenance, ...] = ()
        # (actor, kind, phase) -> line -> the interned provenance
        self._prov_cache: dict[tuple[str, str, str],
                               dict[int, tuple[Provenance, ...]]] = {}
        self._line_provs: dict[int, tuple[Provenance, ...]] = {}

    def set_block(self, block: list[Op]) -> None:
        self.block = block

    # -- provenance state ---------------------------------------------------------

    def set_actor(self, name: str, kind: str = "filter") -> None:
        if name != self._actor or kind != self._actor_kind:
            self._actor = name
            self._actor_kind = kind
            self._switch_provs()

    def set_phase(self, phase: str) -> None:
        if phase != self._phase:
            self._phase = phase
            self._switch_provs()

    def set_line(self, line: int) -> None:
        if line != self._line:
            self._line = line
            self._refresh_prov()

    def _switch_provs(self) -> None:
        key = (self._actor, self._actor_kind, self._phase)
        self._line_provs = self._prov_cache.setdefault(key, {})
        self._refresh_prov()

    def _refresh_prov(self) -> None:
        if not self._actor:
            self._prov = ()
            return
        cached = self._line_provs.get(self._line)
        if cached is None:
            cached = (Provenance(filter=self._actor, kind=self._actor_kind,
                                 line=self._line, phase=self._phase),)
            self._line_provs[self._line] = cached
        self._prov = cached

    def emit(self, op: Op) -> None:
        self.emitted += 1
        if self.emitted > self.op_limit:
            raise LoweringError(
                f"lowering exceeded {self.op_limit} ops; "
                "the unrolled schedule is too large")
        op.prov = self._prov
        self.block.append(op)

    # -- folding helpers ---------------------------------------------------------

    def binop(self, op: str, lhs: Value, rhs: Value,
              loc: SourceLocation, source: str = "") -> Value:
        ty = lhs.ty
        if ty is not rhs.ty and op not in _INT_ONLY_OPS \
                and (ty is FLOAT or rhs.ty is FLOAT):
            lhs = self.coerce(lhs, FLOAT)
            rhs = self.coerce(rhs, FLOAT)
            ty = FLOAT
        if lhs.__class__ is Const and rhs.__class__ is Const:
            return _fold_binary(op, ty, lhs.value,  # type: ignore
                                rhs.value, loc, source)  # type: ignore
        result = Temp(BOOLEAN if op in _CMP_OPS else ty)
        self.emit(BinOp(result=result, op=op, lhs=lhs, rhs=rhs))
        return result

    def unop(self, op: str, operand: Value) -> Value:
        if operand.__class__ is Const:
            value = operand.value  # type: ignore[attr-defined]
            if op == "-":
                return (Const(INT, wrap_i32(-value)) if operand.ty is INT
                        else Const(FLOAT, float(-value)))
            if op == "!":
                return Const(BOOLEAN, not value)
            if op == "~":
                return Const(INT, wrap_i32(~value))
        result = Temp(operand.ty)
        self.emit(UnOp(result=result, op=op, operand=operand))
        return result

    def coerce(self, value: Value, ty: ScalarType) -> Value:
        if value.ty is ty:
            return value
        if value.__class__ is Const:
            raw = value.value  # type: ignore[attr-defined]
            if ty is FLOAT:
                return Const(FLOAT, float(raw))
            if ty is INT:
                return Const(INT, wrap_i32(int(raw)))
            if ty is BOOLEAN:
                return Const(BOOLEAN, bool(raw))
        result = Temp(ty)
        self.emit(CastOp(result=result, operand=value))
        return result

    def cast(self, value: Value, target: ScalarType) -> Value:
        """An explicit source cast: like :meth:`coerce`, except that a
        constant cast to boolean stays a cast op."""
        if value.ty is target:
            return value
        if value.__class__ is Const and target is not BOOLEAN:
            return self.coerce(value, target)
        result = Temp(target)
        self.emit(CastOp(result=result, operand=value))
        return result

    def select(self, cond: Value, then: Value, otherwise: Value) -> Value:
        if then.ty is not otherwise.ty:
            if then.ty is FLOAT or otherwise.ty is FLOAT:
                then = self.coerce(then, FLOAT)
                otherwise = self.coerce(otherwise, FLOAT)
        if cond.__class__ is Const:
            return then if cond.value else otherwise  # type: ignore
        if then is otherwise:
            return then
        result = Temp(then.ty)
        self.emit(SelectOp(result=result, cond=cond, then=then,
                           otherwise=otherwise))
        return result

    def call(self, name: str, args: list[Value]) -> Value:
        intrinsic = INTRINSICS[name]
        arg_tys: list[Type] = [a.ty for a in args]
        res_ty = result_type(intrinsic, arg_tys)
        assert isinstance(res_ty, ScalarType)
        if intrinsic.policy == "float":
            args = [self.coerce(a, FLOAT) for a in args]
        if intrinsic.pure and all(a.__class__ is Const for a in args):
            assert intrinsic.impl is not None
            value = intrinsic.impl(*[a.value for a in args])  # type: ignore
            if res_ty is INT:
                return Const(INT, wrap_i32(int(value)))
            if res_ty is FLOAT:
                return Const(FLOAT, float(value))
        result = Temp(res_ty)
        self.emit(CallOp(result=result, name=name, args=args,
                         pure=intrinsic.pure))
        return result

    def load(self, slot: StateSlot, index: Value | None) -> Value:
        result = Temp(slot.ty)
        self.emit(LoadOp(result=result, slot=slot, index=index))
        return result

    def store(self, slot: StateSlot, index: Value | None,
              value: Value) -> None:
        self.emit(StoreOp(result=None, slot=slot, index=index,
                          value=self.coerce(value, slot.ty)))


# -- environment cells -------------------------------------------------------------


@dataclass
class ArrayCell:
    """A fully scalarized local array: one Value per element."""

    element_ty: ScalarType
    dims: list[int]
    elems: list[Value]


@dataclass
class FieldCell:
    """A filter field backed by a state slot (scalar or linearized array).

    Scalar fields are *cached*: the first read in a section loads once,
    writes update the cached value (and mark it dirty), and the executor
    flushes one store per firing.  Because only the owning filter touches
    its fields, this is sound within a section; the lowering invalidates
    caches at section boundaries, where field state becomes loop-carried
    memory again.  Caching is what lets scalar field writes sit under
    data-dependent conditions: they merge through ``select`` like locals.
    """

    slot: StateSlot
    dims: list[int] = field(default_factory=list)  # empty for scalars
    cached: Value | None = None
    dirty: bool = False


# Where a name lives, settled at staging time: every name is a frame slot.
# Scalar locals and stream parameters hold their Value, local arrays an
# ArrayCell, fields the running executor's FieldCell.  Slot 0 holds the
# executor itself, so one staged body serves every instance of a filter.
_SCALAR, _ARRAY, _FIELD, _ARRAY_FIELD = range(4)
_EXECUTOR = 0
Binding = tuple  # (kind, slot, declared type or None)


class _Code:
    """One staged body: its closure plus the frame layout it runs on."""

    __slots__ = ("run", "nslots", "fields", "params", "param_slots")

    def __init__(self, run: Exec, stager: "_Stager"):
        self.run = run
        self.nslots = stager.nslots
        self.fields = stager.field_slots
        self.params = stager.param_slots
        self.param_slots = stager.helper_param_slots

    def activate(self, ex: "BodyExecutor") -> Frame:
        """A fresh frame for ``ex``.  Stream parameters get new Const
        objects on every activation, as a rebuilt environment would give
        them."""
        frame: Frame = [None] * self.nslots
        frame[_EXECUTOR] = ex
        for slot, name in self.fields:
            frame[slot] = ex.fields[name]
        for slot, name in self.params:
            ty, value = ex.param_consts[name]
            frame[slot] = Const(ty, value)
        return frame


class BodyExecutor:
    """Executes one filter instance's bodies symbolically, emitting
    LaminarIR ops.

    Bodies are staged on first use (:class:`_Stager`).  ``staged`` is the
    lowering's shared store of staged code, so the instances of one filter
    declaration stage each body once; it lives as long as the lowering.
    """

    def __init__(self, emitter: Emitter, node: FilterNode,
                 fields: dict[str, FieldCell], source: str,
                 staged: dict[tuple, _Code],
                 unroll_limit: int = 4_000_000):
        self.emitter = emitter
        self.node = node
        self.fields = fields
        self.source = source
        self.helpers = {h.name: h for h in node.decl.helpers}
        self.hooks: TokenHooks | None = None
        self.pops = 0
        self.pushes = 0
        self.steps = 0
        self.unroll_limit = unroll_limit
        self.call_depth = 0
        # > 0 while executing a speculative (if-converted) branch.
        self.speculative = 0
        # Branch conditions of enclosing if-conversions, innermost last.
        self.path_conditions: list[Value] = []
        # Inlined-helper invocation frames, innermost last.
        self.helper_frames: list[_HelperFrame] = []
        self.param_consts = {name: _param_const(value)
                             for name, value in node.env.items()}
        self._scalar_fields = [cell for cell in fields.values()
                               if not cell.dims]
        self._staged = staged
        # What staged code depends on besides the AST: the names in the
        # base scope and which fields are arrays.
        self._shape = (tuple(node.env),
                       tuple((name, bool(cell.dims))
                             for name, cell in fields.items()))

    def _code(self, node: object,
              stage: Callable[["_Stager"], _Code]) -> _Code:
        key = (id(node), self._shape)
        code = self._staged.get(key)
        if code is None:
            code = self._staged[key] = stage(_Stager(self))
        return code

    # -- entry points -------------------------------------------------------------

    def run_body(self, block: ast.Block, hooks: TokenHooks | None) -> None:
        code = self._code(block, lambda stager: stager.body(block))
        self.hooks = hooks
        self.pops = 0
        self.pushes = 0
        code.run(code.activate(self))
        self.flush_fields()
        self.hooks = None

    def run_field_initializers(self) -> None:
        code = self._code(self.node.decl, lambda stager: stager.field_inits(
            self.node.decl.fields))
        code.run(code.activate(self))
        self.flush_fields()

    def flush_fields(self) -> None:
        """Write dirty scalar-field caches back to their state slots."""
        assert not self.speculative
        # The lowering may flush several executors in a row at a section
        # boundary; re-assert the owning filter so the stores attribute
        # to it rather than to whichever actor last fired.
        self.emitter.set_actor(self.node.name, "filter")
        for cell in self._scalar_fields:
            if cell.dirty:
                assert cell.cached is not None
                self.emitter.store(cell.slot, None, cell.cached)
                cell.dirty = False

    def invalidate_field_caches(self) -> None:
        """Drop scalar-field caches (at section boundaries, where field
        state becomes loop-carried memory: the next read must load)."""
        self.flush_fields()
        for cell in self._scalar_fields:
            cell.cached = None

    # -- run-time support for staged code ------------------------------------------

    def _error(self, message: str, loc: SourceLocation) -> LoweringError:
        return LoweringError(message, loc, self.source)

    def _step(self, loc: SourceLocation) -> None:
        self.steps += 1
        if self.steps > self.unroll_limit:
            self._exhausted(loc)

    def _exhausted(self, loc: SourceLocation) -> None:
        # Routed through the fault taxonomy (CLI exit code 3) so a
        # runaway unroll reports *which* filter blew the budget rather
        # than a bare lowering failure.
        raise ResourceExhausted(
            "unroll_limit", self.unroll_limit, self.steps,
            where=f"filter {self.node.name!r} work body",
            detail="non-terminating loop, or a schedule with very "
                   "large rate multiples — large-but-finite bodies "
                   "are re-rolled into counted loops downstream "
                   "(--reroll, on by default), so raising "
                   "LoweringOptions.unroll_limit is usually safe",
            loc=loc, source=self.source)

    def _static_truth(self, cond: Value, loc: SourceLocation) -> bool:
        self._step(loc)
        if cond.__class__ is not Const:
            raise self._error(
                "loop condition is not compile-time constant; LaminarIR "
                "requires statically bounded loops", loc)
        return bool(cond.value)  # type: ignore[attr-defined]

    def _const_int(self, value: Value, loc: SourceLocation,
                   what: str) -> int:
        if value.__class__ is not Const or value.ty is not INT:
            raise self._error(f"{what} must be compile-time constant", loc)
        return value.value  # type: ignore[attr-defined, return-value]

    def _check_effect_allowed(self, loc: SourceLocation,
                              what: str) -> None:
        if self.speculative:
            raise self._error(
                f"{what} under a data-dependent condition cannot be "
                "lowered (SDF requires statically known effects)", loc)
        for frame in self.helper_frames:
            done = frame.done
            if done.__class__ is not Const or done.value:  # type: ignore
                raise self._error(
                    f"{what} after a data-dependent return cannot be "
                    "lowered", loc)

    def _write_field(self, cell: FieldCell, value: Value,
                     loc: SourceLocation) -> None:
        new_value = self.emitter.coerce(value, cell.slot.ty)
        guard = self._pending_return_guard(loc)
        if guard is not None:
            # a helper on the stack may already have returned: keep the
            # old value on those paths
            new_value = self.emitter.select(
                guard, new_value, _cached_field(self.emitter, cell))
        cell.cached = new_value
        cell.dirty = True

    def _linear_index(self, dims: list[int], indices: list[Value],
                      loc: SourceLocation) -> Value:
        if len(indices) != len(dims):
            raise self._error(
                f"expected {len(dims)} indices, got {len(indices)}", loc)
        offset = 0
        for dim, index in zip(dims, indices):
            if index.__class__ is not Const or index.ty is not INT:
                break
            offset = offset * dim
            if not _I32_MIN <= offset <= _I32_MAX:
                offset = wrap_i32(offset)
            offset += index.value  # type: ignore[attr-defined]
            if not _I32_MIN <= offset <= _I32_MAX:
                offset = wrap_i32(offset)
        else:
            return Const(INT, offset)
        # Some index is dynamic: emit the address arithmetic.
        em = self.emitter
        linear: Value = Const(INT, 0)
        for dim, index in zip(dims, indices):
            linear = em.binop("*", linear, Const(INT, wrap_i32(dim)), loc,
                              self.source)
            linear = em.binop("+", linear, em.coerce(index, INT), loc,
                              self.source)
        return linear

    def _local_offset(self, cell: ArrayCell, indices: list[Value],
                      loc: SourceLocation) -> int:
        linear = self._linear_index(cell.dims, indices, loc)
        if linear.__class__ is not Const:
            raise self._error(
                "dynamic index into a local array is not supported; use a "
                "filter field", loc)
        offset = linear.value  # type: ignore[attr-defined]
        self._check_array_bounds(offset, len(cell.elems), loc)
        return offset

    def _field_index(self, cell: FieldCell, indices: list[Value],
                     loc: SourceLocation) -> Value:
        linear = self._linear_index(cell.dims, indices, loc)
        if linear.__class__ is Const and cell.slot.size is not None:
            self._check_array_bounds(linear.value,  # type: ignore
                                     cell.slot.size, loc)
        return linear

    def _check_array_bounds(self, offset: int, size: int,
                            loc: SourceLocation) -> None:
        if not 0 <= offset < size:
            raise self._error(
                f"array index {offset} out of bounds [0, {size})", loc)

    # -- if-conversion -------------------------------------------------------------

    def _if_convert(self, frame: Frame, cond: Value, then: Exec,
                    otherwise: Exec | None, visible: list[Binding]) -> None:
        """Execute both branches speculatively and merge with selects.

        ``visible`` lists the cells in scope at the ``if``, innermost
        scope first, in definition order — the order the merges emit in.
        """
        saved = [_cell_state(frame, b) for b in visible]
        saved_frames = [(hf, hf.done, hf.value) for hf in self.helper_frames]
        self.speculative += 1
        try:
            self.path_conditions.append(cond)
            try:
                then(frame)
            finally:
                self.path_conditions.pop()
            then_state = [_cell_state(frame, b) for b in visible]
            then_frames = [(hf.done, hf.value) for hf in self.helper_frames]
            for binding, state in zip(visible, saved):
                _restore_cell(frame, binding, state)
            for hf, done, value in saved_frames:
                hf.done, hf.value = done, value
            if otherwise is not None:
                negated = self.emitter.unop("!", cond)
                self.path_conditions.append(negated)
                try:
                    otherwise(frame)
                finally:
                    self.path_conditions.pop()
            else_state = [_cell_state(frame, b) for b in visible]
            else_frames = [(hf.done, hf.value) for hf in self.helper_frames]
        finally:
            self.speculative -= 1

        # Merge predicated-return state: each branch already folded the
        # path condition into done/value, so the merge is a plain select.
        em = self.emitter
        for hf, (t_done, t_value), (e_done, e_value) in zip(
                self.helper_frames, then_frames, else_frames):
            hf.done = em.select(cond, t_done, e_done) \
                if t_done is not e_done else t_done
            hf.value = em.select(cond, t_value, e_value) \
                if t_value is not e_value else t_value

        for binding, t_state, e_state in zip(visible, then_state,
                                             else_state):
            self._merge_cell(frame, binding, cond, t_state, e_state)

    def _merge_cell(self, frame: Frame, binding: Binding, cond: Value,
                    then_state: object, else_state: object) -> None:
        kind, slot = binding[0], binding[1]
        em = self.emitter
        if kind == _SCALAR:
            if then_state is not else_state:
                frame[slot] = em.select(cond, then_state,  # type: ignore
                                        else_state)  # type: ignore[arg-type]
        elif kind == _FIELD:
            cell = frame[slot]
            t_cached, t_dirty = then_state  # type: ignore[misc]
            e_cached, e_dirty = else_state  # type: ignore[misc]
            if t_cached is e_cached and t_dirty == e_dirty:
                return
            # A branch that never touched the field keeps the memory
            # value: materialize a load for it (memory is unchanged
            # during speculation since stores are deferred).
            if t_cached is None:
                t_cached = em.load(cell.slot, None)
            if e_cached is None:
                e_cached = em.load(cell.slot, None)
            cell.cached = em.select(cond, t_cached, e_cached)
            cell.dirty = t_dirty or e_dirty
        else:
            frame[slot].elems = [
                t if t is e else em.select(cond, t, e)
                for t, e in zip(then_state, else_state)]  # type: ignore

    def _speculate(self, frame: Frame,
                   operand: Eval) -> tuple[Value, dict[int, Value]]:
        """Evaluate an operand that runs only on some paths: the right of a
        data-dependent ``&&``/``||`` or an arm of a data-dependent ``?:``.

        Effects raise as they do under if-conversion.  Scalar-field writes
        (from inlined helpers) are undone and returned by field index, for
        :meth:`_merge_field_writes`; a plain read keeps its load, which is
        valid on every path because stores are deferred.
        """
        before = [(cell.cached, cell.dirty) for cell in self._scalar_fields]
        self.speculative += 1
        try:
            value = operand(frame)
        finally:
            self.speculative -= 1
        writes: dict[int, Value] = {}
        for index, (cell, (cached, dirty)) in enumerate(
                zip(self._scalar_fields, before)):
            if cell.dirty and (cell.cached is not cached or not dirty):
                writes[index] = cell.cached  # type: ignore[assignment]
                cell.cached, cell.dirty = cached, dirty
        return value, writes

    def _merge_field_writes(self, cond: Value, then: dict[int, Value],
                            otherwise: dict[int, Value]) -> None:
        for index in sorted(then.keys() | otherwise.keys()):
            cell = self._scalar_fields[index]
            current = _cached_field(self.emitter, cell)
            cell.cached = self.emitter.select(
                cond, then.get(index, current), otherwise.get(index, current))
            cell.dirty = True

    def _pending_return_guard(self, loc: SourceLocation) -> Value | None:
        """Conjunction of "has not returned yet" over all helper frames,
        or None when no frame has a pending dynamic return."""
        guard: Value | None = None
        for hf in self.helper_frames:
            done = hf.done
            if done.__class__ is Const and not done.value:  # type: ignore
                continue
            not_done = self.emitter.unop("!", done)
            guard = not_done if guard is None else self.emitter.binop(
                "&", guard, not_done, loc, self.source)
        return guard

    # -- helpers and returns ------------------------------------------------------

    def _call_helper(self, helper: ast.HelperFunc, args: list[Eval],
                     frame: Frame, loc: SourceLocation) -> Value:
        if self.call_depth >= _MAX_CALL_DEPTH:
            raise self._error(
                f"helper call depth exceeds {_MAX_CALL_DEPTH} "
                "(recursion is not supported)", loc)
        code = self._code(helper, lambda stager: stager.helper(helper))
        call_frame = code.activate(self)
        for (slot, ty), arg in zip(code.param_slots, args):
            call_frame[slot] = self.emitter.coerce(arg(frame), ty)
        return_ty = helper.return_type \
            if isinstance(helper.return_type, ScalarType) \
            and helper.return_type is not VOID else None
        hf = _HelperFrame(return_ty, len(self.path_conditions))
        self.call_depth += 1
        self.helper_frames.append(hf)
        try:
            code.run(call_frame)
        except _Return as ret:
            if ret.value is None:
                if return_ty is not None:
                    raise self._error(
                        f"helper {helper.name!r} returned no value",
                        loc) from None
                return Const(INT, 0)
            assert return_ty is not None
            return self.emitter.coerce(ret.value, return_ty)
        finally:
            self.call_depth -= 1
            self.helper_frames.pop()
        if return_ty is None:
            return Const(INT, 0)
        if hf.done.__class__ is Const and not hf.done.value:  # type: ignore
            raise self._error(
                f"helper {helper.name!r} fell off the end without "
                "returning", loc)
        # Some path returned dynamically; paths that fall through see the
        # default value (C leaves this undefined; we define it as zero).
        return hf.value

    def _return(self, value: Value | None, loc: SourceLocation) -> None:
        hf = self.helper_frames[-1]
        if value is not None and hf.return_ty is not None:
            value = self.emitter.coerce(value, hf.return_ty)
        em = self.emitter
        # Conjunction of the branch conditions entered since the frame.
        condition: Value = Const(BOOLEAN, True)
        for cond in self.path_conditions[hf.path_depth:]:
            condition = em.binop("&", condition, cond, loc, self.source)
        done = hf.done
        done_false = done.__class__ is Const and not done.value  # type: ignore
        if condition.__class__ is Const and condition.value \
                and done_false:  # type: ignore[attr-defined]
            raise _Return(value)  # the classic unconditional return
        # Predicated return: select the value where this return fires and
        # no earlier return already did.
        not_done = em.unop("!", done)
        guard = em.binop("&", condition, not_done, loc, self.source)
        if value is not None:
            hf.value = em.select(guard, value, hf.value)
        hf.done = em.binop("|", done, condition, loc, self.source)
        if hf.done.__class__ is Const and hf.done.value \
                and not self.speculative:  # type: ignore[attr-defined]
            # every path has now returned; the rest of the body is dead
            raise _Return(hf.value)

    # -- rate validation ---------------------------------------------------------

    def check_rates(self, expected_pop: int, expected_push: int,
                    what: str) -> None:
        if self.pops != expected_pop:
            raise RateError(
                f"{self.node.name}: {what} popped {self.pops} token(s) but "
                f"declares pop {expected_pop}")
        if self.pushes != expected_push:
            raise RateError(
                f"{self.node.name}: {what} pushed {self.pushes} token(s) "
                f"but declares push {expected_push}")


def _cached_field(em: Emitter, cell: FieldCell) -> Value:
    """A scalar field's value in this section, loaded on first use."""
    cached = cell.cached
    if cached is None:
        cached = cell.cached = em.load(cell.slot, None)
    return cached


def _cell_state(frame: Frame, binding: Binding) -> object:
    kind, slot = binding[0], binding[1]
    if kind == _SCALAR:
        return frame[slot]
    if kind == _ARRAY:
        return list(frame[slot].elems)
    cell = frame[slot]
    return (cell.cached, cell.dirty)


def _restore_cell(frame: Frame, binding: Binding, state: object) -> None:
    kind, slot = binding[0], binding[1]
    if kind == _SCALAR:
        frame[slot] = state
    elif kind == _ARRAY:
        frame[slot].elems = list(state)  # type: ignore[call-overload]
    else:
        frame[slot].cached, frame[slot].dirty = state


def _raiser(message: str, loc: SourceLocation,
            source: str) -> Callable[..., Value]:
    """Staged code for a construct that is an error only if it runs."""

    def fail(*args: object) -> Value:
        raise LoweringError(message, loc, source)
    return fail


class _Stager:
    """Translates the AST of one body into closures over a frame.

    Scoping follows the source: the base scope holds stream parameters and
    fields (fields win a name clash, as they did when the base environment
    was a dict filled parameters-first), every block, branch and loop body
    opens a scope, and a ``for`` opens one more for its header.  Each local
    declaration gets its own frame slot; a field or parameter gets one on
    first use.

    ``ex`` is the executor whose call started the staging.  Only what all
    instances of its filter declaration share in one lowering is read
    from it (the emitter, source, limits, field and parameter names);
    staged code reaches the running executor through frame slot 0.
    """

    def __init__(self, ex: BodyExecutor):
        self.em = ex.emitter
        self.source = ex.source
        self.limit = ex.unroll_limit
        self.helpers = ex.helpers
        self.scopes: list[dict[str, Binding]] = []
        self.nslots = 1  # slot 0: the executor
        self.field_slots: list[tuple[int, str]] = []
        self.param_slots: list[tuple[int, str]] = []
        self.helper_param_slots: list[tuple[int, ScalarType]] = []
        self._base: dict[str, Binding] = {}
        self._field_is_array = {name: bool(cell.dims)
                                for name, cell in ex.fields.items()}
        self._params = set(ex.node.env)
        # The base scope's names in definition order: parameters, then
        # fields.
        self._base_order = list(dict.fromkeys([*ex.node.env, *ex.fields]))

    # -- staged units --------------------------------------------------------------

    def body(self, block: ast.Block) -> _Code:
        return _Code(self.block(block), self)

    def helper(self, helper: ast.HelperFunc) -> _Code:
        scope: dict[str, Binding] = {}
        self.scopes.append(scope)
        for param in helper.params:
            assert isinstance(param.ty, ScalarType)
            slot = self._slot()
            scope[param.name] = (_SCALAR, slot, param.ty)
            self.helper_param_slots.append((slot, param.ty))
        assert helper.body is not None
        return _Code(self.block(helper.body), self)

    def field_inits(self, fields: list[ast.FieldDecl]) -> _Code:
        em = self.em
        inits = [(fld, self.expr(fld.init)) for fld in fields
                 if fld.init is not None]

        def run(frame: Frame) -> None:
            ex = frame[_EXECUTOR]
            for fld, init in inits:
                em.set_line(fld.loc.line)
                cell = ex.fields[fld.name]
                value = init(frame)
                if cell.dims:
                    raise ex._error(
                        f"array field {fld.name!r} cannot have a scalar "
                        "initializer", fld.loc)
                cell.cached = em.coerce(value, cell.slot.ty)
                cell.dirty = True
        return _Code(run, self)

    # -- names ---------------------------------------------------------------------

    def _slot(self) -> int:
        self.nslots += 1
        return self.nslots - 1

    def lookup(self, name: str) -> Binding | None:
        for scope in reversed(self.scopes):
            binding = scope.get(name)
            if binding is not None:
                return binding
        return self._base_binding(name)

    def _base_binding(self, name: str) -> Binding | None:
        binding = self._base.get(name)
        if binding is None:
            if name in self._field_is_array:
                slot = self._slot()
                self.field_slots.append((slot, name))
                kind = _ARRAY_FIELD if self._field_is_array[name] else _FIELD
                binding = self._base[name] = (kind, slot, None)
            elif name in self._params:
                slot = self._slot()
                self.param_slots.append((slot, name))
                binding = self._base[name] = (_SCALAR, slot, None)
        return binding

    def visible(self) -> list[Binding]:
        """Cells an if-conversion must save and merge, in the order a
        scope chain snapshot lists them.  Stream parameters are left out:
        they cannot be assigned, so they never need a merge.  Every scalar
        field is in, used here or not: a helper call may write it."""
        out: list[Binding] = []
        seen: set[str] = set()
        for scope in reversed(self.scopes):
            for name, binding in scope.items():
                if name not in seen:
                    seen.add(name)
                    out.append(binding)
        for name in self._base_order:
            if self._field_is_array.get(name) is False and name not in seen:
                out.append(self._base_binding(name))  # type: ignore[arg-type]
        return out

    # -- statements ----------------------------------------------------------------

    def block(self, block: ast.Block) -> Exec:
        """A block's statements in a new scope, without a step of its own
        (what a body or helper runs at top level)."""
        self.scopes.append({})
        stmts = [self.stmt(stmt) for stmt in block.stmts]
        self.scopes.pop()
        if len(stmts) == 1:
            return stmts[0]

        def run(frame: Frame) -> None:
            for stmt in stmts:
                stmt(frame)
        return run

    def nested(self, stmt: ast.Stmt) -> Exec:
        """A statement run in a child scope (branch or loop body)."""
        self.scopes.append({})
        run = self.stmt(stmt)
        self.scopes.pop()
        return run

    def stmt(self, stmt: ast.Stmt) -> Exec:
        """A statement with its step: the unroll budget and source line."""
        run = self._stmt(stmt)
        em, limit = self.em, self.limit
        loc, line = stmt.loc, stmt.loc.line

        def step(frame: Frame) -> None:
            ex = frame[_EXECUTOR]
            ex.steps += 1
            if ex.steps > limit:
                ex._exhausted(loc)
            if em._line != line:
                em.set_line(line)
            run(frame)
        return step

    def _stmt(self, stmt: ast.Stmt) -> Exec:
        if isinstance(stmt, ast.Block):
            return self.block(stmt)
        if isinstance(stmt, ast.VarDecl):
            return self._var_decl(stmt)
        if isinstance(stmt, ast.Assign):
            return self._assign(stmt)
        if isinstance(stmt, ast.ExprStmt):
            assert stmt.expr is not None
            evaluate = self.expr(stmt.expr)

            def discard(frame: Frame) -> None:
                evaluate(frame)
            return discard
        if isinstance(stmt, ast.PushStmt):
            return self._push(stmt)
        if isinstance(stmt, ast.PrintStmt):
            return self._print(stmt)
        if isinstance(stmt, ast.IfStmt):
            return self._if(stmt)
        if isinstance(stmt, (ast.ForStmt, ast.WhileStmt, ast.DoWhileStmt)):
            return self._loop(stmt)
        if isinstance(stmt, ast.ReturnStmt):
            return self._return(stmt)
        if isinstance(stmt, (ast.BreakStmt, ast.ContinueStmt)):
            is_break = isinstance(stmt, ast.BreakStmt)
            word = "break" if is_break else "continue"
            signal = _Break if is_break else _Continue
            fail = _raiser(f"{word} under a data-dependent condition "
                           "cannot be lowered", stmt.loc, self.source)

            def jump(frame: Frame) -> None:
                if frame[_EXECUTOR].speculative:
                    fail()
                raise signal()
            return jump
        return _raiser(f"cannot lower statement {type(stmt).__name__}",
                       stmt.loc, self.source)

    def _var_decl(self, stmt: ast.VarDecl) -> Exec:
        em = self.em
        base = stmt.var_type
        assert isinstance(base, ScalarType)
        scope = self.scopes[-1]
        previous = scope.get(stmt.name)
        if stmt.dims:
            dims = [(self.expr(d), d.loc) for d in stmt.dims]
            slot = previous[1] if previous else self._slot()
            scope[stmt.name] = (_ARRAY, slot, base)
            loc, has_init = stmt.loc, stmt.init is not None

            def declare_array(frame: Frame) -> None:
                ex = frame[_EXECUTOR]
                sizes = [ex._const_int(d(frame), d_loc, "local array size")
                         for d, d_loc in dims]
                count = 1
                for size in sizes:
                    if size <= 0:
                        raise ex._error("array size must be positive", loc)
                    count *= size
                frame[slot] = ArrayCell(base, sizes, [_zero(base)] * count)
                if has_init:
                    raise ex._error("array initializers are not supported",
                                    loc)
            return declare_array
        init = self.expr(stmt.init) if stmt.init is not None else None
        slot = previous[1] if previous else self._slot()
        scope[stmt.name] = (_SCALAR, slot, base)
        if init is None:
            def declare_zero(frame: Frame) -> None:
                frame[slot] = _zero(base)
            return declare_zero

        def declare(frame: Frame) -> None:
            frame[slot] = em.coerce(init(frame), base)
        return declare

    def _assign(self, stmt: ast.Assign) -> Exec:
        assert stmt.target is not None and stmt.value is not None
        value_of = self.expr(stmt.value)
        write = self._writer(stmt.target)
        if stmt.op == "=":
            def assign(frame: Frame) -> None:
                write(frame, value_of(frame))
            return assign
        combined = self._operator(stmt.op[:-1], stmt.loc,
                                  self.expr(stmt.target), value_of,
                                  right_first=True)

        def update(frame: Frame) -> None:
            write(frame, combined(frame))
        return update

    def _writer(self, target: ast.Expr) -> Callable[[Frame, Value], None]:
        em, source = self.em, self.source
        if isinstance(target, ast.Ident):
            binding = self.lookup(target.name)
            loc = target.loc
            if binding is None:
                return _raiser(f"unknown variable {target.name!r}", loc,
                               source)
            kind, slot, ty = binding
            if kind == _SCALAR:
                def write_scalar(frame: Frame, value: Value) -> None:
                    frame[slot] = em.coerce(value, ty)
                return write_scalar
            if kind == _FIELD:
                def write_field(frame: Frame, value: Value) -> None:
                    frame[_EXECUTOR]._write_field(frame[slot], value, loc)
                return write_field
            return _raiser(f"cannot assign whole array {target.name!r}", loc,
                           source)
        if isinstance(target, ast.Index):
            base, index_exprs = _collect_indices(target)
            assert isinstance(base, ast.Ident)
            binding = self.lookup(base.name)
            indices = [self.expr(i) for i in index_exprs]
            loc = target.loc
            if binding is None:
                return _raiser(f"unknown variable {base.name!r}", base.loc,
                               source)
            kind, slot = binding[0], binding[1]

            def write_element(frame: Frame, value: Value) -> None:
                ex = frame[_EXECUTOR]
                index_values = [index(frame) for index in indices]
                cell = frame[slot]
                if kind == _ARRAY:
                    offset = ex._local_offset(cell, index_values, loc)
                    cell.elems[offset] = em.coerce(value, cell.element_ty)
                elif kind == _ARRAY_FIELD:
                    ex._check_effect_allowed(loc, "field store")
                    em.store(cell.slot, ex._field_index(cell, index_values,
                                                        loc), value)
                else:
                    raise ex._error("indexed value is not an array", loc)
            return write_element
        return _raiser("invalid assignment target", target.loc, source)

    def _push(self, stmt: ast.PushStmt) -> Exec:
        assert stmt.value is not None
        value_of, loc = self.expr(stmt.value), stmt.loc

        def push(frame: Frame) -> None:
            ex = frame[_EXECUTOR]
            ex._check_effect_allowed(loc, "push")
            if ex.hooks is None:
                raise ex._error("push outside of a firing context", loc)
            ex.hooks.push(value_of(frame), loc)
            ex.pushes += 1
        return push

    def _print(self, stmt: ast.PrintStmt) -> Exec:
        em = self.em
        assert stmt.value is not None
        loc, newline = stmt.loc, stmt.newline
        is_string = isinstance(stmt.value, ast.StringLit)
        value_of = None if is_string else self.expr(stmt.value)

        def print_(frame: Frame) -> None:
            ex = frame[_EXECUTOR]
            ex._check_effect_allowed(loc, "print")
            if value_of is None:
                raise ex._error("string printing is not supported in "
                                "lowered code", loc)
            em.emit(PrintOp(result=None, value=value_of(frame),
                            newline=newline))
        return print_

    def _if(self, stmt: ast.IfStmt) -> Exec:
        assert stmt.cond is not None and stmt.then is not None
        cond_of = self.expr(stmt.cond)
        then = self.nested(stmt.then)
        otherwise = (self.nested(stmt.otherwise)
                     if stmt.otherwise is not None else None)
        visible = self.visible()

        def if_(frame: Frame) -> None:
            cond = cond_of(frame)
            if cond.__class__ is Const:
                if cond.value:  # type: ignore[attr-defined]
                    then(frame)
                elif otherwise is not None:
                    otherwise(frame)
                return
            frame[_EXECUTOR]._if_convert(frame, cond, then, otherwise,
                                         visible)
        return if_

    def _loop(self, stmt: ast.Stmt) -> Exec:
        loc = stmt.loc
        init = step = None
        if isinstance(stmt, ast.ForStmt):
            self.scopes.append({})  # the header's scope
            init = self.stmt(stmt.init) if stmt.init is not None else None
        assert stmt.body is not None  # type: ignore[attr-defined]
        cond_of = (self.expr(stmt.cond)  # type: ignore[attr-defined]
                   if stmt.cond is not None  # type: ignore[attr-defined]
                   else None)
        body = self.nested(stmt.body)  # type: ignore[attr-defined]
        if isinstance(stmt, ast.ForStmt):
            step = self.stmt(stmt.step) if stmt.step is not None else None
            self.scopes.pop()
        test_first = not isinstance(stmt, ast.DoWhileStmt)

        def loop(frame: Frame) -> None:
            ex = frame[_EXECUTOR]
            if init is not None:
                init(frame)
            while True:
                if test_first and cond_of is not None \
                        and not ex._static_truth(cond_of(frame), loc):
                    return
                try:
                    body(frame)
                except _Break:
                    return
                except _Continue:
                    pass
                if step is not None:
                    step(frame)
                if not test_first \
                        and not ex._static_truth(cond_of(frame), loc):
                    return
        return loop

    def _return(self, stmt: ast.ReturnStmt) -> Exec:
        loc = stmt.loc
        value_of = self.expr(stmt.value) if stmt.value is not None else None

        def return_(frame: Frame) -> None:
            ex = frame[_EXECUTOR]
            if not ex.helper_frames:
                raise ex._error("return outside of a helper", loc)
            ex._return(value_of(frame) if value_of is not None else None,
                       loc)
        return return_

    # -- expressions ---------------------------------------------------------------

    def expr(self, expr: ast.Expr) -> Eval:
        em = self.em
        if isinstance(expr, ast.IntLit):
            value = wrap_i32(expr.value)
            return lambda frame: Const(INT, value)
        if isinstance(expr, ast.FloatLit):
            value = float(expr.value)
            return lambda frame: Const(FLOAT, value)
        if isinstance(expr, ast.BoolLit):
            value = bool(expr.value)
            return lambda frame: Const(BOOLEAN, value)
        if isinstance(expr, ast.Ident):
            return self._ident(expr)
        if isinstance(expr, ast.UnaryOp):
            assert expr.operand is not None
            operand, op = self.expr(expr.operand), expr.op
            return lambda frame: em.unop(op, operand(frame))
        if isinstance(expr, ast.BinaryOp):
            return self._binary(expr)
        if isinstance(expr, ast.TernaryOp):
            return self._ternary(expr)
        if isinstance(expr, ast.Cast):
            assert expr.target is not None and expr.operand is not None
            target = expr.target
            assert isinstance(target, ScalarType)
            operand = self.expr(expr.operand)
            return lambda frame: em.cast(operand(frame), target)
        if isinstance(expr, ast.Call):
            return self._call(expr)
        if isinstance(expr, ast.Index):
            return self._index(expr)
        if isinstance(expr, ast.PeekExpr):
            return self._peek(expr)
        if isinstance(expr, ast.PopExpr):
            loc = expr.loc

            def pop(frame: Frame) -> Value:
                ex = frame[_EXECUTOR]
                ex._check_effect_allowed(loc, "pop")
                if ex.hooks is None:
                    raise ex._error("pop outside of a firing context", loc)
                value = ex.hooks.pop(loc)
                ex.pops += 1
                return value
            return pop
        return _raiser(f"cannot lower {type(expr).__name__}", expr.loc,
                       self.source)

    def _ident(self, expr: ast.Ident) -> Eval:
        binding = self.lookup(expr.name)
        if binding is None:
            return _raiser(f"unknown identifier {expr.name!r}", expr.loc,
                           self.source)
        kind, slot = binding[0], binding[1]
        if kind == _SCALAR:
            return lambda frame: frame[slot]
        if kind == _FIELD:
            em = self.em
            return lambda frame: _cached_field(em, frame[slot])
        return _raiser(f"array {expr.name!r} used as a scalar", expr.loc,
                       self.source)

    def _binary(self, expr: ast.BinaryOp) -> Eval:
        em, source = self.em, self.source
        assert expr.left is not None and expr.right is not None
        left, right = self.expr(expr.left), self.expr(expr.right)
        op, loc = expr.op, expr.loc
        if op in ("&&", "||"):
            is_and = op == "&&"

            def logical(frame: Frame) -> Value:
                lhs = left(frame)
                if lhs.__class__ is Const:
                    if bool(lhs.value) is not is_and:  # type: ignore
                        return Const(BOOLEAN, bool(lhs.value))  # type: ignore
                    return right(frame)
                # Data-dependent: the right runs only on some paths.  It
                # is evaluated speculatively (it must be free of effects)
                # and combined without short-circuit.
                ex = frame[_EXECUTOR]
                rhs, writes = ex._speculate(frame, right)
                if writes:
                    ex._merge_field_writes(lhs, writes, {}) if is_and \
                        else ex._merge_field_writes(lhs, {}, writes)
                return em.binop("&" if is_and else "|", lhs, rhs, loc,
                                source)
            return logical
        return self._operator(op, loc, left, right)

    def _operator(self, op: str, loc: SourceLocation, left: Eval,
                  right: Eval, right_first: bool = False) -> Eval:
        """``left op right`` for staged code.  Two constants fold right
        here, with :meth:`Emitter.binop`'s result; everything else goes to
        it.  ``right_first`` evaluates the right operand first, as a
        compound assignment evaluates its value before its target."""
        em, source = self.em, self.source
        fn = BINARY_OPS.get(op)
        compare, mixed = op in _CMP_OPS, op not in _INT_ONLY_OPS

        def binary(frame: Frame) -> Value:
            if right_first:
                rhs = right(frame)
                lhs = left(frame)
            else:
                lhs = left(frame)
                rhs = right(frame)
            if lhs.__class__ is Const and rhs.__class__ is Const \
                    and fn is not None:
                ty = lhs.ty
                a, b = lhs.value, rhs.value  # type: ignore[attr-defined]
                if ty is not rhs.ty:
                    if not mixed or (ty is not FLOAT and rhs.ty is not FLOAT):
                        return em.binop(op, lhs, rhs, loc, source)
                    ty, a, b = FLOAT, float(a), float(b)
                try:
                    value = fn(a, b)
                except (ZeroDivisionError, ValueError):
                    return em.binop(op, lhs, rhs, loc, source)  # raises
                if compare or ty is BOOLEAN:
                    return Const(BOOLEAN, bool(value))
                if ty is INT:
                    if not _I32_MIN <= value <= _I32_MAX:
                        value = wrap_i32(value)
                    return Const(INT, value)
                return Const(FLOAT, float(value))
            return em.binop(op, lhs, rhs, loc, source)
        return binary

    def _ternary(self, expr: ast.TernaryOp) -> Eval:
        em = self.em
        assert expr.cond and expr.then and expr.otherwise
        cond_of = self.expr(expr.cond)
        then, otherwise = self.expr(expr.then), self.expr(expr.otherwise)

        def ternary(frame: Frame) -> Value:
            cond = cond_of(frame)
            if cond.__class__ is Const:
                arm = then if cond.value else otherwise  # type: ignore
                return arm(frame)
            # Data-dependent: each arm runs only on some paths.
            ex = frame[_EXECUTOR]
            then_value, then_writes = ex._speculate(frame, then)
            else_value, else_writes = ex._speculate(frame, otherwise)
            value = em.select(cond, then_value, else_value)
            ex._merge_field_writes(cond, then_writes, else_writes)
            return value
        return ternary

    def _call(self, expr: ast.Call) -> Eval:
        em = self.em
        args = [self.expr(a) for a in expr.args]
        name, loc = expr.name, expr.loc
        helper = self.helpers.get(name)
        if helper is not None:
            return lambda frame: frame[_EXECUTOR]._call_helper(
                helper, args, frame, loc)
        intrinsic = INTRINSICS.get(name)
        if intrinsic is None:
            return _raiser(f"unknown function {name!r}", loc, self.source)
        pure = intrinsic.pure

        def call(frame: Frame) -> Value:
            if not pure:
                frame[_EXECUTOR]._check_effect_allowed(loc, name)
            return em.call(name, [arg(frame) for arg in args])
        return call

    def _index(self, expr: ast.Index) -> Eval:
        em = self.em
        base, index_exprs = _collect_indices(expr)
        loc = expr.loc
        if not isinstance(base, ast.Ident):
            return _raiser("indexed value is not a variable", loc,
                           self.source)
        binding = self.lookup(base.name)
        if binding is None:
            return _raiser(f"unknown variable {base.name!r}", base.loc,
                           self.source)
        kind, slot = binding[0], binding[1]
        indices = [self.expr(i) for i in index_exprs]
        message = f"{base.name!r} is not an array"

        def indexed(frame: Frame) -> Value:
            ex = frame[_EXECUTOR]
            index_values = [index(frame) for index in indices]
            cell = frame[slot]
            if kind == _ARRAY:
                return cell.elems[ex._local_offset(cell, index_values, loc)]
            if kind == _ARRAY_FIELD:
                return em.load(cell.slot, ex._field_index(cell, index_values,
                                                          loc))
            raise ex._error(message, loc)
        return indexed

    def _peek(self, expr: ast.PeekExpr) -> Eval:
        assert expr.offset is not None
        offset_of, loc = self.expr(expr.offset), expr.loc

        def peek(frame: Frame) -> Value:
            ex = frame[_EXECUTOR]
            if ex.hooks is None:
                raise ex._error("peek outside of a firing context", loc)
            offset = offset_of(frame)
            if offset.__class__ is not Const:
                raise ex._error(
                    "peek offset is not compile-time constant; LaminarIR "
                    "requires static token indices", loc)
            return ex.hooks.peek(offset.value, loc)  # type: ignore
        return peek


def _collect_indices(expr: ast.Index) -> tuple[ast.Expr, list[ast.Expr]]:
    indices: list[ast.Expr] = []
    node: ast.Expr = expr
    while isinstance(node, ast.Index):
        assert node.index is not None and node.base is not None
        indices.append(node.index)
        node = node.base
    indices.reverse()
    return node, indices


def _param_const(value: object) -> tuple[ScalarType, object]:
    """A stream parameter's type and normalized constant value."""
    if isinstance(value, bool):
        return BOOLEAN, value
    if isinstance(value, int):
        return INT, wrap_i32(value)
    if isinstance(value, float):
        return FLOAT, value
    raise TypeError(f"unsupported parameter value {value!r}")
