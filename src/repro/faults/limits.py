"""Resource guardrails: bounded compilation instead of OOM or hang.

A :class:`ResourceLimits` bundle caps the quantities that a hostile or
fuzz-generated spec can blow up:

* ``max_unrolled_ops`` — LaminarIR ops emitted while unrolling the
  schedule (checked per firing in :mod:`repro.lir.lower`).
* ``max_steady_tokens_per_channel`` — tokens crossing any one channel in
  one steady iteration (checked right after the balance solver, before
  any schedule is unrolled).
* ``max_solver_iterations`` — iterations of the balance solver and the
  init-schedule demand fixpoint in :mod:`repro.scheduling`.
* ``compile_seconds`` — a wall-clock budget for one compile stage
  (frontend+schedule, or lower+optimize), checked at loop boundaries.

Limits are ambient: the CLI installs them via :func:`use_limits` (from
``--limits`` or the ``REPRO_LIMITS`` environment variable) and the
pipeline reads them back through :func:`active_limits`.  A violation
raises :class:`ResourceExhausted` — a :class:`CompileError` subclass with
a dedicated ``kind`` plus structured ``resource``/``limit``/``actual``/
``where`` fields, so the CLI can map it to its own exit code (3) and the
fuzz oracle treats it like any other structured compile diagnostic.
"""

from __future__ import annotations

import contextvars
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from typing import Iterator

from repro.frontend.errors import (CompileError, SourceLocation,
                                   UNKNOWN_LOCATION)

__all__ = ["ResourceExhausted", "ResourceLimits", "active_limits",
           "check_deadline", "compile_budget", "use_limits"]


class ResourceExhausted(CompileError):
    """A resource limit was hit; compilation stopped instead of blowing up.

    ``where`` carries the provenance of the offending construct (the
    filter being lowered, the channel that overflows, the solver stage).
    """

    kind = "resource exhausted"

    def __init__(self, resource: str, limit: float, actual: float,
                 where: str = "", detail: str = "",
                 loc: SourceLocation = UNKNOWN_LOCATION,
                 source: str | None = None):
        self.resource = resource
        self.limit = limit
        self.actual = actual
        self.where = where
        message = f"{resource} limit exceeded ({_fmt(actual)} > " \
                  f"{_fmt(limit)})"
        if where:
            message += f" in {where}"
        if detail:
            message += f"; {detail}"
        super().__init__(message, loc, source)


def _fmt(value: float) -> str:
    return str(int(value)) if float(value).is_integer() else f"{value:g}"


# --limits / REPRO_LIMITS key aliases → dataclass field names.
_ALIASES = {
    "ops": "max_unrolled_ops",
    "max_unrolled_ops": "max_unrolled_ops",
    "tokens": "max_steady_tokens_per_channel",
    "max_steady_tokens_per_channel": "max_steady_tokens_per_channel",
    "solver": "max_solver_iterations",
    "max_solver_iterations": "max_solver_iterations",
    "seconds": "compile_seconds",
    "compile_seconds": "compile_seconds",
}


@dataclass(frozen=True)
class ResourceLimits:
    """Caps on compile-time resource use; ``None`` means unlimited."""

    max_unrolled_ops: int | None = None
    max_steady_tokens_per_channel: int | None = None
    max_solver_iterations: int | None = None
    compile_seconds: float | None = None

    @classmethod
    def parse(cls, spec: str) -> "ResourceLimits":
        """Parse ``"ops=200000,tokens=4096,solver=200,seconds=30"``.

        Raises ``ValueError`` on an unknown key or a non-numeric /
        negative value, so the CLI can reject the spec up front.
        """
        values: dict[str, int | float] = {}
        for item in spec.split(","):
            item = item.strip()
            if not item:
                continue
            key, sep, raw = item.partition("=")
            if not sep:
                raise ValueError(
                    f"bad resource limit {item!r}: expected key=value")
            field_name = _ALIASES.get(key.strip())
            if field_name is None:
                known = ", ".join(sorted(set(_ALIASES)))
                raise ValueError(
                    f"unknown resource limit {key.strip()!r}; "
                    f"known keys: {known}")
            try:
                value = (float(raw) if field_name == "compile_seconds"
                         else int(raw))
            except ValueError:
                raise ValueError(
                    f"bad value for resource limit {key.strip()!r}: "
                    f"{raw!r}") from None
            if value < 0:
                raise ValueError(
                    f"resource limit {key.strip()!r} must be >= 0, "
                    f"got {raw}")
            values[field_name] = value
        return cls(**values)  # type: ignore[arg-type]

    def merged(self, other: "ResourceLimits") -> "ResourceLimits":
        """``other``'s set fields override ``self``'s."""
        overrides = {f.name: getattr(other, f.name) for f in fields(other)
                     if getattr(other, f.name) is not None}
        return replace(self, **overrides)

    def spec(self) -> str:
        """A ``key=value`` spec that round-trips through :meth:`parse`.

        Used to ship effective limits across a process boundary (the
        serve daemon hands each pool worker its request's limits as a
        spec string).  Unset fields are omitted; no limits → ``""``.
        """
        parts = []
        if self.max_unrolled_ops is not None:
            parts.append(f"ops={self.max_unrolled_ops}")
        if self.max_steady_tokens_per_channel is not None:
            parts.append(f"tokens={self.max_steady_tokens_per_channel}")
        if self.max_solver_iterations is not None:
            parts.append(f"solver={self.max_solver_iterations}")
        if self.compile_seconds is not None:
            parts.append(f"seconds={_fmt(self.compile_seconds)}")
        return ",".join(parts)


_UNLIMITED = ResourceLimits()

# Ambient state: the installed limits (``use_limits``) win over the
# REPRO_LIMITS environment variable; the parsed env spec is memoized on
# its string value so hot paths can call ``active_limits`` freely.
# Installed limits and the wall-clock deadline live in contextvars, the
# same scoping as the per-request telemetry in :mod:`repro.obs.reqctx`:
# a new thread starts without them (the serve daemon's handler threads
# apply per-request admission limits without requests bleeding budgets
# into each other), and a thread started under
# ``contextvars.copy_context().run`` carries them along.
_INSTALLED: contextvars.ContextVar[ResourceLimits | None] = \
    contextvars.ContextVar("repro_limits", default=None)
# (deadline, budget_seconds) of the outermost active compile budget.
_DEADLINE: contextvars.ContextVar[tuple[float, float] | None] = \
    contextvars.ContextVar("repro_compile_deadline", default=None)
_env_cache: tuple[str | None, ResourceLimits] = (None, _UNLIMITED)


def active_limits() -> ResourceLimits:
    """The limits in effect: installed > ``REPRO_LIMITS`` env > unlimited."""
    installed = _INSTALLED.get()
    if installed is not None:
        return installed
    spec = os.environ.get("REPRO_LIMITS")
    global _env_cache
    if _env_cache[0] != spec:
        parsed = ResourceLimits.parse(spec) if spec else _UNLIMITED
        _env_cache = (spec, parsed)
    return _env_cache[1]


@contextmanager
def use_limits(limits: ResourceLimits) -> Iterator[ResourceLimits]:
    """Install ``limits`` as the ambient configuration for a scope.

    The installation is context-local: limits installed in one thread
    are invisible to every other thread that does not run in a copy of
    this context (each serve request carries its own)."""
    token = _INSTALLED.set(limits)
    try:
        yield limits
    finally:
        _INSTALLED.reset(token)


# -- wall-clock budget --------------------------------------------------------

@contextmanager
def compile_budget() -> Iterator[None]:
    """Start the wall-clock budget for one compile stage, if configured.

    Nested stages share the outermost deadline (one budget covers the
    whole ``compile_source`` or ``CompiledStream.lower`` invocation that
    opened it); without a ``compile_seconds`` limit this is free.
    """
    if _DEADLINE.get() is not None:
        yield
        return
    budget = active_limits().compile_seconds
    if budget is None:
        yield
        return
    token = _DEADLINE.set((time.monotonic() + budget, budget))
    try:
        yield
    finally:
        _DEADLINE.reset(token)


def check_deadline(where: str) -> None:
    """Raise :class:`ResourceExhausted` when the stage budget is spent.

    Called at loop boundaries of every potentially unbounded stage
    (schedule fixpoints, per-firing lowering, optimizer rounds).
    """
    state = _DEADLINE.get()
    if state is None:
        return
    deadline, budget = state
    now = time.monotonic()
    if now > deadline:
        raise ResourceExhausted(
            "compile_seconds", budget, round(budget + now - deadline, 3),
            where=where, detail="compile wall-clock budget exhausted")
