"""Type system for the StreamIt subset: scalars and fixed-size arrays."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Type:
    """Base class; concrete types are :class:`ScalarType` / :class:`ArrayType`."""

    def is_numeric(self) -> bool:
        return False


@dataclass(frozen=True)
class ScalarType(Type):
    name: str  # "int" | "float" | "boolean" | "void"

    def is_numeric(self) -> bool:
        return self.name in ("int", "float")

    def __str__(self) -> str:
        return self.name

    def __reduce__(self) -> tuple:
        # Copies and unpickled values are the shared instance, so code may
        # compare scalar types by identity.
        return scalar, (self.name,)


@dataclass(frozen=True)
class ArrayType(Type):
    """Fixed-size array; ``size`` is None until elaboration resolves it."""

    element: Type
    size: int | None = None

    def __str__(self) -> str:
        size = "?" if self.size is None else str(self.size)
        return f"{self.element}[{size}]"

    @property
    def base(self) -> ScalarType:
        ty: Type = self
        while isinstance(ty, ArrayType):
            ty = ty.element
        assert isinstance(ty, ScalarType)
        return ty

    def dims(self) -> list[int | None]:
        out: list[int | None] = []
        ty: Type = self
        while isinstance(ty, ArrayType):
            out.append(ty.size)
            ty = ty.element
        return out


INT = ScalarType("int")
FLOAT = ScalarType("float")
BOOLEAN = ScalarType("boolean")
VOID = ScalarType("void")

_SCALARS = {"int": INT, "float": FLOAT, "boolean": BOOLEAN, "void": VOID}


def scalar(name: str) -> ScalarType:
    """Look up one of the built-in scalar types by keyword spelling."""
    return _SCALARS[name]


def unify_numeric(left: Type, right: Type) -> ScalarType | None:
    """The usual arithmetic conversion: int op float promotes to float."""
    if not (isinstance(left, ScalarType) and isinstance(right, ScalarType)):
        return None
    if not (left.is_numeric() and right.is_numeric()):
        return None
    return FLOAT if FLOAT in (left, right) else INT
