"""Exception taxonomy shared by every engine component."""


class EngineError(Exception):
    """Base class for all errors raised by this package."""


class BoundsError(EngineError):
    """Coordinate or range outside the declared extent."""


class CapacityError(EngineError):
    """Buffer pool could not free enough space."""

    def __init__(self, msg: str, freed: int = 0):
        super().__init__(msg)
        self.freed = freed


class TooLargeError(EngineError):
    """Object larger than the whole pool."""


class NotFoundError(EngineError):
    """Unknown id / dataset name."""


class DuplicateCellError(EngineError):
    """Two cells written at the same coordinate of one tile."""


class ShapeError(EngineError):
    """Array operands with incompatible sizes or tile grids."""


class TypeMismatchError(EngineError):
    """Value of the wrong type for a predicate, aggregate or conversion."""


class PathError(EngineError):
    """Malformed or unresolvable dotted path."""


class PlanError(EngineError):
    """Structurally invalid plan or unresolved alias."""


class BindingError(EngineError):
    """Records do not fit a dimension binding or conversion: a missing
    attribute, or a non-integer or negative coordinate."""


class OutputSpecError(EngineError):
    """Join output spec inconsistent with the requested model."""


class ConfigError(EngineError):
    """Inconsistent benchmark or engine configuration."""


class DataFormatError(EngineError, ValueError):
    """Dataset text that does not parse: a malformed or ragged CSV row, a
    cell that does not fit its declared type, or a JSONL line that is not
    one JSON object.  Names the dataset (when known) and the 1-based line;
    also a ValueError, as the loaders raised before it existed."""

    def __init__(self, msg: str, name: str = "", line: int = 0):
        where = f"dataset {name!r}, " if name else ""
        super().__init__(f"{where}line {line}: {msg}")
        self.name = name
        self.line = line


class ArrayFileError(EngineError, ValueError):
    """An array file that cannot be opened: bad magic or version, a header
    or directory cut short, an unknown layout tag, or a tile slot that is
    empty or ends beyond the file.  Names the file; also a ValueError, as
    ``StoredArray.load`` raised before it existed."""


class InternalError(EngineError):
    """Invariant breach; indicates a bug, not a user error."""


class ScriptError(EngineError):
    """Query-script parse or bind failure, with source position."""

    def __init__(self, msg: str, line: int = 0, col: int = 0):
        if line:
            msg = f"line {line}, col {col}: {msg}"
        elif col:
            msg = f"col {col}: {msg}"
        super().__init__(msg)
        self.line = line
        self.col = col
