"""Exception taxonomy shared by every engine component."""


class EngineError(Exception):
    """Base class for all errors raised by this package.  ``index``, when
    set, is the position of the cell or record at fault in the input of the
    call that raised, and ``detail`` the message without the name of that
    record; ``Catalog.ingest`` names the record's line instead."""

    def __init__(self, *args, index: int | None = None,
                 detail: str | None = None):
        super().__init__(*args)
        self.index = index
        self.detail = str(self) if detail is None else detail


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
    """Array operands with incompatible sizes or tile grids, or a tile
    extent with more cells than a tile can number."""


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
    """An array file that cannot be read: bad magic or version, a header or
    directory cut short, an unknown layout tag, a tile slot that is empty,
    ends beyond the file or, sparse, does not decode.  Names the file; also
    a ValueError, as ``StoredArray.load`` raised before it existed."""


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
