"""Record, the frozen value-object base of every record in the package;
the small shared report records; `compare`, the one scan that checks
computed values against an oracle; and the precision names that the
floating records carry.  No imports at all: every module builds its
records on this one, so importing the package loads neither
`dataclasses` nor `inspect`, and the precision names cost an exact
process nothing (numerics, which turns them into arithmetic, stays
unloaded there)."""

STANDARD = "standard"
EXTENDED = "extended"
PRECISIONS = (STANDARD, EXTENDED)


class Record:
    """A frozen value object whose fields are its class annotations.

    A class attribute of a field's name is its default; a dict, list or
    set default is copied for each instance.  Records are built by
    position or keyword, run __post_init__ (which may normalise fields
    with object.__setattr__), compare and hash as the tuple of their
    fields within one class, print as Name(field=value, ...) and match
    positionally.  `replace(**changes)` returns a new record.
    """

    def __init_subclass__(cls):
        cls.__match_args__ = tuple(cls.__annotations__)
        cls._defaults = {name: vars(cls)[name] for name in cls.__match_args__ if name in vars(cls)}

    def __init__(self, *args, **kwargs):
        cls = type(self)
        names = cls.__match_args__
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__} takes {len(names)} fields, got {len(args)}")
        state = vars(self)
        state.update(zip(names, args))
        for name, value in kwargs.items():
            if name not in names or name in state:
                raise TypeError(f"{cls.__name__} got an unexpected or repeated field {name!r}")
            state[name] = value
        for name in names[len(args):]:
            if name not in state:
                if name not in cls._defaults:
                    raise TypeError(f"{cls.__name__} missing field {name!r}")
                default = cls._defaults[name]
                state[name] = default.copy() if type(default) in (dict, list, set) else default
        self.__post_init__()

    def __post_init__(self):
        pass

    def _astuple(self):
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def replace(self, **changes):
        """A new record with the given fields changed (runs __post_init__)."""
        return type(self)(**dict(zip(self.__match_args__, self._astuple()), **changes))


class FormulaCheck(Record):
    """Outcome of evaluating a closed formula against its oracle.

    first_mismatch is the first divergent position: an index k for
    sequence formulas, an (i, j) pair for trapezoid entries, None when
    everything matched.
    """

    matches: bool
    first_mismatch: object
    max_error: float
    tolerance: float
    note: str = ""


class VerificationCheck(Record):
    """One line of a verification report; field names are stable."""

    check: str
    status: str  # "pass" | "fail" | "skipped"
    residual: float | None
    detail: str = ""
    inputs: dict = {}


def compare(values, oracle, error=lambda a, b: 0 if a == b else abs(a - b), tolerance=0.0):
    """FormulaCheck of (position, value) pairs against the oracle values.

    error(value, expected) defaults to the exact |a - b|, skipping the
    subtraction and its gcd when the values are equal.  The first
    position whose error is not within tolerance is the mismatch (a NaN
    error is one); max_error is the largest error over all positions,
    or NaN once a NaN error was seen.  The caller writes the note.
    """
    first_bad = None
    max_err = 0.0
    for (position, value), expected in zip(values, oracle):
        err = error(value, expected)
        if not err <= tolerance and first_bad is None:
            first_bad = position
        err = float(err)
        if err > max_err or err != err:
            max_err = err
    return FormulaCheck(first_bad is None, first_bad, max_err, tolerance)
