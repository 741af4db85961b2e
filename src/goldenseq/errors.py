"""Exception types shared across the package.  A PremiseError is raised
where a premise is decided, and verify reports it as a skipped row."""


class InvalidSpecError(ValueError):
    """The given coefficients do not define a usable recurrence spec."""


class SeedMismatchError(ValueError):
    """A seed vector does not fit the spec it is used with."""


class PremiseError(ValueError):
    """A well-formed input lacks the premise of the quantity asked for
    (repeated roots, a root at 1, an identically zero sequence, a value
    past standard precision's float range); residual is what the raiser
    measured before refusing, or None."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class DegenerateSpectrumError(PremiseError):
    """Repeated characteristic roots rule out the distinct-root Binet form."""


class UnitRootError(PremiseError):
    """A characteristic root equals 1 (or the precision cannot tell it from
    1), so a closed form would divide by zero."""


class RootConvergenceError(RuntimeError):
    """Iterative root refinement gave up; carries its best iterate."""

    def __init__(self, message: str, best_roots=(), residuals=(), iterations: int = 0):
        super().__init__(message)
        self.best_roots = tuple(best_roots)
        self.residuals = tuple(residuals)
        self.iterations = iterations


class PresetError(ValueError):
    """A preset catalog could not be parsed or merged."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        if line is not None:
            where = f"line {line}" + (f", column {column}" if column is not None else "")
            message = f"{message} ({where})"
        super().__init__(message)
        self.line = line
        self.column = column
