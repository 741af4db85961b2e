"""goldenseq: degree-n Fibonacci-type sequences, exactly and in closed form.

A recurrence spec is a monic polynomial x^n = a_{n-1} x^{n-1} + ... + a_0
read coefficient-up (a0 first).  From one spec the package derives:

* exact sequence terms (iterative and O(log k) single-term);
* the characteristic roots ("golden numbers"), with radical closed
  forms for degrees 2 and 3 and simultaneous iteration beyond;
* Binet-style closed forms with self-checking weights;
* the rational generating function and its exact series;
* the arithmetic trapezoid generalizing Pascal's triangle, with
  per-entry closed forms for degrees 2 and 3;
* ratio-convergence diagnostics and a cross-verification battery.

`import goldenseq` loads only the recurrence core (recurrence, presets,
reports, which holds the precision names, and errors).  The names of
genfunc, trapezoid and the floating modules resolve on first use;
numerics loads only with a floating module, and only extended-precision
work in those modules loads mpmath.  Every record is a frozen value
object built on `reports.Record`, not a dataclass: derive a changed copy
with its `.replace(...)` method.
"""

from types import ModuleType as _ModuleType

from .errors import (
    DegenerateSpectrumError,
    InvalidSpecError,
    PresetError,
    RootConvergenceError,
    SeedMismatchError,
    UnitRootError,
)
from .presets import BUILTIN_PRESETS, Preset, load_presets, parse_rational
from .recurrence import (
    RecurrenceSpec,
    SeedVector,
    SymbolicTerm,
    generate,
    make_seeds,
    make_spec,
    symbolic_term,
    term_at,
)
from .reports import EXTENDED, PRECISIONS, STANDARD, FormulaCheck, VerificationCheck

# Imported on first use (PEP 562): extended precision loads mpmath, so a
# process that only touches the exact layers never loads it, and a
# command that only needs the recurrence core never imports genfunc or
# trapezoid.
_LAZY = {
    "analysis": (
        "ConvergenceReport",
        "golden_identity_check",
        "golden_inverse_check",
        "ratio_convergence",
        "recover_cubic_conjugates",
    ),
    "binet": (
        "BinetWeights",
        "binet_cubic_closed",
        "binet_eval",
        "binet_quadratic_closed",
        "check_cubic_closed_form",
        "nearest_integer",
        "solve_weights",
    ),
    "genfunc": (
        "GeneratingFunction",
        "build_genfunc",
        "format_polynomial",
        "series_coefficients",
        "unit_function",
    ),
    "roots": (
        "RootSet",
        "cubic_roots",
        "dominant_root",
        "general_roots",
        "pseudo_sign_combine",
        "quadratic_roots",
        "solve_roots",
        "verify_symmetric_relations",
    ),
    "trapezoid": (
        "Trapezoid",
        "build_closed_form",
        "build_expansion",
        "check_closed_form",
        "check_row_recurrence",
        "coeff_cubic",
        "coeff_quadratic",
        "diagonal_sum",
        "row_length",
        "row_sum",
    ),
    "verify": ("has_failures", "verify_all"),
}
_LAZY_HOME = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name):
    import importlib

    if name in _LAZY:
        return importlib.import_module("." + name, __name__)
    if name not in _LAZY_HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module("." + _LAZY_HOME[name], __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY) | set(_LAZY_HOME))


__version__ = "0.1.0"

# every name imported above plus the lazy ones; submodules stay out
__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
] + list(_LAZY_HOME)
