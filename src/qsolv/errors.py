"""Exception hierarchy shared across the package."""


class QsolvError(Exception):
    """Base class for all errors raised by qsolv."""


class PresentationError(QsolvError):
    """Structurally invalid presentation data."""


class RewriteBudgetError(QsolvError):
    """A product made more right-product table fills than one nf_mul call
    may (normalform.DEFAULT_BUDGET), or a fill needed its own result
    because the tails are not well-founded."""


class LocalizationError(QsolvError):
    """Invalid localization request or localized-element operation."""


class AdRootError(QsolvError):
    """The minimal polynomial of an adjoint action could not be split
    over the available candidate scalars."""


class RepeatedRootError(AdRootError):
    """The adjoint action is not diagonalizable on the given element.

    Carries the offending eigenvalue; callers that need the
    generalized-eigenvector data can rerun ad_minimal_polynomial and
    inspect the returned spectrum.
    """

    def __init__(self, root, message=None):
        super().__init__(message or f"repeated eigenvalue {root}")
        self.root = root


class LatticeError(QsolvError):
    """Integer-lattice operation failed (e.g. subgroup is not a direct
    summand)."""


class SpecializationError(QsolvError):
    """Invalid specialization target or value."""


class FamilyError(QsolvError):
    """Unknown or unsupported presentation family."""


class ParseError(QsolvError):
    """Syntax or consistency error in presentation text.

    line and column are 1-based positions into the original input.
    """

    def __init__(self, message, line, column):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column
        self.message = message
