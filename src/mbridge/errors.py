"""Exception types shared across the package.

The class of a failure says what was proved, and the CLI's exit code is
read off it alone: ``Infeasible`` (exit 3) when the inputs admit no answer,
``NotConverged`` (exit 2) when none was found although one may exist, and
any other ``MbridgeError`` (exit 1) for malformed input and misuse.
"""


class MbridgeError(Exception):
    """Base class for all package specific errors."""


class StructuralError(MbridgeError):
    """Malformed input: shape mismatch, bad schema, inconsistent data."""


class Infeasible(MbridgeError):
    """The inputs admit no answer: no solver, however run, could give one."""


class NotInConvexOrder(Infeasible):
    """No martingale coupling exists between the requested marginals."""


class NotIrreducible(Infeasible):
    """A start point lies outside the relative interior of conv(supp nu)."""


class InfeasibleParameters(Infeasible):
    """Coupling parameters outside the feasible polygon."""


class NotConverged(MbridgeError):
    """An iterative scheme gave no answer where one may exist."""


class DualDivergence(NotConverged):
    """An inner dual variable exceeded the divergence bound."""


class DegenerateFiber(NotConverged):
    """A fiber Hessian is numerically singular beyond the conditioning cap."""


class TerminalAmbiguity(MbridgeError):
    """Backward posterior queried at t = 1 away from every atom."""
