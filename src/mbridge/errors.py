"""Exception types shared across the package."""


class MbridgeError(Exception):
    """Base class for all package specific errors."""


class StructuralError(MbridgeError):
    """Malformed input: shape mismatch, bad schema, inconsistent data."""


class NotInConvexOrder(MbridgeError):
    """No martingale coupling exists between the requested marginals."""


class NotIrreducible(MbridgeError):
    """A start point lies outside the relative interior of conv(supp nu)."""


class DualDivergence(MbridgeError):
    """An inner dual variable exceeded the divergence bound."""


class DegenerateFiber(MbridgeError):
    """A fiber Hessian is numerically singular beyond the conditioning cap."""


class NotConverged(MbridgeError):
    """An iterative scheme hit its iteration cap before reaching tolerance."""


class TerminalAmbiguity(MbridgeError):
    """Backward posterior queried at t = 1 away from every atom."""


class InfeasibleParameters(MbridgeError):
    """Coupling parameters outside the feasible polygon."""
