"""Exception types shared across the solver modules.

Each type below is a DiracboundError and also keeps the builtin base it
has always had, so existing except clauses still match.
"""


class DiracboundError(Exception):
    """Base of the package's error types: catch it to catch them all."""


class DomainError(DiracboundError, ValueError):
    """An input lies outside the mathematical domain of the requested quantity
    (r <= 0, negative square-root discriminant, nonpositive Gamma argument)."""


class PoleError(DiracboundError, ValueError):
    """A terminating hypergeometric series hit a pole of a Pochhammer ratio
    (the denominator parameter is a nonpositive integer reached before the
    series terminates)."""


class InvalidBranchError(DiracboundError, ValueError):
    """Superpotential constants cannot be formed on the required branch."""


class SingularCouplingError(DiracboundError, ZeroDivisionError):
    """The first-order relation linking the two spinor components divides by
    M + E - C (spin) or M - E + C (pseudospin), which vanishes here."""


class NoEigenvalueError(DiracboundError, RuntimeError):
    """The shooting solver could not bracket an eigenvalue with the requested
    node count inside its search window, or the potential falls to the
    centre at the energy it bisected to."""


class NotConvergedError(DiracboundError, RuntimeError):
    """The shooting solver bisected to an energy, but the two level counts
    there refute that the requested level lies within 1e-8 of its target
    (raised by dirac_eigenvalue)."""
