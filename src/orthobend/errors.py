"""Exception types shared across the package.

DomainError covers inputs that are well-formed but outside what the
algorithms accept (wrong graph class, K4, infeasible caps). ParseError
covers malformed input: graph text, edge lists and representation JSON.
"""


class OrthobendError(Exception):
    pass


class ParseError(OrthobendError):
    pass


class DomainError(OrthobendError):
    """Valid syntax, unsupported instance."""


class DegreeTooHigh(DomainError):
    pass


class NotSimple(DomainError):
    pass


class Disconnected(DomainError):
    pass


class NotPlanar(DomainError):
    pass


class NotBiconnected(DomainError):
    pass


class NotTriconnectedCubic(DomainError):
    pass


class IsK4(DomainError):
    pass


class TooLarge(DomainError):
    pass


class Infeasible(DomainError):
    pass


class NoTwin(DomainError):
    pass


class ShortExternalFace(DomainError):
    """The external face has fewer than four edges."""


class NotGood(DomainError):
    pass


class H1Violation(OrthobendError):
    def __init__(self, vertex, total):
        self.vertex = vertex
        self.total = total
        super().__init__(f"angles at vertex {vertex} sum to {total}, want 360")


class H2Violation(OrthobendError):
    def __init__(self, face, value, expected):
        self.face = face
        self.value = value
        self.expected = expected
        super().__init__(
            f"face {face}: N90 - N270 - 2*N360 = {value}, want {expected}")
