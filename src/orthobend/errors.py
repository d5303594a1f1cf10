"""Exception types shared across the package.

DomainError covers inputs that are well-formed but outside what the
algorithms accept (wrong graph class, infeasible caps). ParseError
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


class TooLarge(DomainError):
    pass


class Infeasible(DomainError):
    pass


class NotGood(DomainError):
    pass


class H1Violation(OrthobendError):
    """The corner angles at a vertex do not sum to 360 (total), or the
    corner of `dart`, the flat int 2e + o arriving there, has an angle
    that is none of 90, 180, 270 and 360 (angle, None when the corner has
    none; total is then None). The message names the dart's edge e too."""

    def __init__(self, vertex, total=None, *, dart=None, angle=None):
        self.vertex = vertex
        self.total = total
        self.dart = dart
        self.angle = angle
        if dart is None:
            msg = f"angles at vertex {vertex} sum to {total}, want 360"
        else:
            has = "no angle" if angle is None else f"angle {angle!r}"
            msg = (f"corner of dart {dart} (edge {dart >> 1}) at vertex "
                   f"{vertex} has {has}, want 90, 180, 270 or 360")
        super().__init__(msg)


class H2Violation(OrthobendError):
    def __init__(self, face, value, expected):
        self.face = face
        self.value = value
        self.expected = expected
        super().__init__(
            f"face {face}: N90 - N270 - 2*N360 = {value}, want {expected}")
