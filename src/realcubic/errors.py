"""Exception hierarchy.

Two broad families matter for the CLI exit protocol: mathematical rejections
(the input is a perfectly good file but names an object outside the theory,
e.g. a singular surface) and computation failures (numerics or internal
consistency trouble).  Everything derives from RealcubicError.
"""


class RealcubicError(Exception):
    pass


class MathematicalRejection(RealcubicError):
    """Input is well-formed but mathematically inadmissible."""


class ComputationFailure(RealcubicError):
    """The algorithm could not complete or contradicted itself."""


# -- rejections -------------------------------------------------------------

class SingularCurve(MathematicalRejection):
    pass


class NotTransversal(MathematicalRejection):
    pass


class NearDiscriminant(MathematicalRejection):
    """Line solving found fewer than 27 separated lines."""


class SharedComponent(MathematicalRejection):
    """Conic and cubic share a component; intersection is not finite."""


class DegenerateConfiguration(MathematicalRejection):
    pass


class LineInPlane(MathematicalRejection):
    pass


class NotOnCurve(MathematicalRejection):
    pass


class InvalidArrangement(MathematicalRejection):
    pass


class MultiplicityAmbiguity(MathematicalRejection):
    pass


# -- failures ---------------------------------------------------------------

class NonConvergence(ComputationFailure):
    pass


class ChartDegenerate(ComputationFailure):
    """No admissible sweep chart found within the retry budget."""


class Undecided(ComputationFailure):
    """A decision procedure reached no verdict, or two disagree."""


class InternalInconsistency(ComputationFailure):
    pass
