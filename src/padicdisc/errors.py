"""Exception types shared across the library.

Every error carries a short human message; none of them hold large payloads,
so reports can serialize them as (class name, message) pairs.
"""


class PadicDiscError(Exception):
    """Base class for all library errors."""


# -- fields and scalar arithmetic ---------------------------------------------

class InvalidField(PadicDiscError, ValueError):
    """FieldDescriptor arguments do not describe Q_p or one supported extension."""


class DivisionByZeroAtPrecision(PadicDiscError):
    """Divisor is indistinguishable from zero at the tracked precision."""


class HenselHypothesisFailed(PadicDiscError):
    """v(g(x0)) > 2 v(g'(x0)) does not hold at the starting point."""


class NoConvergence(PadicDiscError):
    """Newton iteration hit the precision cap without a vanishing residual."""


class UnsupportedRoot(PadicDiscError):
    """Requested root of unity does not exist in the declared field."""


class PrecisionPastExact(PadicDiscError, ValueError):
    """A nonzero value would be known modulo p^_EXACT or beyond, where its
    precision reads as exact."""


# -- truncated series ---------------------------------------------------------

class CenterMismatch(PadicDiscError):
    """Binary series operation on series with different centers."""


class VariableMismatch(PadicDiscError):
    """Binary series operation on series with different variable tags."""


class NonUnitConstantTerm(PadicDiscError):
    """Multiplicative inverse of a series whose constant term vanishes."""


class SubstitutionOutsideDisc(PadicDiscError):
    """Composition target does not land inside the disc of definedness."""


class NotInvertibleAtOrderOne(PadicDiscError):
    """Reversion requires c_0 = 0 and c_1 invertible."""


class ShiftOutsideDisc(PadicDiscError):
    """Taylor shift to a point outside the disc of definedness."""


class ZeroSeries(PadicDiscError):
    """Valuation polygon of a series that vanishes at precision."""


class SingularFiberPoint(PadicDiscError):
    """The defining polynomial is singular at the requested fiber point."""


# -- morphisms and fibers -----------------------------------------------------

class InvalidMorphism(PadicDiscError, ValueError):
    """f is not a degree-d map of the open unit disc onto itself, as declared."""


class RootsNotInDeclaredField(PadicDiscError):
    """Some fiber point does not lie in the declared coefficient field."""


class FiberNotReduced(PadicDiscError):
    """Two lifted fiber points collide at the tracked precision."""


class NotEtale(PadicDiscError):
    """f'(t) is not a unit on the open disc."""


class ResidueFieldTooLarge(PadicDiscError):
    """The residue field has more than MAX_RESIDUE_FIELD elements to enumerate."""


# -- linear algebra over series -----------------------------------------------

class DegenerateFiber(PadicDiscError):
    """Vandermonde constant terms coincide at precision."""


# -- optimal bases ------------------------------------------------------------

class InconsistentRadii(PadicDiscError):
    """A linked copy's radius estimate disagrees with its stored disc."""


class CountMismatch(PadicDiscError):
    """Branch-selection cardinality violates the Euler counting identity."""


# -- CLI ------------------------------------------------------------------------

class SchemaError(PadicDiscError):
    """Job specification failed validation."""


class UnknownExample(PadicDiscError):
    """Unrecognized canned example name."""


class SelectorError(PadicDiscError):
    """Polygon selector does not resolve to a series."""
