"""Exception hierarchy. Every error names the offending witness when there is one."""

from __future__ import annotations


class ElliskitError(Exception):
    """Base class for all toolkit errors."""


class CapExceeded(ElliskitError):
    """A computation would build more than a size cap allows: exit 2 at the
    command line, from inside a `verify` suite too."""


# -- algebra ---------------------------------------------------------------

class NotAssociative(ElliskitError):
    def __init__(self, triple):
        self.triple = triple
        super().__init__(f"multiplication not associative at triple {triple}")


class NoIdentity(ElliskitError):
    def __init__(self):
        super().__init__("no two-sided identity element found")


class NoInverse(ElliskitError):
    def __init__(self, element):
        self.element = element
        super().__init__(f"element {element} has no two-sided inverse")


class NotBijective(ElliskitError):
    def __init__(self, index, mapping=None):
        self.index = index
        self.mapping = mapping
        super().__init__(f"map {index} is not a bijection")


class GroupTooLarge(CapExceeded):
    def __init__(self, order, bound):
        self.order = order
        self.bound = bound
        super().__init__(f"group order {order} exceeds bound {bound}")


class NotNormal(ElliskitError):
    def __init__(self, conjugator, member):
        self.conjugator = conjugator
        self.member = member
        super().__init__(
            f"subgroup not normal: conjugating {member} by {conjugator} leaves it"
        )


class UnsupportedParameters(ElliskitError):
    pass


class InvalidArgument(ElliskitError, ValueError):
    """A library argument with an impossible value."""


class InvalidArgumentType(ElliskitError, TypeError):
    """A library argument of a type the call cannot use."""


# -- flows -----------------------------------------------------------------

class NotAnAction(ElliskitError):
    def __init__(self, g, h, x):
        self.g, self.h, self.x = g, h, x
        super().__init__(f"action axiom fails at g={g}, h={h}, x={x}")


class OrbitNotDense(ElliskitError):
    def __init__(self, unreached):
        self.unreached = tuple(sorted(unreached))
        super().__init__(f"basepoint orbit misses points {self.unreached}")


class SizeCapExceeded(CapExceeded):
    def __init__(self, size, cap, what="object"):
        self.size = size
        self.cap = cap
        super().__init__(f"{what} size {size} exceeds cap {cap}")


class GroupMismatch(ElliskitError):
    """Objects that must share a group, semigroup or flow do not."""


class IncompatibleTower(ElliskitError):
    def __init__(self, level, reason):
        self.level = level
        self.reason = reason
        super().__init__(f"tower incompatible at level {level}: {reason}")


# -- ellis -----------------------------------------------------------------

class ClosureCapExceeded(CapExceeded):
    def __init__(self, partial_count, cap):
        self.partial_count = partial_count
        self.cap = cap
        super().__init__(
            f"composition closure exceeded cap {cap} ({partial_count} elements found)"
        )


class NotIdempotent(ElliskitError):
    def __init__(self, element):
        self.element = element
        super().__init__(f"element {element} is not idempotent")


class NotInIdeal(ElliskitError):
    def __init__(self, element):
        self.element = element
        super().__init__(f"element {element} does not belong to the ideal")


class TheoremViolation(ElliskitError):
    """A structural fact that must hold on every finite instance failed.

    Raising this is always a release-blocking defect, never a user error.
    """

    def __init__(self, fact, witness):
        self.fact = fact
        self.witness = witness
        super().__init__(f"structural fact violated: {fact}; witness {witness}")


class IsomorphismViolated(TheoremViolation):
    def __init__(self, witness):
        super().__init__("ideal-group isomorphism s -> vsv", witness)


# -- relations -------------------------------------------------------------

class NotAPartition(ElliskitError):
    def __init__(self, reason):
        super().__init__(f"classes do not partition the point set: {reason}")


class NotInvariant(ElliskitError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"relation is not invariant; witness (g, x1, x2) = {witness}")


class NotAWitness(ElliskitError):
    def __init__(self, reason):
        super().__init__(f"pair does not witness the relation: {reason}")


class NotFree(ElliskitError):
    def __init__(self, g, x):
        self.g, self.x = g, x
        super().__init__(f"action not free: non-identity {g} fixes {x}")


# -- grouplike -------------------------------------------------------------

class NotEquivalence(ElliskitError):
    def __init__(self, reason):
        super().__init__(f"not an equivalence relation: {reason}")


class NotWeaklyGroupLike(ElliskitError):
    def __init__(self, diagnostic):
        self.diagnostic = diagnostic
        super().__init__(f"relation is not weakly group-like: {diagnostic}")


# -- structured ------------------------------------------------------------

class NotALattice(ElliskitError):
    def __init__(self, a, b, missing):
        self.a, self.b, self.missing = a, b, missing
        super().__init__(
            f"family not union/intersection closed: combination of {sorted(a)} and "
            f"{sorted(b)} gives missing set {sorted(missing)}"
        )


class NotOrbital(ElliskitError):
    pass


# -- cli -------------------------------------------------------------------

class UnknownExample(ElliskitError):
    def __init__(self, name, known):
        self.name = name
        super().__init__(f"unknown example {name!r}; known: {', '.join(sorted(known))}")


class ParseError(ElliskitError):
    def __init__(self, path, message):
        self.path = path
        super().__init__(f"{path}: {message}")


class ValidationError(ElliskitError):
    def __init__(self, path, cause):
        self.path = path
        self.cause = cause
        super().__init__(f"{path}: {cause}")
