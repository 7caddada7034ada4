"""Exception hierarchy shared by all treelocal modules, and the base of
the immutable value classes."""


class Frozen:
    """Base of the immutable value classes.  Each sets its fields once, in
    __init__, through object.__setattr__; assigning or deleting one
    afterwards raises.  ``_fields`` names the fields in repr order, and
    ==, hash and repr read them: equal only to the same class with equal
    fields, the hash of the field tuple (none where a field has none),
    and Name(field=value, ...).  Caches are not fields.  The methods are
    written once, not generated, so importing the package compiles no code."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class TreeLocalError(Exception):
    """Base class for all errors raised by this package."""


# --- permutation groups ---

class MalformedCycle(TreeLocalError):
    """Cycle-notation string cannot be parsed."""


class OutOfRange(TreeLocalError):
    """A point lies outside 1..d."""


class RepeatedEntry(TreeLocalError):
    """A point occurs twice in a cycle decomposition."""


class DegreeMismatch(TreeLocalError):
    """Permutations or groups of different degrees were mixed."""


class SizeLimitExceeded(TreeLocalError):
    """An enumeration would exceed its configured cap."""


class ConflictingConstraints(TreeLocalError):
    """A constraint set maps one source to two different targets."""


class TrivialGroup(TreeLocalError):
    """An operation requires a nontrivial group."""


# --- automorphisms ---

class InconsistentPortrait(TreeLocalError):
    """Edge compatibility failed at an evaluated edge."""


class RadiusExhausted(TreeLocalError):
    """An iteration did not stabilize within the allowed radius."""


# --- constructions ---

class IncompatibleSigma(TreeLocalError):
    """A prescribed local permutation violates an edge constraint."""


class OrbitViolation(TreeLocalError):
    """A single-color fill constraint has no solution in the fill group."""


class LengthMismatch(TreeLocalError):
    """Two segments of different lengths were compared."""


class NotTwoTransitive(TreeLocalError):
    """The construction needs a 2-transitive outer group."""


class ConstraintUnsolvable(TreeLocalError):
    """No group element satisfies a line slot constraint."""


class NotStabilizing(TreeLocalError):
    """A generator does not stabilize the line on the checked window."""


class HypothesisUnverified(TreeLocalError):
    """A check was invoked without its hypotheses having been verified."""
