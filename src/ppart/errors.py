"""Exception hierarchy shared by all ppart modules.

The CLI's exit code follows the family of the class: an `InputError`
exits 2, a `CapError` exits 4, and every other `PPartError` exits 3.
"""


class PPartError(Exception):
    """Base class for all errors raised by this package."""


class InputError(PPartError):
    """The input poset is malformed or out of range."""


class PosetSyntaxError(InputError):
    """Malformed line in a poset file."""


class CycleError(InputError):
    """The input relation digraph contains a directed cycle."""


class RangeError(InputError):
    """An element label or size parameter is out of range."""


class FlavorError(PPartError):
    """A value vector does not have the flavor an operation requires."""


class LabelError(PPartError):
    """Operation requires a naturally labelled poset."""


class NotFWDError(PPartError):
    """The poset is not a forest with duplications."""


class RemainderError(PPartError):
    """Exact polynomial division left a nonzero remainder."""


class InstabilityError(PPartError):
    """A numerator polynomial did not stabilize at the given truncation."""


class ArgError(PPartError):
    """An argument violates an operation's precondition."""


class CapError(PPartError):
    """A size cap was exceeded."""


class ExplosionError(CapError):
    """The CapError of the linear-extension enumeration."""
