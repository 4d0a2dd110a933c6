"""Exception hierarchy for the qcover engine.

Every engine error derives from :class:`QcoverError` so callers (and the
CLI) can distinguish domain failures from programming errors.
"""

import operator
from typing import Optional


def echo(value: object) -> str:
    """``repr(value)`` for an error line, cut after 20 characters.

    A cut shows the first 20 characters (of a string before its ``repr``,
    of anything else after it) and the full length, so a message stays one
    short line however long the input that it quotes.  An integer past
    Python's int-to-str digit limit is described by its bit length instead.
    """
    try:
        text = value if isinstance(value, str) else repr(value)
    except ValueError:  # the digit limit, hit by an int or a list holding one
        if isinstance(value, int):
            return f"<{value.bit_length()}-bit {'negative ' if value < 0 else ''}integer>"
        return f"<{type(value).__name__} holding an integer too long to print>"
    if len(text) <= 20:
        return repr(value)
    head = repr(text[:20]) if isinstance(value, str) else text[:20]
    return f"{head}... ({len(text)} characters)"


def echo_each(values) -> str:
    """A list's ``repr`` with each item quoted through :func:`echo`, cut.

    Items are shown while the text stays within 50 characters, the first
    always; a cut list ends in ``...`` and its length, so a message stays
    one short line however many items it quotes.
    """
    items = list(values)
    text = ""
    for item in items:
        shown = echo(item)
        if text and len(text) + 2 + len(shown) > 50:
            return f"[{text}, ... ({len(items)} items)]"
        text = f"{text}, {shown}" if text else shown
    return f"[{text}]"


def check_order(k: int, least: Optional[int] = 0, name: str = "cover order") -> int:
    """k as an int, raising ValueError for a bool, a non-integer or k < least.

    ``least=None`` checks the type alone.
    """
    try:
        if isinstance(k, bool):
            raise TypeError
        k = operator.index(k)
    except TypeError:
        raise ValueError(f"{name} must be an integer") from None
    if least is not None and k < least:
        raise ValueError(
            f"{name} must be " + ("nonnegative" if least == 0 else f"at least {least}")
        )
    return k


def parse_int(text: str) -> int:
    """ASCII ``-?[0-9]+`` text, spaces around allowed, as an int; else ValueError.

    ``int()`` alone would also take ``1_0``, ``+1`` and non-ASCII digits.
    """
    token = text.strip()
    digits = token[1:] if token[:1] == "-" else token
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"{echo(text)} is not an ASCII integer")
    return int(token)


def check_seed(seed: int) -> int:
    """seed as an int, raising ValueError for a bool, a non-integer or seed < 0."""
    try:
        return check_order(seed, 0, "seed")
    except ValueError:
        raise ValueError(f"seed must be a nonnegative integer, got {echo(seed)}") from None


class QcoverError(Exception):
    """Base class for all qcover errors."""


# --- complex construction / selection ---------------------------------------

class EmptyFacetError(QcoverError):
    """A facet with no vertices was supplied."""


class DuplicateFacetError(QcoverError):
    """Two input facets have identical vertex sets."""


class AntichainViolationError(QcoverError):
    """One input facet is contained in another; facet lists must be antichains."""

    def __init__(self, smaller, larger):
        self.smaller = frozenset(smaller)
        self.larger = frozenset(larger)
        super().__init__(
            f"facet {echo_each(sorted(self.smaller))} is contained in facet "
            f"{echo_each(sorted(self.larger))}"
        )


class UncoveredVertexError(QcoverError):
    """Some label in 1..n belongs to no facet."""


class TooManyVerticesError(QcoverError):
    """More vertices than the 64-label desk-scale cap."""


class UnknownFacetIdError(QcoverError):
    """A facet id that does not exist in the complex (or selected subcomplex)."""


class EmptySelectionError(QcoverError):
    """A facet-subset selection was empty."""


# --- quasi-forest structure ---------------------------------------------------

class NotAPermutationError(QcoverError):
    """A proposed leaf order is not a permutation of the facet ids."""


class InvalidLeafOrderError(QcoverError):
    """A proposed leaf order fails the prefix-leaf condition."""


class UnknownNodeError(QcoverError):
    """A facet id that is not a node of the given relation tree."""


# --- cycles -------------------------------------------------------------------

class LengthMismatchError(QcoverError):
    """Paired vertex/facet or vector/universe lengths disagree."""


class NotACycleError(QcoverError):
    """The given alternating sequence is not a cycle."""


class BudgetExceededError(QcoverError):
    """The cycle search exhausted its node budget before finishing."""


# --- covers -------------------------------------------------------------------

class NotAKCoverError(QcoverError):
    """The vector does not cover every facet to the declared order."""


class NotALeafError(QcoverError):
    """The named facet is not a leaf of the complex."""


class NoFreeVertexError(QcoverError):
    """A leaf without a private vertex; impossible for valid antichains."""


# --- gradedness ----------------------------------------------------------------

class NotQuasiTreeError(QcoverError):
    """Operation restricted to quasi-trees received something else."""


class NotSpecialOddCycleError(QcoverError):
    """The witness construction needs a special cycle of odd length >= 3."""


class VerificationFailedError(QcoverError):
    """A constructed witness failed its independent re-check; engine bug."""


# --- families / io --------------------------------------------------------------

class NTooSmallError(QcoverError):
    """The family requires a larger size parameter."""


class InputFormatError(QcoverError):
    """A complex file could not be parsed; message carries diagnostics."""
