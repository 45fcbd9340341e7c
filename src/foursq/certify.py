"""Exact perfect-square testing and four-condition verification with certificates."""

import math
from typing import NamedTuple, Optional


class DomainError(ValueError):
    """Raised when an argument lies outside an operation's domain."""


def isqrt(v: int) -> int:
    """Floor square root of a nonnegative integer, exact at any size
    (`math.isqrt`, with `DomainError` on negative input)."""
    if v < 0:
        raise DomainError(f"isqrt of negative value {v}")
    return math.isqrt(v)


def perfect_square_root(v: int) -> Optional[int]:
    """Return the nonnegative root if v is a perfect square, else None."""
    if v < 0:
        return None
    r = isqrt(v)
    return r if r * r == v else None


class Certificate(NamedTuple):
    """The four nonnegative roots witnessing ab+1, ac+1, bc+1, abc+1 squares."""

    r_ab: int
    r_ac: int
    r_bc: int
    r_abc: int


class VerifyOutcome(NamedTuple):
    ok: bool
    certificate: Optional[Certificate]
    first_failure: Optional[str]  # "ab" | "ac" | "bc" | "abc"
    failing_value: Optional[int]


def verify_four(a: int, b: int, c: int) -> VerifyOutcome:
    """Check ab+1, ac+1, bc+1, abc+1 for squareness, in that fixed order.

    Returns a certificate of the four roots on success, or the first failing
    condition together with the offending non-square value.
    """
    if a < 1 or b < 1 or c < 1:
        raise DomainError(f"verify_four requires positive entries, got ({a}, {b}, {c})")
    roots = []
    for name, v in (("ab", a * b + 1), ("ac", a * c + 1),
                    ("bc", b * c + 1), ("abc", a * b * c + 1)):
        root = perfect_square_root(v)
        if root is None:
            return VerifyOutcome(False, None, name, v)
        roots.append(root)
    return VerifyOutcome(True, Certificate(*roots), None, None)
