"""Closed-form construction of four-square triples.

Two parametrized families indexed by n (through the conic point
(x, y) = (P(n+1), P(n))):

* the main family, for which abc+1 = s^2 holds identically, and
* the companion family r = A(n)^2 R(n-1) - A(n-1) - 2;

each is a row of a, r, b, c, s tables in `forms.FAMILIES`, evaluated by one
constructor that checks `forms.triple_conditions` on the integers.

Plus the two elementary constructions: completing a pair (a, b) with
ab+1 = r^2 to c = a + b + 2r, and the degenerate a=1 family b = k^2-1,
c = (k+1)^2 - 1.
"""

from fractions import Fraction
from typing import NamedTuple

from . import forms
from .certify import Certificate, DomainError, perfect_square_root
from .sequences import conic_point, seq_A, seq_R

__all__ = [
    "TripleCandidate", "Certificate", "NotDiophantinePair", "ConstructionError",
    "make_main", "make_companion", "recurrence_r",
    "regular_complete", "degenerate_family",
]


class NotDiophantinePair(ValueError):
    """ab+1 is not a perfect square, so (a, b) cannot be completed."""


class ConstructionError(RuntimeError):
    """A construction's internal consistency check failed."""


class TripleCandidate(NamedTuple):
    """One family member with all intermediate values.

    Inadmissible candidates (an entry <= 1 or a collision) are returned
    flagged rather than rejected: negative indices legitimately produce them.
    s is the nonnegative root of abc+1.
    """

    n: int
    variant: str  # "main" | "companion"
    x: int
    y: int
    a: int
    r: int
    b: int
    c: int
    s: int
    admissible: bool

    def certificate(self) -> Certificate:
        """The four square roots."""
        return Certificate(abs(self.r), abs(self.a + self.r),
                           abs(self.b + self.r), self.s)


def _admissible(a: int, b: int, c: int) -> bool:
    return a > 1 and b > 1 and c > 1 and a != b and a != c and b != c


# variant -> (its forms.FAMILIES row, that row's integral forms, their
# highest x and y degrees); rebuilt when the row object changes
_INTEGRAL_ROWS = {}


def _integral_row(variant: str) -> tuple:
    row = forms.FAMILIES[variant]
    cached = _INTEGRAL_ROWS.get(variant)
    if cached is None or cached[0] is not row:
        integral = tuple(forms.integral_form(table) for table in row)
        cached = _INTEGRAL_ROWS[variant] = (row, integral,
                                            forms.degrees(*integral))
    return cached[1:]


def _construct(n: int, variant: str) -> TripleCandidate:
    """a, r, b, c, s from the `forms.FAMILIES` row of `variant` at
    conic_point(n), every invariant checked with `if` (not `assert`, so also
    under python -O)."""
    pt = conic_point(n)
    integral, (dx, dy) = _integral_row(variant)
    xs, ys = forms.powers(pt.x, dx), forms.powers(pt.y, dy)
    values = []
    for what, (den, terms) in zip("arbcs", integral):
        num = forms.integral_value(terms, xs, ys)
        v, rem = divmod(num, den)
        if rem:
            value = Fraction(num, den)
            raise ConstructionError(
                f"{variant} {what} evaluated to non-integer {value} at "
                f"({pt.x}, {pt.y}); point is off the conic")
        values.append(v)
    a, r, b, c, s = values
    s = abs(s)  # the quintic s forms go negative on the negative branch
    for k, diff in enumerate(forms.triple_conditions(a, r, b, c, s), 1):
        if diff:
            raise ConstructionError(
                f"{variant} index {n}: invariant {k} of ab+1=r^2, c=a+b+2r, "
                f"ac+1=(a+r)^2, bc+1=(b+r)^2, abc+1=s^2 fails")
    return TripleCandidate(n=n, variant=variant, x=pt.x, y=pt.y,
                           a=a, r=r, b=b, c=c, s=s,
                           admissible=_admissible(a, b, c))


def make_main(n: int) -> TripleCandidate:
    """Evaluate the proved family at index n, with every invariant checked."""
    return _construct(n, "main")


def make_companion(n: int) -> TripleCandidate:
    """Evaluate the companion family at index n from its `forms` tables,
    with the same invariants checked as for the main family."""
    return _construct(n, "companion")


def recurrence_r(n: int) -> int:
    """r = A(n)^2 R(n) + A(n+1) - 2, the recurrence presentation of the main
    family's r (`forms.ROOT_R`)."""
    A = seq_A(n)
    return A * A * seq_R(n) + seq_A(n + 1) - 2


def regular_complete(a: int, b: int) -> tuple:
    """Complete a pair with ab+1 = r^2 to the regular triple (a, b, a+b+2r).

    Returns (c, r).  The completion automatically makes ac+1 = (a+r)^2 and
    bc+1 = (b+r)^2.
    """
    if a < 1 or b < 1:
        raise DomainError(f"regular_complete requires a, b >= 1, got ({a}, {b})")
    r = perfect_square_root(a * b + 1)
    if r is None:
        raise NotDiophantinePair(f"{a}*{b}+1 = {a * b + 1} is not a perfect square")
    c = a + b + 2 * r
    if a * c + 1 != (a + r) ** 2 or b * c + 1 != (b + r) ** 2:
        raise ConstructionError(
            f"regular completion of ({a}, {b}) with r={r} is not a triple")
    return c, r


def degenerate_family(k: int) -> tuple:
    """b = k^2 - 1, c = (k+1)^2 - 1: with a = 1 the four conditions collapse
    to three, and {1, b, c} satisfies all of them for every k >= 2."""
    if k < 2:
        raise DomainError(f"degenerate family needs k >= 2, got {k}")
    b = k * k - 1
    c = (k + 1) ** 2 - 1
    for v in (b + 1, c + 1, b * c + 1):
        if perfect_square_root(v) is None:
            raise ConstructionError(
                f"degenerate family k={k}: {v} is not a perfect square")
    return b, c
