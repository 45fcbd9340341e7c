"""Closed-form construction of four-square triples.

Two parametrized families indexed by n (through the conic point
(x, y) = (P(n+1), P(n))):

* the main family, for which abc+1 = s^2 holds identically, and
* the companion family r = A(n)^2 R(n-1) - A(n-1) - 2;

each is a row of a, r, b, c, s tables in `forms.FAMILIES`, evaluated by one
constructor that checks `forms.triple_conditions` on the integers.  The
constructor reads an `IndexPoint`, the conic point of n with the power
lists of its coordinates up to `forms.FAMILY_DEGREE`, enough for either
row; `index_points` steps one along an index range, so that both variants
evaluated at an index share it.

Plus the two elementary constructions: completing a pair (a, b) with
ab+1 = r^2 to c = a + b + 2r, and the degenerate a=1 family b = k^2-1,
c = (k+1)^2 - 1.
"""

from fractions import Fraction
from typing import Iterator, NamedTuple, Optional

from . import forms
from .certify import Certificate, DomainError, perfect_square_root
from .sequences import ConicPoint, conic_point, seq_A, seq_R

__all__ = [
    "TripleCandidate", "Certificate", "NotDiophantinePair", "ConstructionError",
    "IndexPoint", "index_points", "make_main", "make_companion", "recurrence_r",
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


# variant -> (its forms.FAMILIES row, that row's integral forms); rebuilt
# when the row object changes
_INTEGRAL_ROWS = {}


def _integral_row(variant: str) -> tuple:
    row = forms.FAMILIES[variant]
    cached = _INTEGRAL_ROWS.get(variant)
    if cached is None or cached[0] is not row:
        cached = _INTEGRAL_ROWS[variant] = (
            row, tuple(forms.integral_form(table) for table in row))
    return cached[1]


class IndexPoint(NamedTuple):
    """The conic point of index n with the power lists [1, x, ..., x^d] and
    [1, y, ..., y^d] of its coordinates, d = `forms.FAMILY_DEGREE`: all
    that the constructor of either family row reads."""

    n: int
    point: ConicPoint
    xs: list
    ys: list


def index_points(start: int, stop: int) -> Iterator[IndexPoint]:
    """The IndexPoint of each index start..stop: conic_point(start), then
    one conic step (x, y) -> (4x - y, x) per index, each point checked on
    the conic by `ConicPoint`."""
    pt = None
    for n in range(start, stop + 1):
        pt = (conic_point(n) if pt is None
              else ConicPoint(4 * pt.x - pt.y, pt.x))
        yield IndexPoint(n, pt, forms.powers(pt.x, forms.FAMILY_DEGREE),
                         forms.powers(pt.y, forms.FAMILY_DEGREE))


def _construct(n: int, variant: str, at: Optional[IndexPoint]
               ) -> TripleCandidate:
    """a, r, b, c, s from the `forms.FAMILIES` row of `variant` at the
    point of index n (`at`, or the one of index_points(n, n) when it is
    None), every invariant checked with `if` (not `assert`, so also under
    python -O)."""
    if at is None:
        at, = index_points(n, n)
    elif at.n != n:
        raise ValueError(f"the IndexPoint of index {at.n} is not the one of "
                         f"index {n}")
    pt = at.point
    values = []
    for what, (den, terms) in zip("arbcs", _integral_row(variant)):
        num = forms.integral_value(terms, at.xs, at.ys)
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


def make_main(n: int, at: Optional[IndexPoint] = None) -> TripleCandidate:
    """Evaluate the proved family at index n, with every invariant checked;
    `at`, the IndexPoint of n from `index_points`, spares rebuilding it."""
    return _construct(n, "main", at)


def make_companion(n: int, at: Optional[IndexPoint] = None
                   ) -> TripleCandidate:
    """Evaluate the companion family at index n from its `forms` tables,
    with the same invariants checked as for the main family; `at` as for
    `make_main`."""
    return _construct(n, "companion", at)


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
