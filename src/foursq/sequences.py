"""The sequences P, A, R, two-sided, as values at points of the conic.

The point of index n is (x, y) = (P(n+1), P(n)).  It is read off the power
(2+sqrt(3))^n = u + v*sqrt(3): P(n) = v, and (2+sqrt(3))^(n+1) =
(2u + 3v) + (u + 2v)*sqrt(3) gives P(n+1) = u + 2v.  A(n) = x + 2y and
R(n) = (5x - 3y - 1)/2 are linear forms from `forms`, evaluated as
`symbolic.BiPoly` numerators summed over 1, x and y (`numerator_at`) and
divided once by the denominator.  A range of indices
starts at the point of its first index and moves forward by the conic step
(x, y) -> (4x - y, x).
Values are kept signed; A(-1) = -2, A(-2) = -9, ... even though tables of
the negative branch are often quoted unsigned.
"""

from typing import NamedTuple

from . import forms
from .symbolic import BiPoly


class _Point(NamedTuple):
    x: int
    y: int


class ConicPoint(_Point):
    """Integer point (x, y) with x^2 - 4xy + y^2 = 1, the family parameter.

    Construction checks the conic (a `NamedTuple` body may not define
    `__new__`, hence the private base); `_make`, and so `_replace`, go
    through the same check.
    """

    __slots__ = ()

    def __new__(cls, x: int, y: int):
        q = x * x - 4 * x * y + y * y
        if q != 1:
            raise ValueError(f"({x}, {y}) is not on x^2-4xy+y^2=1 (got {q})")
        return super().__new__(cls, x, y)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class PellNumber(NamedTuple):
    """u + v*sqrt(3); powers of 2+sqrt(3) have unit norm u^2 - 3v^2 = 1."""

    u: int
    v: int


def conic_point(n: int) -> ConicPoint:
    """The point (P(n+1), P(n)): (u + 2v, v) for (2+sqrt(3))^n = u + v*sqrt(3)."""
    w = binet_exact(n)
    return ConicPoint(w.u + 2 * w.v, w.v)


# Each sequence as a linear form in the conic point of the same index; the
# denominators divide the values on the conic, as tests/test_forms.py proves.
_FORMS = {name: BiPoly(table) for name, table in (
    ("P", {(0, 1): 1}), ("A", forms.A_FORM),
    ("R", {mono: coef / 2 for mono, coef in forms.R2_FORM.items()}))}


def _value(form: BiPoly, x: int, y: int) -> int:
    return form.numerator_at(((1, y), (x,))) // form.den


def pell_P(n: int) -> int:
    """P(0)=0, P(1)=1, P(n) = 4P(n-1) - P(n-2); odd under negation."""
    return conic_point(n).y


def seq_A(n: int) -> int:
    """A(0)=1, A(1)=6, A(n+1) = 4A(n) - A(n-1)."""
    pt = conic_point(n)
    return _value(_FORMS["A"], pt.x, pt.y)


def seq_R(n: int) -> int:
    """R(0)=2, R(1)=8, R(n) = 4R(n-1) - R(n-2) + 1."""
    pt = conic_point(n)
    return _value(_FORMS["R"], pt.x, pt.y)


def sequence_values(name: str, lo: int, hi: int) -> list:
    """Values of sequence `name` over lo..hi inclusive: the point of lo, then
    one forward conic step per index."""
    if name not in _FORMS:
        raise ValueError(f"unknown sequence {name!r}; expected one of P, A, R")
    if lo > hi:
        raise ValueError(f"empty index range {lo}..{hi}")
    form, pt = _FORMS[name], conic_point(lo)
    x, y = pt.x, pt.y
    out = []
    for _ in range(lo, hi + 1):
        out.append(_value(form, x, y))
        x, y = 4 * x - y, x
    return out


def binet_exact(n: int) -> PellNumber:
    """(2+sqrt(3))^n as u + v*sqrt(3), by binary exponentiation over Z[sqrt(3)].

    Negative n uses the inverse 2-sqrt(3).  The v component is P(n); this is
    the one route from an index to its conic point (`conic_point`).
    """
    if n < 0:
        base_u, base_v = 2, -1
        n = -n
    else:
        base_u, base_v = 2, 1
    u, v = 1, 0
    while n:
        if n & 1:
            u, v = u * base_u + 3 * v * base_v, u * base_v + v * base_u
        base_u, base_v = (base_u * base_u + 3 * base_v * base_v,
                          2 * base_u * base_v)
        n >>= 1
    return PellNumber(u, v)
