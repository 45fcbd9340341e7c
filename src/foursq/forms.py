"""Coefficient tables for the closed-form family polynomials in x, y.

Every table maps (x_degree, y_degree) -> exact rational coefficient.  These
are the single source of truth for both families and the sequences A, R:
`family` and `sequences` evaluate them at conic points and `symbolic` checks
the identities between them, so a transcription slip fails both routes.
`FAMILIES` lists each family's row of tables and `triple_conditions` the five
conditions every member meets.

Tables are evaluated over the integers: `integral_form` scales a table by
the common denominator of its coefficients once, and `integral_value` sums
that form at a point from the power lists of x and y, which every family
table shares up to FAMILY_DEGREE; the caller divides by the denominator
once.
`evaluate` does all three for one table.

The parameter point (x, y) runs over integer solutions of x^2 - 4xy + y^2 = 1.
"""

import math
from fractions import Fraction as F

# x^2 - 4xy + y^2, equal to 1 on the parameter conic.
CONIC_FORM = {(2, 0): F(1), (1, 1): F(-4), (0, 2): F(1)}

# a = 5x^2 - 12xy + 8y^2
ELEM_A = {(2, 0): F(5), (1, 1): F(-12), (0, 2): F(8)}

# r = 17/2 x^3 - 33/2 x^2 y - 5/2 x^2 + 14 x y^2 + 6 x y - 7 y^3 - 4 y^2,
# the root of ab+1; half-integer terms combine to an integer on the conic.
ROOT_R = {
    (3, 0): F(17, 2), (2, 1): F(-33, 2), (2, 0): F(-5, 2),
    (1, 2): F(14), (1, 1): F(6), (0, 3): F(-7), (0, 2): F(-4),
}

# b and c share the quartic part; the cubic part flips sign between them.
_QUARTIC = {(4, 0): F(31, 2), (3, 1): F(-55, 2), (2, 2): F(75, 2),
            (1, 3): F(-25), (0, 4): F(8)}
_CUBIC = {(3, 0): F(17, 2), (2, 1): F(-33, 2), (1, 2): F(14), (0, 3): F(-7)}

ELEM_B = {**_QUARTIC, **{k: -v for k, v in _CUBIC.items()}}
ELEM_C = {**_QUARTIC, **_CUBIC}

# s = (22y^5 - 24xy^4 - 8x^2y^3 + 84x^3y^2 - 119x^4y + 58x^5) / 2,
# the root of abc+1 (sign normalized by the caller).
ROOT_S = {
    (0, 5): F(22, 2), (1, 4): F(-24, 2), (2, 3): F(-8, 2),
    (3, 2): F(84, 2), (4, 1): F(-119, 2), (5, 0): F(58, 2),
}

# abc factors as 1/4 * (3y+8x) * a * cubic * quartic; all four factors below.
ABC_SCALE = F(1, 4)
ABC_FACTORS = (
    {(1, 0): F(8), (0, 1): F(3)},
    ELEM_A,
    {(0, 3): F(2), (1, 2): F(-2), (2, 1): F(-2), (3, 0): F(3)},
    {(0, 4): F(10), (1, 3): F(-22), (2, 2): F(50), (3, 1): F(-39), (4, 0): F(28)},
)

# Linear forms tying the sequences to the conic coordinates:
#   A(n) = x + 2y          2*R(n)   = 5x - 3y - 1
#   A(n+1) = 6x - y        2*R(n-1) = 3x - 7y - 1
#   A(n-1) = 9y - 2x
# (numerically validated over a wide index window before being used in proofs)
A_FORM = {(1, 0): F(1), (0, 1): F(2)}
A_NEXT_FORM = {(1, 0): F(6), (0, 1): F(-1)}
A_PREV_FORM = {(0, 1): F(9), (1, 0): F(-2)}
R2_FORM = {(1, 0): F(5), (0, 1): F(-3), (0, 0): F(-1)}
R2_PREV_FORM = {(1, 0): F(3), (0, 1): F(-7), (0, 0): F(-1)}


# Companion family: a is ELEM_A = A(n)^2 + 4, r = A(n)^2 R(n-1) - A(n-1) - 2,
# b = (r^2-1)/a, c = a+b+2r and s the root of abc+1 (sign normalized by the
# caller), all written in x, y; b, c and s are reduced to x-degree 1 with
# x^2 = 4xy - y^2 + 1.
COMP_R = {
    (3, 0): F(3, 2), (2, 1): F(5, 2), (1, 2): F(-8), (0, 3): F(-14),
    (2, 0): F(-1, 2), (1, 1): F(-2), (0, 2): F(-2), (1, 0): F(2),
    (0, 1): F(-9), (0, 0): F(-2),
}

# As for the main family, b and c share an even part and flip the odd part.
_COMP_EVEN = {(0, 4): F(42), (1, 3): F(55, 2), (1, 1): F(15, 2),
              (0, 2): F(45, 2), (0, 0): F(7, 2)}
_COMP_ODD = {(0, 3): F(45, 2), (1, 2): F(-49, 2), (0, 1): F(1, 2),
             (1, 0): F(-7, 2)}

COMP_B = {**_COMP_EVEN, **_COMP_ODD}
COMP_C = {**_COMP_EVEN, **{k: -v for k, v in _COMP_ODD.items()}}

COMP_S = {
    (0, 5): F(113, 2), (1, 4): F(207), (0, 3): F(109), (1, 2): F(44),
    (0, 1): F(31, 2), (1, 0): F(1),
}

# Each family as its a, r, b, c, s tables, in that order; both share a.
FAMILIES = {"main": (ELEM_A, ROOT_R, ELEM_B, ELEM_C, ROOT_S),
            "companion": (ELEM_A, COMP_R, COMP_B, COMP_C, COMP_S)}

# The highest x- or y-degree of any table in FAMILIES, from the quintic s
# forms: the power lists of x and y that evaluate every family row.
FAMILY_DEGREE = 5


def triple_conditions(a, r, b, c, s) -> tuple:
    """ab+1-r^2, c-a-b-2r, ac+1-(a+r)^2, bc+1-(b+r)^2 and abc+1-s^2: all
    zero exactly when (a, b, c) is a regular triple with roots r and s.

    Works on ints (the constructor's checks) and on `symbolic.BiPoly` (the
    prover's identities).  Four big products make all five: ab, r^2, ab*c
    and s^2.  With d1 = ab+1-r^2 and d2 = c-a-b-2r, substituting
    c = a+b+2r+d2 gives ac+1-(a+r)^2 = d1 + a*d2 and
    bc+1-(b+r)^2 = d1 + b*d2, an identity in any commutative ring, so these
    are the same values as the direct expansions, on ints and on BiPolys
    alike; a*d2 and b*d2 are small, as d2 is 0 on every triple."""
    ab = a * b
    d1 = ab + 1 - r * r
    d2 = c - a - b - 2 * r
    return d1, d2, d1 + a * d2, d1 + b * d2, ab * c + 1 - s * s


def integral_form(table: dict) -> tuple:
    """(den, ((i, j, integer coefficient), ...)): the table times the common
    denominator den of its coefficients.  Its value at (x, y) is the integer
    sum of coefficient * x^i * y^j over the terms, divided by den; the empty
    table is (1, ())."""
    den = math.lcm(*(coef.denominator for coef in table.values()))
    return den, tuple((i, j, coef.numerator * (den // coef.denominator))
                      for (i, j), coef in table.items())


def degrees(*integral_forms) -> tuple:
    """The highest x and y degrees over the terms of some integral forms,
    0 where there are none."""
    terms = [term for _, form_terms in integral_forms for term in form_terms]
    return (max((i for i, _, _ in terms), default=0),
            max((j for _, j, _ in terms), default=0))


def powers(v: int, degree: int) -> list:
    """[1, v, v^2, ..., v^degree]."""
    out = [1]
    for _ in range(degree):
        out.append(out[-1] * v)
    return out


def integral_value(terms: tuple, xs: list, ys: list) -> int:
    """The sum of coefficient * x^i * y^j over the terms of an integral form,
    from the power lists xs = powers(x, ...) and ys = powers(y, ...)."""
    return sum(coef * xs[i] * ys[j] for i, j, coef in terms)


def evaluate(table: dict, x: int, y: int) -> F:
    """Exact value of a coefficient table at integer point (x, y): its
    integral form summed over the integers, divided once by its den."""
    form = integral_form(table)
    dx, dy = degrees(form)
    return F(integral_value(form[1], powers(x, dx), powers(y, dy)), form[0])
