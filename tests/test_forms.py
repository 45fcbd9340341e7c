import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from foursq import BiPoly, conic_point, forms, sequences

# every table of both family rows, and the sequences' P, A and R forms
FAMILY_TABLES = {f"{variant}-{what}": table
                 for variant, row in forms.FAMILIES.items()
                 for what, table in zip("arbcs", row)}
# each as its integral form, a BiPoly (the sequences hold theirs as one)
INTEGRAL_FORMS = {**{name: BiPoly(table)
                     for name, table in FAMILY_TABLES.items()},
                  **{f"seq-{name}": poly
                     for name, poly in sequences._FORMS.items()}}


def test_conic_mod_2_leaves_two_residues():
    # x^2 - 4xy + y^2 = 1 reduces mod 2 to x + y = 1 (x^2 = x mod 2), so
    # every conic point is (1, 0) or (0, 1) mod 2
    on_conic = {(x, y) for x in (0, 1) for y in (0, 1)
                if forms.evaluate(forms.CONIC_FORM, x, y) % 2 == 1}
    assert on_conic == {(1, 0), (0, 1)}


@pytest.mark.parametrize("name", sorted(INTEGRAL_FORMS))
def test_tables_are_integral_on_the_conic(name):
    # A finite proof that the table's value is an integer at every conic
    # point: den is 1 or 2, and for den 2 the integer numerator, whose parity
    # depends only on x and y mod 2, is even at both residues of the conic.
    poly = INTEGRAL_FORMS[name]
    assert poly.den in (1, 2)
    if poly.den == 2:
        for x, y in ((1, 0), (0, 1)):
            basis = [[x ** i * y ** j for j in range(forms.FAMILY_DEGREE + 1)]
                     for i in range(forms.FAMILY_DEGREE + 1)]
            assert poly.numerator_at(basis) % 2 == 0, (x, y)


@pytest.mark.parametrize("name", sorted(FAMILY_TABLES))
def test_family_tables_stay_within_the_family_degree(name):
    # reducing x^2 -> 4xy - y^2 + 1 never raises the total degree, so a
    # table of total degree at most FAMILY_DEGREE has a normal form within
    # the basis y^0..y^d, x*y^0..x*y^(d-1) that every IndexPoint holds
    assert max(i + j for i, j in FAMILY_TABLES[name]) <= forms.FAMILY_DEGREE


def _naive(table, x, y):
    return sum((Fraction(coef) * x ** i * y ** j
                for (i, j), coef in table.items()), Fraction(0))


EVALUATED_TABLES = {
    **FAMILY_TABLES, "conic": forms.CONIC_FORM,
    **{f"abc-factor-{k}": t for k, t in enumerate(forms.ABC_FACTORS)},
    "A": forms.A_FORM, "A-next": forms.A_NEXT_FORM,
    "A-prev": forms.A_PREV_FORM, "R2": forms.R2_FORM,
    "R2-prev": forms.R2_PREV_FORM, "empty": {},
}


def _points():
    rng = random.Random(20)
    points = [(0, 0), (1, 0), (0, 1), (-1, -1), (1, 1)]
    for _ in range(8):
        pt = conic_point(rng.randint(-50, 50))  # |x|, |y| up to about 10^29
        points.append((pt.x, pt.y))
    for bound in (10, 10 ** 6, 10 ** 30):
        points += [(rng.randint(-bound, bound), rng.randint(-bound, bound))
                   for _ in range(4)]
    return points


POINTS = _points()


@pytest.mark.parametrize("name", sorted(EVALUATED_TABLES))
def test_evaluate_equals_the_naive_rational_sum(name):
    table = EVALUATED_TABLES[name]
    for x, y in POINTS:
        assert forms.evaluate(table, x, y) == _naive(table, x, y), (x, y)


@pytest.mark.parametrize("name", sorted(EVALUATED_TABLES))
def test_bipoly_evaluate_equals_the_naive_rational_sum(name):
    table = EVALUATED_TABLES[name]
    poly = BiPoly(table)
    degree = max((i + j for i, j in table), default=0)
    for x, y in POINTS:
        assert poly.evaluate(x, y) == _naive(table, x, y), (x, y)
        basis = [[x ** i * y ** j for j in range(degree + 1)]
                 for i in range(degree + 1)]
        assert Fraction(poly.numerator_at(basis), poly.den) == _naive(
            table, x, y), (x, y)


def _direct_conditions(a, r, b, c, s):
    """The five conditions as they read, one product per square."""
    return (a * b + 1 - r * r, c - a - b - 2 * r,
            a * c + 1 - (a + r) * (a + r), b * c + 1 - (b + r) * (b + r),
            a * b * c + 1 - s * s)


@given(*[st.integers(min_value=-10 ** 40, max_value=10 ** 40)] * 5)
@settings(max_examples=300)
@example(5, 6, 7, 24, 29)  # a triple: every residual is 0
@example(5, 6, 7, 25, 29)  # d2 = 1 moves conditions 2 to 5 only
@example(8, -3, 1, 15, 11)  # the main family at n = -1, r negative
def test_triple_conditions_equal_the_direct_expansions_on_ints(a, r, b, c, s):
    assert forms.triple_conditions(a, r, b, c, s) == _direct_conditions(
        a, r, b, c, s)


# a row of five polynomials that is no triple, so d1 and d2 are nonzero
NON_TRIPLE_ROW = ({(1, 0): 1}, {(0, 1): 2, (0, 0): -1}, {(2, 1): 3},
                  {(1, 1): Fraction(1, 2), (0, 3): 4}, {(3, 0): -5})


@pytest.mark.parametrize("row", [*forms.FAMILIES.values(), NON_TRIPLE_ROW],
                         ids=[*forms.FAMILIES, "non-triple"])
def test_triple_conditions_equal_the_direct_expansions_on_bipolys(row):
    # equal as polynomials, before any reduction modulo the conic, so the
    # prover reduces the same residuals whichever way they are computed
    polys = [BiPoly(table) for table in row]
    residuals = forms.triple_conditions(*polys)
    assert residuals == _direct_conditions(*polys)
    if row is NON_TRIPLE_ROW:
        assert not residuals[0].is_zero() and not residuals[1].is_zero()
