import random
from fractions import Fraction

import pytest

from foursq import BiPoly, conic_point, forms, sequences

# every table of both family rows, and the sequences' P, A and R forms
FAMILY_TABLES = {f"{variant}-{what}": table
                 for variant, row in forms.FAMILIES.items()
                 for what, table in zip("arbcs", row)}
SEQUENCE_FORMS = {f"seq-{name}": form
                  for name, form in sequences._FORMS.items()}
INTEGRAL_FORMS = {**{name: forms.integral_form(table)
                     for name, table in FAMILY_TABLES.items()},
                  **SEQUENCE_FORMS}


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
    form = INTEGRAL_FORMS[name]
    den, terms = form
    assert den in (1, 2)
    if den == 2:
        dx, dy = forms.degrees(form)
        for x, y in ((1, 0), (0, 1)):
            num = forms.integral_value(terms, forms.powers(x, dx),
                                       forms.powers(y, dy))
            assert num % 2 == 0, (x, y)


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
    for x, y in POINTS:
        assert poly.evaluate(x, y) == _naive(table, x, y), (x, y)
