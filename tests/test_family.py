import doctest
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import foursq
from foursq import (ConstructionError, NotDiophantinePair, degenerate_family,
                    family, forms, make_companion, make_main, recurrence_r,
                    regular_complete, seq_A, seq_R, verify_four)
from foursq.certify import Certificate, DomainError
from foursq.sequences import ConicPoint

REPO = Path(__file__).resolve().parent.parent


MAIN_ROWS = {
    # n: (a, r, b, c, s, admissible)
    0: (5, 6, 7, 24, 29, True),
    1: (40, 309, 2387, 3045, 17051, True),
    2: (533, 16483, 509736, 543235, 12148709, True),
    3: (7400, 865651, 101263737, 103002439, 8785502149, True),
    4: (103045, 45133154, 19768077927, 19858447280, 6360164202601, True),
    5: (1435208, 2347998213, 3841321681771, 3846019113405,
        4604722693427179, True),
    -1: (8, 3, 1, 15, 11, False),
    -2: (85, 239, 672, 1235, 8399, True),
    -3: (1160, 13861, 165627, 194509, 6113141, True),
    -4: (16133, 741898, 34117191, 35617120, 4427653231, True),
}


@pytest.mark.parametrize("n", sorted(MAIN_ROWS))
def test_make_main_frozen_rows(n):
    t = make_main(n)
    assert (t.a, t.r, t.b, t.c, t.s, t.admissible) == MAIN_ROWS[n]
    assert t.variant == "main"


def test_make_main_invariants_window():
    for n in range(-8, 9):
        t = make_main(n)
        assert t.a * t.b + 1 == t.r * t.r
        assert t.c == t.a + t.b + 2 * t.r
        assert t.a * t.c + 1 == (t.a + t.r) ** 2
        assert t.b * t.c + 1 == (t.b + t.r) ** 2
        assert t.s is not None and t.a * t.b * t.c + 1 == t.s * t.s
        assert t.c - t.b == t.a + 2 * t.r
        assert t.a * t.b == t.r * t.r - 1
        if t.admissible:
            out = verify_four(t.a, t.b, t.c)
            assert out.ok
            assert out.certificate == t.certificate()


def test_main_certificate_n0():
    assert make_main(0).certificate() == Certificate(6, 11, 13, 29)


def test_poly_r_matches_recurrence_presentation():
    for n in range(0, 9):
        assert make_main(n).r == recurrence_r(n)


def test_companion_r_matches_sequence_presentation():
    # numeric cross-check of prove's I10, which reduces the same identity
    for n in range(-30, 31):
        assert make_companion(n).r == (seq_A(n) ** 2 * seq_R(n - 1)
                                       - seq_A(n - 1) - 2)


@pytest.mark.parametrize("n,expected", [(0, 6), (2, 16483), (4, 45133154)])
def test_recurrence_r_values(n, expected):
    assert recurrence_r(n) == expected


COMPANION_ROWS = {
    0: (5, 1, 0, 7, False),
    1: (40, 69, 119, 297, True),
    2: (533, 4224, 33475, 42456, True),
    3: (7400, 229251, 7102165, 7568067, True),
    -1: (8, 19, 45, 91, True),
    -2: (85, 1004, 11859, 13952, True),
    -3: (1160, 53301, 2449135, 2556897, True),
    -4: (16133, 2790789, 482768440, 488366151, True),
}


@pytest.mark.parametrize("n", sorted(COMPANION_ROWS))
def test_make_companion_frozen_rows(n):
    t = make_companion(n)
    assert (t.a, t.r, t.b, t.c, t.admissible) == COMPANION_ROWS[n]
    assert t.variant == "companion"


def test_companion_abc_square_as_reduced_in_the_ring():
    # abc+1 = s^2 holds on the whole conic: test_symbolic.py's
    # test_companion_identities_reduce_to_zero reduces abc+1 - s^2 to zero
    # in the quotient ring; these are its first admissible members
    for n in range(1, 7):
        t = make_companion(n)
        assert t.admissible
        assert t.s is not None
        assert t.a * t.b * t.c + 1 == t.s * t.s


def test_companion_divisibility_precondition_wide():
    for n in range(-12, 13):
        make_companion(n)  # must not raise ConstructionError


def test_companion_pair_invariants():
    for n in range(-6, 7):
        t = make_companion(n)
        assert t.a * t.b + 1 == t.r * t.r
        assert t.c == t.a + t.b + 2 * t.r


def test_readme_neither_family_triples():
    # The README says (8, 105, 171), (20, 84, 186) and (3, 133, 176) come
    # from neither family.  Every member of either family has the entry
    # a = A(n)^2 + 4, so only the n with |A(n)| <= isqrt(max entry - 4) can
    # give one of them.  |A(n)| rises with |n| on both sides from
    # |A(0)| = 1 (A and n -> -A(-n) obey x(n+1) = 4x(n) - x(n-1), which
    # keeps a positive rising pair rising, and both start so), so
    # |A(n)| > |n| and those n lie within |n| <= limit.
    neither = [(8, 105, 171), (20, 84, 186), (3, 133, 176)]
    assert 0 < seq_A(0) < seq_A(1) and 0 < -seq_A(-1) < -seq_A(-2)
    limit = math.isqrt(max(max(t) for t in neither) - 4)
    window = [n for n in range(-limit, limit + 1) if abs(seq_A(n)) <= limit]
    assert window == [-2, -1, 0, 1]
    made = {tuple(sorted((t.a, t.b, t.c)))
            for n in window for t in (make_main(n), make_companion(n))}
    assert not made & set(neither)
    # the README's members among the classical triples are found
    assert {(5, 7, 24), (8, 45, 91)} <= made
    for triple in neither:
        assert verify_four(*triple).ok


def test_non_integer_polynomial_value_raises(monkeypatch):
    # bypass the conic check to hit the integrality guard in the constructor;
    # at (0, 0) every normal form is its constant term, and those of the
    # main r, b and c are odd numerators (-5, 31, 31) over 2
    pt = tuple.__new__(ConicPoint, (0, 0))
    monkeypatch.setattr(family, "conic_point", lambda n: pt)
    with pytest.raises(ConstructionError, match="non-integer"):
        make_main(0)


def test_shared_index_points_give_each_variant_its_own_rows():
    # gen's route: one stepped point and power lists per index for both
    # variants, equal to each constructor's own conic_point(n), which the
    # candidates hold as x and y
    for lo, hi in ((-8, 8), (1500, 1503), (-10_000, -9_999)):
        for at in family.index_points(lo, hi):
            assert make_main(at.n, at) == make_main(at.n)
            assert make_companion(at.n, at) == make_companion(at.n)


@pytest.mark.parametrize("variant,k", [(v, k) for v in forms.FAMILIES
                                       for k in range(5)],
                         ids=lambda p: p if isinstance(p, str) else "arbcs"[p])
def test_normal_forms_equal_their_tables_at_each_index_point(variant, k):
    # the constructor sums each table's normal form over the IndexPoint's
    # basis, y^j for j <= d and x*y^j for j <= d - 1 (d = FAMILY_DEGREE);
    # every term must be in it, so a table past d fails here, not in gen
    table, form = forms.FAMILIES[variant][k], family._normal_row(variant)[k]
    for i, j in form.num:
        assert i <= 1 and j <= forms.FAMILY_DEGREE - i, (i, j)
    for lo, hi in ((-60, 60), (1500, 1503), (-10_000, -10_000),
                   (10_000, 10_000)):
        for at in family.index_points(lo, hi):
            basis = (at.y_powers, at.x_y_powers)
            value = Fraction(sum(c * basis[i][j]
                                 for (i, j), c in form.num.items()), form.den)
            assert value == forms.evaluate(table, *at.point), at.n


def test_an_index_point_for_another_index_or_row_is_refused():
    at, = family.index_points(3, 3)
    with pytest.raises(ValueError, match="index 3"):
        make_companion(4, at)
    assert make_companion(3, at) == make_companion(3)


def test_readme_python_examples():
    # each ```python block of the README, fences stripped, run as a doctest
    text = (REPO / "README.md").read_text()
    blocks = list(re.finditer(r"^```python\n(.*?)^```$", text, re.M | re.S))
    assert blocks
    for block in blocks:
        lineno = text.count("\n", 0, block.start(1))
        test = doctest.DocTestParser().get_doctest(
            block.group(1), {}, "README.md", str(REPO / "README.md"), lineno)
        result = doctest.DocTestRunner().run(test)
        assert result.attempted and not result.failed, block.group(1)


@pytest.mark.parametrize("module", [foursq, family],
                         ids=lambda m: m.__name__)
def test_exported_names_resolve(module):
    # `from module import *` raises AttributeError on a name in __all__
    # that the module does not define
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
    exec(f"from {module.__name__} import *", {})


@pytest.mark.parametrize("a,b,c,r", [
    (5, 7, 24, 6), (1, 3, 8, 2), (4, 6, 20, 5),
])
def test_regular_complete(a, b, c, r):
    assert regular_complete(a, b) == (c, r)


def test_regular_complete_rejects_non_pair():
    with pytest.raises(NotDiophantinePair):
        regular_complete(2, 3)


def test_regular_complete_rejects_nonpositive():
    with pytest.raises(DomainError):
        regular_complete(0, 3)


@pytest.mark.parametrize("k,b,c", [(2, 3, 8), (3, 8, 15)])
def test_degenerate_family_values(k, b, c):
    assert degenerate_family(k) == (b, c)


def test_degenerate_family_rejects_small_k():
    with pytest.raises(DomainError):
        degenerate_family(1)


def test_degenerate_family_window():
    for k in range(2, 51):
        b, c = degenerate_family(k)
        assert b * c + 1 == (k * k + k - 1) ** 2
        # a = 1 collapses the four conditions to three
        out = verify_four(1, b, c)
        assert out.ok


OPTIMIZED_INVARIANTS = """
import sys
from foursq import family, forms
from foursq.family import ConstructionError

if not sys.flags.optimize:
    sys.exit("not running under -O")


def broken_c(variant):
    a, r, b, c, s = forms.FAMILIES[variant]
    return {**forms.FAMILIES, variant: (a, r, b, {(0, 0): 7}, s)}


caught = []
square_root = family.perfect_square_root
cases = [
    ("make_main", forms, "FAMILIES", broken_c("main"),
     lambda: family.make_main(1)),
    ("make_companion", forms, "FAMILIES", broken_c("companion"),
     lambda: family.make_companion(1)),
    ("regular_complete", family, "perfect_square_root",
     lambda v: square_root(v) + 1, lambda: family.regular_complete(5, 7)),
    ("degenerate_family", family, "perfect_square_root", lambda v: None,
     lambda: family.degenerate_family(3)),
]
for name, module, attr, broken, call in cases:
    original = getattr(module, attr)
    setattr(module, attr, broken)
    try:
        call()
    except ConstructionError:
        caught.append(name)
    setattr(module, attr, original)
print(" ".join(caught))
"""


def test_invariant_checks_survive_python_O():
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED_INVARIANTS],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [
        "make_main", "make_companion", "regular_complete", "degenerate_family"]
