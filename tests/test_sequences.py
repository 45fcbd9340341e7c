import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foursq import binet_exact, conic_point, pell_P, seq_A, seq_R
from foursq.sequences import ConicPoint, sequence_values


@pytest.mark.parametrize("n,expected", [
    (0, 0), (1, 1), (2, 4), (3, 15), (4, 56), (5, 209),
    (-1, -1), (-2, -4), (-4, -56),
])
def test_pell_P_values(n, expected):
    assert pell_P(n) == expected


@pytest.mark.parametrize("n,expected", [
    (0, 1), (1, 6), (2, 23), (3, 86), (4, 321),
    (-1, -2), (-2, -9), (-3, -34), (-4, -127),
])
def test_seq_A_values(n, expected):
    assert seq_A(n) == expected


@pytest.mark.parametrize("n,expected", [
    (0, 2), (1, 8), (2, 31), (3, 117), (4, 438),
    (-1, 1), (-2, 3), (-3, 12), (-4, 46),
])
def test_seq_R_values(n, expected):
    assert seq_R(n) == expected


def test_negative_branch_tables_are_unsigned_views():
    # tables of the negative branch quote absolute values
    assert [-seq_A(-n) for n in range(1, 6)] == [2, 9, 34, 127, 474]
    assert [seq_R(-n) for n in range(1, 5)] == [1, 3, 12, 46]


def test_two_sided_recurrences():
    for n in range(-50, 51):
        assert pell_P(n + 1) == 4 * pell_P(n) - pell_P(n - 1)
        assert seq_A(n + 1) == 4 * seq_A(n) - seq_A(n - 1)
        assert seq_R(n + 1) == 4 * seq_R(n) - seq_R(n - 1) + 1


def test_pell_P_odd_symmetry():
    for n in range(0, 51):
        assert pell_P(-n) == -pell_P(n)


@pytest.mark.parametrize("n,u,v", [(1, 2, 1), (2, 7, 4), (-1, 2, -1), (0, 1, 0)])
def test_binet_exact_base_cases(n, u, v):
    got = binet_exact(n)
    assert (got.u, got.v) == (u, v)


def test_binet_matches_recurrence_and_norm():
    # The forward sweep passes P(0) = 0, P(1) = 1, which fixes its start, so
    # it reaches every index by recurrence steps alone; binet_exact (and
    # with it every conic_point) powers 2+sqrt(3) instead.
    sweep = sequence_values("P", -50, 50)
    assert sweep[50:52] == [0, 1]
    for n, p in zip(range(-50, 51), sweep):
        w = binet_exact(n)
        assert w.v == p
        assert w.u * w.u - 3 * w.v * w.v == 1


@pytest.mark.parametrize("n,x,y", [(1, 4, 1), (-1, 0, -1), (5, 780, 209)])
def test_conic_point_values(n, x, y):
    pt = conic_point(n)
    assert (pt.x, pt.y) == (x, y)


def test_conic_point_rejects_off_conic():
    with pytest.raises(ValueError):
        ConicPoint(2, 1)


def test_conic_invariant_and_linear_forms():
    """The five linear forms tying A and R shifts to conic coordinates."""
    for n in range(-50, 51):
        pt = conic_point(n)
        x, y = pt.x, pt.y
        assert x * x - 4 * x * y + y * y == 1
        assert seq_A(n) == x + 2 * y
        assert 2 * seq_R(n) == 5 * x - 3 * y - 1
        assert seq_A(n + 1) == 6 * x - y
        assert seq_A(n - 1) == 9 * y - 2 * x
        assert 2 * seq_R(n - 1) == 3 * x - 7 * y - 1


def test_conic_point_parity():
    # exactly one coordinate even: needed for integrality of the r form
    for n in range(-50, 51):
        pt = conic_point(n)
        assert (pt.x % 2 == 0) != (pt.y % 2 == 0)


def test_sequence_values_windows():
    assert sequence_values("A", 1, 4) == [6, 23, 86, 321]
    assert sequence_values("P", 0, 5) == [0, 1, 4, 15, 56, 209]
    assert sequence_values("R", -4, -1) == [46, 12, 3, 1]
    assert sequence_values("R", 0, 0) == [2]


def test_sequence_values_matches_point_evaluation():
    # far from 0 the sweep's steps and each index's own power must meet
    for lo in (-12, 7517, -7517, 10**4, -10**4):
        hi = lo + 24
        for name, fn in (("P", pell_P), ("A", seq_A), ("R", seq_R)):
            assert sequence_values(name, lo, hi) == [
                fn(n) for n in range(lo, hi + 1)]


def test_sequence_values_rejects_bad_input():
    with pytest.raises(ValueError):
        sequence_values("Q", 0, 1)
    with pytest.raises(ValueError):
        sequence_values("A", 2, 1)


@given(st.integers(min_value=-300, max_value=300))
@settings(max_examples=200, deadline=None)
def test_binet_agrees_with_recurrence_everywhere(n):
    # a sweep from min(n, 0) that passes P(0) = 0, P(1) = 1 steps to P(n)
    lo = min(n, 0)
    sweep = sequence_values("P", lo, max(n, 1))
    assert sweep[-lo:2 - lo] == [0, 1]
    assert binet_exact(n).v == sweep[n - lo]
