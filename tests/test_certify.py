import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foursq import DomainError, isqrt, perfect_square_root, verify_four


@pytest.mark.parametrize("v,root", [
    (0, 0), (1, 1), (2, 1), (3, 1), (4, 2), (361, 19), (32760, 180),
    (10**40, 10**20), (10**40 - 1, 10**20 - 1),
])
def test_isqrt_values(v, root):
    assert isqrt(v) == root


def test_isqrt_rejects_negative():
    with pytest.raises(DomainError):
        isqrt(-1)


def test_isqrt_random_contract_against_stdlib():
    rng = random.Random(20260808)
    for _ in range(10_000):
        v = rng.getrandbits(rng.randrange(1, 257))
        r = isqrt(v)
        assert r * r <= v < (r + 1) * (r + 1)
        assert r == math.isqrt(v)


def test_perfect_square_root_random_contract():
    rng = random.Random(99)
    for _ in range(10_000):
        v = rng.getrandbits(rng.randrange(1, 257)) + 1
        assert perfect_square_root(v * v) == v
        assert perfect_square_root(v * v + 1) is None


@pytest.mark.parametrize("v,expected", [
    (841, 29), (7, None), (1, 1), (0, 0), (-4, None), (2, None),
])
def test_perfect_square_root_values(v, expected):
    assert perfect_square_root(v) == expected


def test_verify_four_known_good():
    out = verify_four(5, 7, 24)
    assert out.ok
    cert = out.certificate
    assert (cert.r_ab, cert.r_ac, cert.r_bc, cert.r_abc) == (6, 11, 13, 29)
    assert out.first_failure is None

    out = verify_four(8, 45, 91)
    assert out.ok
    cert = out.certificate
    assert (cert.r_ab, cert.r_ac, cert.r_bc, cert.r_abc) == (19, 27, 64, 181)


def test_verify_four_failure_order():
    out = verify_four(2, 3, 5)
    assert not out.ok
    assert out.certificate is None
    assert out.first_failure == "ab"
    assert out.failing_value == 7

    # ab passes, ac is the first to fail
    out = verify_four(2, 4, 5)
    assert out.first_failure == "ac"
    assert out.failing_value == 11


def test_verify_four_rejects_nonpositive():
    for bad in ((0, 1, 2), (1, 0, 2), (1, 2, -1)):
        with pytest.raises(DomainError):
            verify_four(*bad)


def _verify_reference(a, b, c):
    """Reference: stdlib isqrt on each condition in order."""
    for name, v in (("ab", a * b + 1), ("ac", a * c + 1),
                    ("bc", b * c + 1), ("abc", a * b * c + 1)):
        r = math.isqrt(v)
        if r * r != v:
            return (False, name, v)
    return (True, None, None)


def test_verify_four_agrees_with_reference():
    rng = random.Random(424242)
    for _ in range(1_000):
        a = rng.randrange(1, 500)
        b = rng.randrange(1, 500)
        c = rng.randrange(1, 500)
        got = verify_four(a, b, c)
        want_ok, want_name, want_value = _verify_reference(a, b, c)
        assert got.ok == want_ok
        assert got.first_failure == want_name
        assert got.failing_value == want_value


@given(st.integers(min_value=0, max_value=10**60))
@settings(max_examples=300, deadline=None)
def test_isqrt_bounds_property(v):
    r = isqrt(v)
    assert r * r <= v < (r + 1) * (r + 1)


@given(st.integers(min_value=0, max_value=10**30))
@settings(max_examples=300, deadline=None)
def test_square_round_trip_property(v):
    assert perfect_square_root(v * v) == v
