import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foursq import conic_point, prove_identities
from foursq import forms
from foursq.symbolic import BiPoly, reduce

X = BiPoly({(1, 0): 1})
Y = BiPoly({(0, 1): 1})
ONE = BiPoly.const(1)
HOM = BiPoly(forms.CONIC_FORM)
RELATION = HOM - ONE


def test_mul_difference_of_squares():
    assert (X + Y) * (X - Y) == X * X - Y * Y


def test_pow_zero_is_one():
    assert HOM ** 0 == ONE
    assert BiPoly() ** 0 == ONE


def test_zero_polynomial_is_canonical():
    assert (X - X).is_zero()
    assert BiPoly({(1, 1): 0}).is_zero()
    assert X * BiPoly() == BiPoly()
    assert (X * 0).is_zero() and (0 * X).is_zero()


def test_int_operands_are_constants():
    # forms.triple_conditions adds and subtracts ints on BiPolys
    assert X + 1 == X + ONE
    assert X - 2 == X - BiPoly.const(2)


def test_number_plus_poly():
    assert 1 + X == X + 1
    assert Fraction(1, 2) + Y == Y + Fraction(1, 2)


def test_number_minus_poly():
    assert 1 - X == -(X - 1)
    assert (3 - X).evaluate(5, 0) == -2


def test_poly_equals_number():
    assert BiPoly.const(3) == 3
    assert 3 == BiPoly.const(3)
    assert X * Fraction(2, 3) * 0 == 0
    assert BiPoly.const(Fraction(1, 2)) == Fraction(1, 2)
    assert BiPoly.const(3) != 4 and X != 1
    assert (X == "x") is False


def test_scale_and_rational_coefficients():
    half = X * Fraction(1, 2)
    assert half + half == X
    assert (Fraction(3, 2) * Y).evaluate(0, 2) == 3


def _multinomial_expand(power):
    """Independent expansion of (x^2 - 4xy + y^2)^power by multinomials."""
    out = {}
    for i in range(power + 1):
        for j in range(power + 1 - i):
            k = power - i - j
            coef = (math.factorial(power)
                    // (math.factorial(i) * math.factorial(j) * math.factorial(k))
                    * (-4) ** j)
            mono = (2 * i + j, j + 2 * k)
            out[mono] = out.get(mono, 0) + coef
    return BiPoly({m: Fraction(c) for m, c in out.items() if c})


def test_pow_hom_5_against_multinomial_oracle():
    h5 = HOM ** 5
    assert h5 == _multinomial_expand(5)
    assert max(i + j for i, j in h5.terms) == 10
    assert h5.terms[(10, 0)] == 1
    # every degree-10 monomial survives: no cross-cancellation occurs
    assert len(h5.terms) == 11


def test_reduce_relation_to_zero():
    assert reduce(RELATION).is_zero()


def test_reduce_x_squared():
    nf = reduce(X * X)
    assert nf == BiPoly({(0, 0): 1, (0, 2): -1, (1, 1): 4})  # 1 - y^2 + 4xy
    assert nf.evaluate(4, 1) == 16


def test_reduce_a_minus_A_squared_plus_four():
    a = BiPoly(forms.ELEM_A)
    A = BiPoly(forms.A_FORM)
    assert reduce(a - A * A - BiPoly.const(4)).is_zero()


def _random_poly(rng, max_deg=4, max_terms=6):
    terms = {}
    for _ in range(rng.randrange(0, max_terms + 1)):
        mono = (rng.randrange(0, max_deg + 1), rng.randrange(0, max_deg + 1))
        terms[mono] = Fraction(rng.randrange(-9, 10))
    return BiPoly(terms)


def test_ring_axioms_randomized():
    rng = random.Random(1234)
    for _ in range(1_000):
        p = _random_poly(rng)
        q = _random_poly(rng)
        r = _random_poly(rng)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p + q == q + p
        assert p * q == q * p


def test_reduce_is_idempotent_randomized():
    rng = random.Random(77)
    for _ in range(200):
        p = _random_poly(rng, max_deg=5)
        nf = reduce(p)
        assert all(i <= 1 for i, _ in nf.terms)  # c0(y) + c1(y)*x
        assert reduce(nf) == nf


def test_reduce_is_ring_homomorphism_randomized():
    rng = random.Random(78)
    for _ in range(200):
        p = _random_poly(rng)
        q = _random_poly(rng)
        assert reduce(p * q) == reduce(reduce(p) * reduce(q))
        assert reduce(p + q) == reduce(reduce(p) + reduce(q))


@given(st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 4)),
    st.integers(-9, 9), max_size=6))
@settings(max_examples=200, deadline=None)
def test_reduce_agrees_on_conic_points(terms):
    p = BiPoly({m: Fraction(c) for m, c in terms.items()})
    nf = reduce(p)
    assert all(i <= 1 for i, _ in nf.terms)
    for n in range(-6, 7):
        pt = conic_point(n)
        assert p.evaluate(pt.x, pt.y) == nf.evaluate(pt.x, pt.y)


def test_transcribed_forms_reduce_consistently_on_conic_points():
    for table in (forms.ELEM_A, forms.ROOT_R, forms.ELEM_B, forms.ELEM_C,
                  forms.ROOT_S, forms.COMP_R, forms.COMP_B, forms.COMP_C,
                  forms.COMP_S):
        p = BiPoly(table)
        nf = reduce(p)
        for n in range(-6, 7):
            pt = conic_point(n)
            assert p.evaluate(pt.x, pt.y) == nf.evaluate(pt.x, pt.y)


def test_prove_identities_all_pass():
    report = prove_identities()
    assert report.core_ok
    assert (report.core_passed, report.core_total) == (8, 8)
    for name in [f"I{k}" for k in range(1, 9)]:
        item = report[name]
        assert item.passed, f"{name} failed with residual {item.residual}"
        assert item.residual is None


def test_identity_probe_holds_before_reduction():
    # the homogenized abc+1 = s^2 combination vanishes as a raw polynomial
    report = prove_identities()
    i9 = report["I9"]
    assert i9.passed
    assert i9.note == "holds as an exact polynomial identity"


@pytest.mark.parametrize("conic,passed,note", [
    # 1 written as a constant: abc+1-s^2 vanishes only modulo the conic
    ({(0, 0): 1}, True, "holds only after reduction"),
    # 2 in place of 1 leaves abc+2^5-s^2 = 31 on the conic
    ({(0, 0): 2}, False, ""),
])
def test_identity_probe_notes(monkeypatch, conic, passed, note):
    monkeypatch.setattr(forms, "CONIC_FORM", conic)
    i9 = prove_identities()["I9"]
    assert (i9.passed, i9.note) == (passed, note)
    assert (i9.residual is None) == passed
    if not passed:
        assert i9.residual == BiPoly.const(31)


def test_companion_root_numeric_identity():
    assert prove_identities()["I10"].passed


def test_companion_root_mutation_fails_I10(monkeypatch):
    # 1 more in COMP_R's constant term leaves the gap 2*r lower by 2
    monkeypatch.setattr(forms, "COMP_R",
                        _perturb(forms.COMP_R, (0, 0), Fraction(1)))
    mutated = prove_identities()
    assert not mutated["I10"].passed
    assert mutated["I10"].residual == BiPoly.const(-2)
    assert mutated.core_ok  # I10 is outside the main family's chain


def _perturb(table, mono, delta):
    new = dict(table)
    new[mono] = new.get(mono, Fraction(0)) + delta
    return new


def _mutate_main(monkeypatch, key, table):
    """Swap the main row's table `key` (one of a, r, b, c, s) for `table`."""
    row = dict(zip("arbcs", forms.FAMILIES["main"]), **{key: table})
    monkeypatch.setitem(forms.FAMILIES, "main", tuple(row.values()))


@pytest.mark.parametrize("key,base,mono", [
    ("r", forms.ROOT_R, (3, 0)),   # cubic coefficient of the ab-root form
    ("b", forms.ELEM_B, (0, 4)),   # quartic tail of b
    ("s", forms.ROOT_S, (5, 0)),   # leading coefficient of the abc-root form
])
def test_single_coefficient_mutations_are_caught(monkeypatch, key, base, mono):
    _mutate_main(monkeypatch, key, _perturb(base, mono, Fraction(1)))
    mutated = prove_identities()
    assert not mutated.core_ok
    failed = [it for it in mutated.items
              if not it.passed and it.name in {f"I{k}" for k in range(1, 9)}]
    assert failed
    assert (mutated.core_passed, mutated.core_total) == (8 - len(failed), 8)
    assert all(it.residual is not None and not it.residual.is_zero()
               for it in failed)


def test_mutation_off_by_one_in_r_cubic_fails_I1(monkeypatch):
    _mutate_main(monkeypatch, "r", _perturb(forms.ROOT_R, (3, 0), 1))
    mutated = prove_identities()
    assert not mutated["I1"].passed
    assert mutated["I1"].residual is not None


def _companion_residues(overrides=None):
    """Normal forms of the five triple conditions on the companion row of
    `forms.FAMILIES` and of its r-recurrence; all zero when the COMP_*
    tables are right."""
    t = dict(zip("arbcs", forms.FAMILIES["companion"]), **(overrides or {}))
    a, r, b, c, s = (BiPoly(t[k]) for k in "arbcs")
    A = BiPoly(forms.A_FORM)
    recurrence = 2 * r - (A * A * BiPoly(forms.R2_PREV_FORM)
                          - 2 * BiPoly(forms.A_PREV_FORM) - 4)
    return [reduce(diff)
            for diff in (*forms.triple_conditions(a, r, b, c, s), recurrence)]


def test_companion_identities_reduce_to_zero():
    # ab+1 = r^2, c = a+b+2r, ac+1 = (a+r)^2, bc+1 = (b+r)^2, abc+1 = s^2
    # and 2r = A^2*(2R_prev) - 2A_prev - 4, in the quotient ring
    assert all(nf.is_zero() for nf in _companion_residues())


@pytest.mark.parametrize("key,base,mono", [
    ("r", forms.COMP_R, (0, 3)),
    ("b", forms.COMP_B, (1, 3)),
    ("c", forms.COMP_C, (0, 0)),
    ("s", forms.COMP_S, (0, 5)),
])
def test_companion_single_coefficient_mutations_are_caught(key, base, mono):
    residues = _companion_residues({key: _perturb(base, mono, Fraction(1))})
    assert any(not nf.is_zero() for nf in residues)


# A reference ring on dicts of Fractions, written apart from BiPoly: every
# coefficient is a Fraction of its own, and the reduction rewrites one
# monomial x^i y^j with i >= 2 at a time.

def _ref_add(p, q):
    out = dict(p)
    for m, c in q.items():
        out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def _ref_neg(p):
    return {m: -c for m, c in p.items()}


def _ref_mul(p, q):
    out = {}
    for (i1, j1), c1 in p.items():
        for (i2, j2), c2 in q.items():
            m = (i1 + i2, j1 + j2)
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def _ref_pow(p, k):
    out = {(0, 0): Fraction(1)}
    for _ in range(k):
        out = _ref_mul(out, p)
    return out


def _ref_reduce(p):
    out = dict(p)
    while True:
        high = [m for m in out if m[0] >= 2]
        if not high:
            return {m: c for m, c in out.items() if c}
        i, j = high[0]
        c = out.pop((i, j))
        # x^i y^j = x^(i-2) y^j (4xy - y^2 + 1) on the conic
        for m, k in (((i - 1, j + 1), 4), ((i - 2, j + 2), -1),
                     ((i - 2, j), 1)):
            out[m] = out.get(m, 0) + k * c


def _ref_repr(p):
    if not p:
        return "BiPoly(0)"
    parts = []
    for i, j in sorted(p, key=lambda m: (-(m[0] + m[1]), -m[0])):
        mono = (f"x^{i}" if i > 1 else "x" * i) + (f"y^{j}" if j > 1
                                                    else "y" * j)
        parts.append(f"{p[(i, j)]}{'*' if mono else ''}{mono}")
    return "BiPoly(" + " + ".join(parts) + ")"


def _assert_canonical(poly):
    assert poly.den > 0
    assert all(type(c) is int and c for c in poly.num.values())
    assert math.gcd(poly.den, *poly.num.values()) == 1


_MONO = st.tuples(st.integers(0, 4), st.integers(0, 3))
_RATIONAL_TABLE = st.dictionaries(_MONO, st.builds(
    Fraction, st.integers(-9, 9), st.sampled_from([1, 2, 3, 4, 6])),
    max_size=5)
_INTEGER_TABLE = st.dictionaries(_MONO, st.integers(-9, 9), max_size=4)


@given(_RATIONAL_TABLE, _RATIONAL_TABLE, _INTEGER_TABLE, st.integers(0, 3))
@settings(max_examples=300, deadline=None)
def test_ring_matches_the_fraction_reference(p, q, r, k):
    P, Q, R = BiPoly(p), BiPoly(q), BiPoly(r)
    p = {m: c for m, c in p.items() if c}
    q = {m: c for m, c in q.items() if c}
    r = {m: Fraction(c) for m, c in r.items() if c}
    den = math.lcm(*(c.denominator for c in p.values()))
    relation = _ref_add(forms.CONIC_FORM, {(0, 0): Fraction(-1)})
    cases = [
        (P, p),
        (P + Q, _ref_add(p, q)),
        (P - Q, _ref_add(p, _ref_neg(q))),
        (P * Q, _ref_mul(p, q)),
        (P ** k, _ref_pow(p, k)),
        (reduce(P), _ref_reduce(p)),
        (reduce(P * Q), _ref_reduce(_ref_mul(p, q))),
        # results that cancel to zero
        (P - P, {}),
        (P + (-P), {}),
        (reduce(P * RELATION), _ref_reduce(_ref_mul(p, relation))),
        # results whose denominator cancels to 1
        (P + (R - P), _ref_add(p, _ref_add(r, _ref_neg(p)))),
        (P * den, _ref_mul(p, {(0, 0): Fraction(den)})),
    ]
    for got, want in cases:
        _assert_canonical(got)
        assert got.terms == want
        assert repr(got) == _ref_repr(want)
    assert (P + (R - P)).den == (P * den).den == 1
