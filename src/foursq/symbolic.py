"""Exact bivariate polynomial arithmetic and canonical reduction modulo the
conic relation x^2 - 4xy + y^2 = 1.

The relation is monic of degree 2 in x, so the quotient ring is a free
rank-2 module over Q[y] with basis {1, x}: every polynomial has a unique
normal form c0(y) + c1(y)*x, a `BiPoly` of x-degree at most 1, and two
polynomials agree on the conic iff their normal forms are equal.
`prove_identities` uses this to machine-check the entire identity chain
behind the main family, ending in abc+1 = s^2.
"""

import math
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Tuple

from . import forms

Monomial = Tuple[int, int]  # (x_degree, y_degree)


class BiPoly:
    """Bivariate polynomial over exact rationals, stored sparsely as integer
    numerators over one common denominator.

    `num` maps (x_degree, y_degree) to a nonzero int and `den` is a positive
    int; the polynomial is the sum of num[(i, j)] / den * x^i * y^j.  Every
    BiPoly is in lowest terms (den and the numerators share no factor) and
    has no zero terms, with den 1 for the zero polynomial, so two equal
    polynomials have equal `num` and `den`.

    A coefficient table of int or Fraction coefficients becomes a BiPoly
    through `forms.integral_form`.  The ring operations work on the integer
    numerators and end with one gcd, in `_canonical`; Fractions are made only
    at the edges, by `terms`, `evaluate` and `repr`.  An int or Fraction on
    either side of +, -, * or == is a constant polynomial.
    """

    __slots__ = ("num", "den")

    def __init__(self, terms: Optional[Dict[Monomial, Fraction]] = None):
        self.den, form = forms.integral_form(terms or {})
        self.num: Dict[Monomial, int] = {(i, j): c for i, j, c in form if c}

    @classmethod
    def _canonical(cls, num: Dict[Monomial, int], den: int) -> "BiPoly":
        """num / den in lowest terms, without its zero terms."""
        num = {m: c for m, c in num.items() if c}
        g = math.gcd(den, *num.values())
        if g > 1:
            num = {m: c // g for m, c in num.items()}
            den //= g
        p = cls.__new__(cls)
        p.num, p.den = num, den
        return p

    @classmethod
    def const(cls, v) -> "BiPoly":
        """The constant polynomial v, an int or a Fraction."""
        return cls._canonical({(0, 0): v.numerator}, v.denominator)

    @staticmethod
    def _operand(other) -> Optional["BiPoly"]:
        """other as a BiPoly, or None when it is not a BiPoly or a number."""
        if isinstance(other, BiPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return BiPoly.const(other)
        return None

    @property
    def terms(self) -> Dict[Monomial, Fraction]:
        """The coefficients as Fractions, keyed by (x_degree, y_degree)."""
        return {m: Fraction(c, self.den) for m, c in self.num.items()}

    def is_zero(self) -> bool:
        return not self.num

    def __eq__(self, other) -> bool:
        other = BiPoly._operand(other)
        if other is None:
            return NotImplemented
        return self.den == other.den and self.num == other.num

    def __add__(self, other) -> "BiPoly":
        other = BiPoly._operand(other)
        if other is None:
            return NotImplemented
        den = math.lcm(self.den, other.den)
        k1, k2 = den // self.den, den // other.den
        out = {mono: k1 * c for mono, c in self.num.items()}
        for mono, c in other.num.items():
            out[mono] = out.get(mono, 0) + k2 * c
        return BiPoly._canonical(out, den)

    __radd__ = __add__

    def __neg__(self) -> "BiPoly":
        return BiPoly._canonical({m: -c for m, c in self.num.items()},
                                 self.den)

    def __sub__(self, other) -> "BiPoly":
        other = BiPoly._operand(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "BiPoly":
        other = BiPoly._operand(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other) -> "BiPoly":
        other = BiPoly._operand(other)
        if other is None:
            return NotImplemented
        out: Dict[Monomial, int] = {}
        for (i1, j1), c1 in self.num.items():
            for (i2, j2), c2 in other.num.items():
                mono = (i1 + i2, j1 + j2)
                out[mono] = out.get(mono, 0) + c1 * c2
        return BiPoly._canonical(out, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "BiPoly":
        if not isinstance(k, int) or k < 0:
            raise ValueError(f"power must be a nonnegative integer, got {k}")
        result = BiPoly.const(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def evaluate(self, x, y) -> Fraction:
        """The exact value at integer point (x, y), by `forms.evaluate`."""
        return forms.evaluate(self.terms, x, y)

    def __repr__(self) -> str:
        terms = self.terms
        if not terms:
            return "BiPoly(0)"
        parts = []
        for (i, j) in sorted(terms, key=lambda m: (-(m[0] + m[1]), -m[0])):
            c = terms[(i, j)]
            mono = "".join((f"x^{i}" if i > 1 else "x" * i,
                            f"y^{j}" if j > 1 else "y" * j))
            parts.append(f"{c}{'*' if mono else ''}{mono}")
        return "BiPoly(" + " + ".join(parts) + ")"


def reduce(p: BiPoly) -> BiPoly:
    """Rewrite x^2 -> 4xy - y^2 + 1 until the x-degree is at most 1.

    Equivalent to division by x^2 - 4y*x + (y^2 - 1), monic in x, so the
    result is the unique representative in the quotient, the normal form
    c0(y) + c1(y)*x as a `BiPoly` whose x^0 and x^1 terms are c0 and c1,
    and `reduce` is a ring homomorphism onto it.
    """
    max_i = max((i for (i, _) in p.num), default=0)
    cols: List[Dict[int, int]] = [{} for _ in range(max_i + 1)]
    for (i, j), c in p.num.items():
        cols[i][j] = c
    # the relation has integer coefficients, so the numerators stay integers
    # over p's denominator
    for i in range(max_i, 1, -1):
        down1, down2 = cols[i - 1], cols[i - 2]
        for j, c in cols[i].items():
            down1[j + 1] = down1.get(j + 1, 0) + 4 * c
            down2[j + 2] = down2.get(j + 2, 0) - c
            down2[j] = down2.get(j, 0) + c
    return BiPoly._canonical({(i, j): c for i, col in enumerate(cols[:2])
                              for j, c in col.items()}, p.den)


class IdentityResult(NamedTuple):
    name: str
    description: str
    passed: bool
    residual: Optional[BiPoly]  # normal form, set on failure for diagnosis
    note: str = ""


class IdentityReport(NamedTuple):
    """The results of `prove_identities`; `report[name]` looks an item up
    by its name, in place of the tuple's indexing by position."""

    items: Tuple[IdentityResult, ...]

    @property
    def core_total(self) -> int:
        """How many of I1..I8, the proof chain proper, the report holds."""
        return sum(it.name in _CORE_ITEMS for it in self.items)

    @property
    def core_passed(self) -> int:
        """How many of the core identities reduced to zero."""
        return sum(it.passed for it in self.items if it.name in _CORE_ITEMS)

    @property
    def core_ok(self) -> bool:
        """True when every core identity reduced to zero."""
        return self.core_passed == self.core_total

    def __getitem__(self, name: str) -> IdentityResult:
        for it in self.items:
            if it.name == name:
                return it
        raise KeyError(name)


_CORE_ITEMS = frozenset(f"I{k}" for k in range(1, 9))


def prove_identities() -> IdentityReport:
    """Machine-check the identity chain for the main family.

    I1-I8 must reduce to zero in the quotient ring; together they prove that
    every conic point yields a, b, c with ab+1, ac+1, bc+1 and abc+1 all
    perfect squares.  I1-I4 and I7 are `forms.triple_conditions` of the
    main row of `forms.FAMILIES`.  I9 probes whether the homogenized
    abc+1 = s^2 identity already holds before reduction; I10 reduces the
    companion root table `forms.COMP_R` against its linear-form expression.

    Every table is read from `forms` when the call runs.
    """
    a, r, b, c, s = map(BiPoly, forms.FAMILIES["main"])
    A, R2, A_next, conic, R2_prev, A_prev, comp_r = map(BiPoly, (
        forms.A_FORM, forms.R2_FORM, forms.A_NEXT_FORM, forms.CONIC_FORM,
        forms.R2_PREV_FORM, forms.A_PREV_FORM, forms.COMP_R))
    ab1, c_sum, ac1, bc1, abc1 = forms.triple_conditions(a, r, b, c, s)
    f0, f1, f2, f3 = map(BiPoly, forms.ABC_FACTORS)
    abc_factored = forms.ABC_SCALE * (f0 * f1 * f2 * f3)

    checks = [
        ("I1", "a*b + 1 = r^2", ab1),
        ("I2", "a*c + 1 = (a+r)^2", ac1),
        ("I3", "b*c + 1 = (b+r)^2", bc1),
        ("I4", "c = a + b + 2r", c_sum),
        ("I5", "a = A^2 + 4", a - A * A - 4),
        ("I6", "2r = A^2*(2R) + 2*A_next - 4",
         2 * r - (A * A * R2 + 2 * A_next - 4)),
        ("I7", "a*b*c + 1 = s^2", abc1),
        ("I8", "a*b*c = (1/4)(3y+8x)*a*cubic*quartic", a * b * c - abc_factored),
        # I9: 1 written as conic^5; every factor is homogeneous of matching
        # degree, so it may vanish identically.
        ("I9", "homogenized abc+1 = s^2, pre-reduction",
         abc_factored + conic ** 5 - s * s),
        ("I10", "2*r_companion = A^2*(2R_prev) - 2*A_prev - 4",
         A * A * R2_prev - 2 * A_prev - 4 - 2 * comp_r),
    ]

    items = []
    for name, desc, diff in checks:
        nf = reduce(diff)
        note = ""
        if name == "I9":
            note = ("holds as an exact polynomial identity" if diff.is_zero()
                    else "holds only after reduction" if nf.is_zero() else "")
        items.append(IdentityResult(name, desc, nf.is_zero(),
                                    None if nf.is_zero() else nf, note))
    return IdentityReport(tuple(items))
