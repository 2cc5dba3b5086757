"""
Exact univariate polynomials in n with rational coefficients.

Coefficients are `fractions.Fraction` values stored in ascending degree
with trailing zeros trimmed, so the zero polynomial has an empty
coefficient tuple.  Everything here is exact; no floating point anywhere.

The combinatorial constructors work in the binomial basis: a class whose
compact representatives have c_m members of length m is counted by
sum_m c_m * C(n-1, m-1), an integer for every integer n >= 1 even though
the monomial coefficients are rationals.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from typing import Iterable, Mapping, NamedTuple, Sequence


class Polynomial(NamedTuple):
    """Coefficients in ascending degree; coeffs[i] multiplies n**i."""

    coeffs: tuple[Fraction, ...]

    @staticmethod
    def from_coeffs(values: Iterable[int | Fraction]) -> "Polynomial":
        coeffs = [Fraction(v) for v in values]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        return Polynomial(tuple(coeffs))

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __call__(self, n: int | Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * n + c
        return acc

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        merged = list(a)
        for i, c in enumerate(b):
            merged[i] += c
        return Polynomial.from_coeffs(merged)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + Polynomial.from_coeffs(-c for c in other.coeffs)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if not self or not other:
            return ZERO
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial.from_coeffs(out)

    def scale(self, factor: int | Fraction) -> "Polynomial":
        return Polynomial.from_coeffs(c * Fraction(factor) for c in self.coeffs)


ZERO = Polynomial(())
ONE = Polynomial((Fraction(1),))


def _falling_product(shifts: Sequence[int]) -> Polynomial:
    """Product of (n - s) over the given shifts."""
    out = ONE
    for s in shifts:
        out = out * Polynomial.from_coeffs([-s, 1])
    return out


def binomial_basis_poly(m: int) -> Polynomial:
    """
    C(n-1, m-1) as a polynomial in n: the number of ways to fill one
    compact permutation of length m inside B_n.  Vanishes at n = 1..m-1
    and equals 1 at n = m.

    >>> binomial_basis_poly(2).coeffs
    (Fraction(-1, 1), Fraction(1, 1))
    """
    if m < 1:
        raise ValueError("block count m must be >= 1 (the empty permutation is handled upstream)")
    return _falling_product(range(1, m)).scale(Fraction(1, factorial(m - 1)))


def choose_poly(r: int) -> Polynomial:
    """C(n, r) as a polynomial in n."""
    if r < 0:
        raise ValueError("r must be nonnegative")
    return _falling_product(range(r)).scale(Fraction(1, factorial(r)))


def from_histogram(counts: Mapping[int, int]) -> Polynomial:
    """
    The enumerating polynomial sum_m counts[m] * C(n-1, m-1) of a compact
    representative set with the given length -> count mapping.  The empty
    permutation contributes nothing for n >= 1 and is ignored here.
    """
    out = ZERO
    for m in sorted(counts):
        c = counts[m]
        if m == 0 or c == 0:
            continue
        out = out + binomial_basis_poly(m).scale(c)
    return out


def gregory_newton(values: Sequence[int | Fraction]) -> Polynomial:
    """
    Reconstruct an integer-valued polynomial from its values at n = 1..k.

    Returns the unique combination of C(n, 1), ..., C(n, k) agreeing with
    the k given values, via forward differences anchored at a zero value
    at n = 0:

        P(n) = sum_{j=1}^{k} ( sum_{i=0}^{k-j} (-1)^i C(i+j, i) C(n, i+j) ) P(j).

    The result vanishes at n = 0, so this recovers exactly the difference
    polynomials of nested distance classes, whose constant terms cancel.
    (A published form of this identity prints the inner binomial as
    C(i+j-1, i); that variant does not interpolate its own sample values
    and is not used here.)
    """
    k = len(values)
    if k < 1:
        raise ValueError("need at least one sample value")
    out = ZERO
    for j, value in enumerate(values, start=1):
        v = Fraction(value)
        if v == 0:
            continue
        inner = ZERO
        for i in range(k - j + 1):
            sign = -1 if i % 2 else 1
            inner = inner + choose_poly(i + j).scale(sign * comb(i + j, i))
        out = out + inner.scale(v)
    return out


# ---------------------------------------------------------------------------
# Formatting


def _frac_str(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def format_coeff_array(p: Polynomial) -> str:
    """Ascending-degree coefficient array, e.g. ``[1, 1/2, 1/2]``."""
    return "[" + ", ".join(_frac_str(c) for c in p.coeffs) + "]"


def format_latex(p: Polynomial) -> str:
    r"""LaTeX rendering in ascending degree, e.g. ``1 + \frac{1}{2} n^{2}``."""
    if not p:
        return "0"
    parts: list[str] = []
    for i, c in enumerate(p.coeffs):
        if c == 0:
            continue
        mag = abs(c)
        mag_text = str(mag.numerator) if mag.denominator == 1 else rf"\frac{{{mag.numerator}}}{{{mag.denominator}}}"
        if i == 0:
            term = mag_text
        else:
            var = "n" if i == 1 else f"n^{{{i}}}"
            term = var if mag == 1 else f"{mag_text} {var}"
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if c > 0 else f"- {term}")
    return " ".join(parts)


def to_json_dict(p: Polynomial) -> dict:
    """JSON object with exact coefficient strings in lowest terms."""
    return {
        "basis": "monomial",
        "coeffs": [_frac_str(c) for c in p.coeffs],
        "valid_for": "n>=1",
    }

