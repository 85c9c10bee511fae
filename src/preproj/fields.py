"""Exact coefficient fields: the rationals and the prime fields F_p.

Rational elements are ``fractions.Fraction`` values, which are always kept in
lowest terms with a positive denominator.  Elements of F_p are plain ints
normalized to the range ``0..p-1``.  No floating point is ever involved.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Union

Scalar = Union[int, Fraction]


def is_prime(n: int) -> bool:
    """Deterministic trial division, plenty for the word-sized primes used here."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def primes() -> Iterator[int]:
    """Yield the primes in increasing order, forever."""
    n = 2
    while True:
        if is_prime(n):
            yield n
        n += 1


@dataclass(frozen=True)
class Field:
    """The scalar field: the rationals when ``p`` is None, else F_p.

    Args:
        p: None for the rationals, or a prime for the finite field F_p.

    Raises:
        ValueError: if ``p`` is neither None nor a prime.
    """

    p: Optional[int] = None

    def __post_init__(self) -> None:
        if self.p is not None and not is_prime(self.p):
            raise ValueError(f"field order {self.p} is not prime")

    @property
    def is_rational(self) -> bool:
        return self.p is None

    def of(self, value: Union[int, Fraction, str]) -> Scalar:
        """Coerce an int, Fraction, or scalar string into a field element.

        Over F_p a Fraction a/b is mapped to a * b^-1 mod p.

        Raises:
            ZeroDivisionError: coercing a/b into F_p when p divides b.
        """
        if isinstance(value, str):
            value = Fraction(value)
        if self.p is None:
            return Fraction(value)
        if isinstance(value, Fraction):
            if value.denominator % self.p == 0:
                raise ZeroDivisionError(
                    f"denominator of {value} vanishes in F_{self.p}"
                )
            return value.numerator * pow(value.denominator, -1, self.p) % self.p
        return int(value) % self.p

    def zero(self) -> Scalar:
        return Fraction(0) if self.p is None else 0

    def one(self) -> Scalar:
        return Fraction(1) if self.p is None else 1

    def add(self, a: Scalar, b: Scalar) -> Scalar:
        return a + b if self.p is None else (a + b) % self.p

    def sub(self, a: Scalar, b: Scalar) -> Scalar:
        return a - b if self.p is None else (a - b) % self.p

    def mul(self, a: Scalar, b: Scalar) -> Scalar:
        return a * b if self.p is None else (a * b) % self.p

    def neg(self, a: Scalar) -> Scalar:
        return -a if self.p is None else (-a) % self.p


QQ = Field(None)
