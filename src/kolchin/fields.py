"""Exact scalar arithmetic over the rationals and over prime fields.

Scalars are plain Python numbers: ``int`` or ``Fraction`` over the
rationals (integer-valued results are kept as ``int``), and ``int``
residues in ``[0, p)`` over a prime field.  These are the values
callers pass in and read back; matrices store their entries as integer
rows over one common denominator (see ``linalg``) and convert at the
boundary, so no ``Fraction`` arithmetic runs inside the kernels.
"""

from __future__ import annotations

from fractions import Fraction

Scalar = int | Fraction


# The first 13 primes decide Miller-Rabin for every n below this bound
# (Sorenson and Webster, 2015), so the test is exact, not probabilistic.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test.

    Raises ValueError from 3.3 * 10**24 up, where these bases are no
    longer known to decide primality, rather than guessing.
    """
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    if n >= _MR_BOUND:
        raise ValueError(f"cannot certify {n} prime: above the deterministic bound")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """Arithmetic context: the rationals when ``p`` is None, else F_p."""

    __slots__ = ("p",)

    def __init__(self, p: int | None = None):
        if p is not None and not is_prime(p):
            raise ValueError(f"field order must be prime, got {p!r}")
        self.p = p

    def characteristic(self) -> int:
        return 0 if self.p is None else self.p

    def of(self, value: int | str | Fraction) -> Scalar:
        """Coerce an int, Fraction or string like ``"-7/2"`` into the field.

        Strings go through ``Fraction``, so ``"1/0"`` raises
        ``ZeroDivisionError``.  Over F_p a fraction p/q is read as
        p * q^(-1) mod p.  Anything else, ``bool`` included, raises
        ``TypeError``: this is the one type rule for every entry read in.
        """
        p = self.p
        # the common entry first, so that it takes no str or Fraction test
        if isinstance(value, int) and not isinstance(value, bool):
            return value if p is None else value % p
        if isinstance(value, str):
            value = Fraction(value)
        if isinstance(value, Fraction):
            if p is None:
                return int(value) if value.denominator == 1 else value
            return value.numerator * pow(value.denominator, -1, p) % p
        raise TypeError(f"cannot coerce {value!r} into {self!r}")

    def inv(self, a: Scalar) -> Scalar:
        if self.p is None:
            if a == 0:
                raise ZeroDivisionError("inverse of zero")
            r = Fraction(1, 1) / a if isinstance(a, Fraction) else Fraction(1, a)
            return int(r) if r.denominator == 1 else r
        return pow(a, -1, self.p)

    def __eq__(self, other) -> bool:
        return isinstance(other, Field) and self.p == other.p

    def __hash__(self) -> int:
        return hash(("Field", self.p))

    def __repr__(self) -> str:
        return "QQ" if self.p is None else f"GF({self.p})"


#: The field of rational numbers.
QQ = Field()


def GF(p: int) -> Field:
    """The prime field with ``p`` elements."""
    return Field(p)
