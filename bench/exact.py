"""Small exact matrix arithmetic for the benchmark's own use.

The generator builds its inputs with these helpers and the workload
checks recompute witnesses with them, so neither depends on the
package under test.  Matrices are tuples of row tuples; over Q the
entries are ``int`` or ``Fraction``, over F_p they are ints in [0, p).
"""

from __future__ import annotations

from fractions import Fraction


def identity(n: int) -> tuple:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _canon(x):
    if isinstance(x, Fraction) and x.denominator == 1:
        return x.numerator
    return x


def mul(a: tuple, b: tuple, p: int | None = None) -> tuple:
    cols = tuple(zip(*b))
    if p is None:
        return tuple(tuple(_canon(sum(x * y for x, y in zip(row, col))) for col in cols)
                     for row in a)
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) % p for col in cols) for row in a)


def inverse(m: tuple, p: int | None = None) -> tuple:
    """Gauss-Jordan inverse; raises ZeroDivisionError if ``m`` is singular."""
    n = len(m)
    aug = [list(row) + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(m)]
    for c in range(n):
        piv = next((r for r in range(c, n) if aug[r][c]), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        aug[c], aug[piv] = aug[piv], aug[c]
        if p is None:
            inv = Fraction(1) / aug[c][c]
            aug[c] = [x * inv for x in aug[c]]
        else:
            inv = pow(aug[c][c], -1, p)
            aug[c] = [x * inv % p for x in aug[c]]
        for r in range(n):
            f = aug[r][c]
            if r != c and f:
                if p is None:
                    aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
                else:
                    aug[r] = [(x - f * y) % p for x, y in zip(aug[r], aug[c])]
    return tuple(tuple(_canon(x) for x in row[n:]) for row in aug)


def is_identity(m: tuple) -> bool:
    return all(x == (1 if i == j else 0) for i, row in enumerate(m) for j, x in enumerate(row))


def entry_bits(x) -> int:
    if isinstance(x, Fraction):
        return max(abs(x.numerator).bit_length(), x.denominator.bit_length())
    return abs(x).bit_length()


def max_entry_bits(mats) -> int:
    return max((entry_bits(x) for m in mats for row in m for x in row), default=0)


def commutator(x: tuple, xi: tuple, g: tuple, gi: tuple, p: int | None = None):
    """[x, g] = x^-1 g^-1 x g together with its inverse g^-1 x^-1 g x."""
    c = mul(mul(mul(xi, gi, p), x, p), g, p)
    ci = mul(mul(mul(gi, xi, p), g, p), x, p)
    return c, ci
