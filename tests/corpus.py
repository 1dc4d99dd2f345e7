"""Seeded random generators, and a small reference, shared by the test suite."""

from __future__ import annotations

import random
from fractions import Fraction

from kolchin import GF, QQ, Matrix, Representation


def unit_matrix(field, n, i, j):
    return Matrix(field, [[1 if (r, c) == (i, j) else 0 for c in range(n)] for r in range(n)])


def ref_from_coordinates(a, coords):
    """The matrix with the given coordinates in the basis of algebra a."""
    m = Matrix.zero(a.field, a.matrix_size, a.matrix_size)
    for c, b in zip(coords, a.basis):
        m = m + b.scale(c)
    return m


def heisenberg():
    a = Matrix(QQ, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    b = Matrix(QQ, [[1, 0, 0], [0, 1, 1], [0, 0, 1]])
    return Representation(QQ, {"a": a, "b": b})


def random_matrix(rng, field, nrows, ncols, lo=-9, hi=9, rational=False):
    def entry():
        if rational and rng.random() < 0.3:
            return Fraction(rng.randint(lo, hi), rng.randint(1, 9))
        return rng.randint(lo, hi)

    return Matrix(field, [[entry() for _ in range(ncols)] for _ in range(nrows)])


def random_unimodular(rng, n, coeff_bound=3):
    """Product of integer transvections: invertible with integer inverse."""
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-coeff_bound, coeff_bound)
        if not c:
            continue
        for k in range(n):
            m[i][k] += c * m[j][k]
    return Matrix(QQ, m)


def random_invertible(rng, field, n, lo=-5, hi=5):
    while True:
        m = random_matrix(rng, field, n, n, lo, hi)
        try:
            m.inverse()
            return m
        except ValueError:
            continue


def random_upper_unitriangular(rng, n, rational=False):
    """Identity plus random strictly-upper entries, numerators and
    denominators at most 9."""
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rng.randint(-9, 9)
    if rational and n >= 2:
        i = rng.randrange(n - 1)
        j = rng.randrange(i + 1, n)
        rows[i][j] = Fraction(rng.randint(-9, 9), rng.randint(2, 9))
    return Matrix(QQ, rows)


def conjugated(rep, p):
    """The same group in the basis whose rows are the rows of p: each
    generator g becomes p g p^-1."""
    pinv = p.inverse()
    return Representation(rep.field, [(name, p * g * pinv) for name, g in rep.items()])


def conjugated_unitriangular_rep(rng, n, num_gens, rational=False):
    """A unipotent group hidden by a base change: P U P^-1."""
    p = random_unimodular(rng, n)
    gens = {f"g{t}": random_upper_unitriangular(rng, n, rational) for t in range(num_gens)}
    return conjugated(Representation(QQ, gens), p)


def unitriangular_corpus(seed, count):
    """Mixed corpus of conjugated unipotent groups over Q.

    Mostly integer instances across n = 3..6; a slice of genuinely
    rational instances at n = 3..4 keeps fraction arithmetic exercised.
    """
    rng = random.Random(seed)
    reps = []
    for idx in range(count):
        rational = idx % 7 == 3
        n = rng.randint(3, 4) if rational else rng.randint(3, 6)
        k = rng.randint(2, 4)
        reps.append(conjugated_unitriangular_rep(rng, n, k, rational))
    return reps
