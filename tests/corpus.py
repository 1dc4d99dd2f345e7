"""Seeded random generators, hypothesis group strategies and a small
reference, shared by the test suite."""

from __future__ import annotations

import random
from fractions import Fraction

from hypothesis import strategies as st

from kolchin import GF, QQ, Matrix, Representation, Subspace, kernel

FIELDS = [QQ, GF(2), GF(3), GF(5)]


def unit_matrix(field, n, i, j):
    return Matrix(field, [[1 if (r, c) == (i, j) else 0 for c in range(n)] for r in range(n)])


def ref_from_coordinates(a, coords):
    """The matrix with the given coordinates in the basis of algebra a."""
    m = Matrix.zero(a.field, a.matrix_size, a.matrix_size)
    for c, b in zip(coords, a.basis):
        m = m + b.scale(c)
    return m


# -- reference copies of the flag kernels the library no longer keeps -------------

def ref_free_coordinates(w):
    """The non-pivot standard coordinates of w: a basis of V/w."""
    return tuple(j for j in range(w.ambient_dim) if j not in w.pivots)


def ref_preimage(w, mats):
    """{v : v * m in w for every m}: the left kernel of the rows of every
    m reduced modulo w, placed side by side."""
    rows = [[x for m in mats for x in w.reduce(m.rows[j])] for j in range(mats[0].nrows)]
    return kernel(Matrix(w.field, rows, ncols=len(mats) * w.ambient_dim))


def ref_fixed_space(mats):
    """Common fixed vectors: the preimage of 0 under every m - 1."""
    one = Matrix.identity(mats[0].field, mats[0].nrows)
    return ref_preimage(Subspace.zero(one.field, one.nrows), [m - one for m in mats])


def ref_quotient_action(m, w):
    """The matrix of the action m induces on V/w, in the basis of w's
    free coordinates; a ValueError when a basis vector of w leaves w."""
    for v in w.basis.rows:
        image = (Matrix(w.field, [v], w.ambient_dim) * m).rows[0]
        if any(w.reduce(image)):
            raise ValueError(f"subspace is not invariant: basis vector {tuple(v)} maps to "
                             f"{tuple(image)}")
    free = ref_free_coordinates(w)
    return Matrix(m.field, [[w.reduce(m.rows[j])[c] for c in free] for j in free],
                  ncols=len(free))


def ref_flag(steps):
    """The steps of a flag, checked: one space, starting at 0, ending at
    V, and each step strictly containing the one below.  Returns them as
    the tuple the library's flags are; a ValueError names a failed check."""
    if not steps:
        raise ValueError("empty flag")
    field, n = steps[0].field, steps[0].ambient_dim
    if any(s.field != field or s.ambient_dim != n for s in steps):
        raise ValueError("flag steps live in different spaces")
    if not steps[0].is_zero():
        raise ValueError("flag must start at the zero subspace")
    if steps[-1].dim != n:
        raise ValueError("flag must end at the full space")
    for a, b in zip(steps, steps[1:]):
        if not (b.contains(a) and b.dim > a.dim):
            raise ValueError("flag steps must be strictly ascending")
    return tuple(steps)


def ref_flag_drops(mats, steps):
    """True iff every m - 1 maps each step into the one below."""
    for m in mats:
        d = m - Matrix.identity(m.field, m.nrows)
        for below, step in zip(steps, steps[1:]):
            for v in step.basis.rows:
                if any(below.reduce((Matrix(m.field, [v], m.ncols) * d).rows[0])):
                    return False
    return True


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


# -- hypothesis strategies ---------------------------------------------------------

@st.composite
def scalars(draw, field, nonzero=False):
    if field.p is not None:
        return draw(st.integers(1 if nonzero else 0, field.p - 1))
    x = draw(st.integers(-4, 4).filter(bool) if nonzero else st.integers(-4, 4))
    return Fraction(x, draw(st.integers(1, 4))) if draw(st.booleans()) else x


def unitriangular(draw, field, n, lower=False, nonzero=False):
    return Matrix(field, [[1 if i == j else draw(scalars(field, nonzero))
                           if (i > j if lower else i < j) else 0 for j in range(n)]
                          for i in range(n)])


@st.composite
def groups(draw):
    """A group P T_k P^-1 over one field.  Every T_k is upper
    unitriangular, except that in a blocked group the diagonal block at
    rows ``lo:hi`` is replaced by an invertible L U D (unit triangular
    L and U, diagonal D), always in the first generator and by choice
    in the others.  The first block has nonzero entries in L, U and D,
    so it is seldom unipotent.  A block at the bottom tends to fail at
    stage 1, one higher up after the flag has covered the rows below
    it."""
    field = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(1, 5))
    lo = draw(st.integers(0, n - 1))
    hi = draw(st.integers(lo + 1, n)) if draw(st.booleans()) else lo
    p = unitriangular(draw, field, n, lower=True) * unitriangular(draw, field, n)
    pinv = p.inverse()
    gens = {}
    for k in range(draw(st.integers(1, 3))):
        t = [list(r) for r in unitriangular(draw, field, n).rows]
        if hi > lo and (k == 0 or draw(st.booleans())):
            d, first = hi - lo, k == 0
            diag = Matrix(field, [[draw(scalars(field, True)) if i == j else 0 for j in range(d)]
                                  for i in range(d)])
            block = (unitriangular(draw, field, d, lower=True, nonzero=first)
                     * unitriangular(draw, field, d, nonzero=first) * diag)
            for i in range(d):
                t[lo + i][lo:hi] = block.rows[i]
        gens[f"g{k}"] = p * Matrix(field, t) * pinv
    return Representation(field, gens)


@st.composite
def groups_with_identity(draw):
    """A group from ``groups``, half the time with the identity added as
    one more generator, at a drawn position."""
    rep = draw(groups())
    items = list(rep.items())
    if draw(st.booleans()):
        items.insert(draw(st.integers(0, len(items))), ("e", rep.identity()))
    return Representation(rep.field, items)
