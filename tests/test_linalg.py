import random
from fractions import Fraction

import pytest

from kolchin import (
    GF,
    QQ,
    Matrix,
    Subspace,
    assemble_flag_basis,
    kernel,
    rref,
)
from corpus import (random_matrix, ref_fixed_space as fixed_space, ref_flag_drops as flag_drops,
                    ref_quotient_action as quotient_action)


def naive_gauss_jordan(m):
    """Independent plain-fraction row reduction used as an oracle."""
    rows = [[Fraction(x) if m.field.p is None else x for x in row] for row in m.rows]
    p = m.field.p
    nrows, ncols = m.nrows, m.ncols
    pivots = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, nrows):
            if rows[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], -1, p) if p else Fraction(1) / rows[r][c]
        rows[r] = [(x * inv % p) if p else x * inv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p if p else x - f * y
                           for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return Matrix(m.field, rows, ncols=ncols), tuple(pivots)


def test_rref_identity():
    m = Matrix.identity(QQ, 3)
    e = rref(m)
    assert e.reduced == m
    assert e.pivots == (0, 1, 2)
    assert e.rank == 3


def test_rref_zero():
    m = Matrix.zero(QQ, 2, 2)
    e = rref(m)
    assert e.reduced == m
    assert e.pivots == ()
    assert e.rank == 0


def test_rref_rank_one():
    m = Matrix(QQ, [[1, 2], [2, 4]])
    e = rref(m)
    assert e.reduced == Matrix(QQ, [[1, 2], [0, 0]])
    assert e.rank == 1


def test_rref_fractions():
    m = Matrix(QQ, [["1/2", "1/3"], ["1/4", "1/5"]])
    e = rref(m)
    assert e.reduced == Matrix.identity(QQ, 2)
    assert e.transform * m == e.reduced


@pytest.mark.parametrize("field", [QQ, GF(5), GF(101)])
def test_rref_random_properties(field):
    rng = random.Random(20240 + field.characteristic())
    for _ in range(120):
        m = random_matrix(rng, field, rng.randint(1, 6), rng.randint(1, 6),
                          rational=field.p is None)
        e = rref(m)
        # transform witnesses the reduction and is invertible
        assert e.transform * m == e.reduced
        assert rref(e.transform).rank == m.nrows
        # idempotence
        again = rref(e.reduced)
        assert again.reduced == e.reduced
        assert again.pivots == e.pivots
        # independent oracle
        reduced, pivots = naive_gauss_jordan(m)
        assert e.reduced == reduced
        assert e.pivots == pivots


def test_kernel_identity_and_zero():
    assert kernel(Matrix.identity(QQ, 3)).dim == 0
    k = kernel(Matrix.zero(QQ, 4, 4))
    assert k == Subspace.full(QQ, 4)


def test_kernel_example():
    m = Matrix(QQ, [[1, 2], [2, 4]])
    k = kernel(m)
    # canonical form of span{(-2, 1)}
    assert k.basis == Matrix(QQ, [[1, "-1/2"]])
    for v in k.basis.rows:
        assert all(sum(v[i] * m.rows[i][j] for i in range(2)) == 0 for j in range(2))


@pytest.mark.parametrize("field", [QQ, GF(101)])
def test_rank_nullity_random(field):
    rng = random.Random(77 + field.characteristic())
    for _ in range(150):
        m = random_matrix(rng, field, rng.randint(1, 6), rng.randint(1, 6))
        e = rref(m)
        k = kernel(m)
        assert k.dim + e.rank == m.nrows
        p = field.p
        for v in k.basis.rows:
            for j in range(m.ncols):
                dot = sum(v[i] * m.rows[i][j] for i in range(m.nrows))
                assert (dot % p if p else dot) == 0


def test_rank_mod_p_vs_rational():
    rng = random.Random(4242)
    big = GF(1000003)
    deficient = 0
    for _ in range(60):
        rows = [[rng.randint(-20, 20) for _ in range(5)] for _ in range(5)]
        rank_q = rref(Matrix(QQ, rows)).rank
        assert rref(Matrix(big, rows)).rank == rank_q
        for p in (2, 3, 5):
            rank_p = rref(Matrix(GF(p), rows)).rank
            assert rank_p <= rank_q
            deficient += rank_p < rank_q
    assert deficient  # small primes do lose rank sometimes


def test_subspace_canonical_equality():
    rng = random.Random(99)
    for _ in range(40):
        n = rng.randint(2, 6)
        k = rng.randint(1, n)
        basis = random_matrix(rng, QQ, k, n, rational=True)
        s1 = Subspace(QQ, n, basis.rows)
        # respan by an invertible recombination: same subspace, same stored basis
        from corpus import random_invertible

        c = random_invertible(rng, QQ, k)
        s2 = Subspace(QQ, n, (c * basis).rows)
        assert s1 == s2
        assert s1.basis == s2.basis
        assert hash(s1) == hash(s2)


def ref_intersection(a, b):
    """a meet b: each z with z * [a; b] = 0 gives z_a * a = -z_b * b, a
    vector of both, and every common vector arises so."""
    z = kernel(Matrix(a.field, [*a.basis.rows, *b.basis.rows], ncols=a.ambient_dim))
    za = Matrix(a.field, [r[:a.dim] for r in z.basis.rows], ncols=a.dim)
    return Subspace(a.field, a.ambient_dim, (za * a.basis).rows)


def ref_sum(a, b):
    return Subspace(a.field, a.ambient_dim, [*a.basis.rows, *b.basis.rows])


def test_subspace_sum_intersection_examples():
    w = Subspace(QQ, 3, [[1, 0, 0], [0, 1, 0]])
    zero = Subspace.zero(QQ, 3)
    full = Subspace.full(QQ, 3)
    assert ref_sum(w, zero) == w
    assert ref_intersection(w, full) == w
    e12 = Subspace(QQ, 3, [[1, 0, 0], [0, 1, 0]])
    e23 = Subspace(QQ, 3, [[0, 1, 0], [0, 0, 1]])
    assert ref_intersection(e12, e23) == Subspace(QQ, 3, [[0, 1, 0]])


def test_subspace_dimension_formula():
    rng = random.Random(123)
    for _ in range(50):
        n = rng.randint(2, 6)

        def rand_subspace():
            k = rng.randint(0, n)
            return Subspace(QQ, n, [[rng.randint(-9, 9) for _ in range(n)] for _ in range(k)])

        a, b = rand_subspace(), rand_subspace()
        s = ref_sum(a, b)
        i = ref_intersection(a, b)
        assert a.dim + b.dim == s.dim + i.dim
        assert s.contains(a) and s.contains(b)
        assert a.contains(i) and b.contains(i)


def test_subspace_mismatch_errors():
    a = Subspace(QQ, 3, [[1, 0, 0]])
    b = Subspace(QQ, 2, [[1, 0]])
    with pytest.raises(ValueError):
        a.contains(b)
    c = Subspace(GF(5), 3, [[1, 0, 0]])
    with pytest.raises(ValueError):
        a.contains(c)


def test_fixed_space_examples():
    assert fixed_space([Matrix.identity(QQ, 3)]) == Subspace.full(QQ, 3)
    g = Matrix(QQ, [[1, 1], [0, 1]])
    assert fixed_space([g]) == Subspace(QQ, 2, [[0, 1]])
    a = Matrix(QQ, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    b = Matrix(QQ, [[1, 0, 0], [0, 1, 1], [0, 0, 1]])
    assert fixed_space([a, b]) == Subspace(QQ, 3, [[0, 0, 1]])


def test_quotient_action_examples():
    w = Subspace(QQ, 2, [[0, 1]])
    assert quotient_action(Matrix.identity(QQ, 2), w) == Matrix.identity(QQ, 1)
    g = Matrix(QQ, [[1, 1], [0, 1]])
    assert quotient_action(g, w) == Matrix.identity(QQ, 1)
    d = Matrix(QQ, [[2, 0], [0, 1]])
    assert quotient_action(d, w) == Matrix(QQ, [[2]])


def test_quotient_action_not_invariant():
    w = Subspace(QQ, 2, [[0, 1]])
    m = Matrix(QQ, [[1, 0], [1, 1]])
    with pytest.raises(ValueError, match=r"\(0, 1\) maps to \(1, 1\)"):
        quotient_action(m, w)


def test_quotient_action_multiplicative():
    rng = random.Random(55)
    w = Subspace(QQ, 3, [[0, 0, 1]])
    for _ in range(30):
        # e3 * m = row 3 of m, so invariance of span{e3} pins that row
        def inv_mat():
            m = random_matrix(rng, QQ, 3, 3)
            rows = [list(r) for r in m.rows]
            rows[2] = [0, 0, 1]
            return Matrix(QQ, rows)

        m1, m2 = inv_mat(), inv_mat()
        assert quotient_action(m1 * m2, w) == quotient_action(m1, w) * quotient_action(m2, w)


def test_assemble_flag_basis_standard():
    steps = [
        Subspace.zero(QQ, 3),
        Subspace(QQ, 3, [[1, 0, 0]]),
        Subspace(QQ, 3, [[1, 0, 0], [0, 1, 0]]),
        Subspace.full(QQ, 3),
    ]
    assert assemble_flag_basis(steps) == Matrix.identity(QQ, 3)


def test_assemble_flag_basis_reversed():
    steps = [
        Subspace.zero(QQ, 3),
        Subspace(QQ, 3, [[0, 0, 1]]),
        Subspace(QQ, 3, [[0, 1, 0], [0, 0, 1]]),
        Subspace.full(QQ, 3),
    ]
    assert assemble_flag_basis(steps) == Matrix(QQ, [[0, 0, 1], [0, 1, 0], [1, 0, 0]])


def test_assemble_flag_basis_invertible_random():
    rng = random.Random(321)
    for _ in range(25):
        n = rng.randint(2, 6)
        # random full flag from a random invertible matrix
        from corpus import random_invertible

        p = random_invertible(rng, QQ, n)
        steps = [Subspace.zero(QQ, n)]
        for k in range(1, n + 1):
            steps.append(Subspace(QQ, n, p.rows[:k]))
        basis = assemble_flag_basis(steps)
        assert rref(basis).rank == n
        for step in steps[1:]:
            for v in basis.rows[: step.dim]:
                assert not any(step.reduce(v))


def test_flag_drops_needs_trivial_factor_actions():
    u = Matrix(QQ, [[1, 1], [0, 1]])
    d = Matrix(QQ, [[2, 0], [0, 1]])
    zero, full = Subspace.zero(QQ, 2), Subspace.full(QQ, 2)
    e1, e2 = Subspace(QQ, 2, [[1, 0]]), Subspace(QQ, 2, [[0, 1]])
    assert flag_drops([u], [zero, e2, full])
    assert not flag_drops([u], [zero, e1, full])
    # span(e1) is invariant under d, but d acts as 2 on it
    assert not flag_drops([d], [zero, e1, full])
    assert not flag_drops([u, d], [zero, e2, full])
    f7 = GF(7)
    assert flag_drops([Matrix(f7, [[1, 3], [0, 1]])],
                      [Subspace.zero(f7, 2), Subspace(f7, 2, [[0, 4]]), Subspace.full(f7, 2)])


def test_matrix_basics():
    m = Matrix(QQ, [[1, 2], [3, 4]])
    assert m.transpose() == Matrix(QQ, [[1, 3], [2, 4]])
    assert m.trace() == 5
    assert (m * m.inverse()).is_identity()
    with pytest.raises(ValueError):
        Matrix(QQ, [[1, 0], [2, 0]]).inverse()
    with pytest.raises(ValueError):
        m * Matrix(QQ, [[1, 2, 3]])
    assert Matrix(GF(5), [[7]]) == Matrix(GF(5), [[2]])
    assert Matrix(QQ, [[1]]) != Matrix(GF(5), [[1]])


def test_matrix_rows_must_have_ncols_entries():
    assert Matrix(QQ, [[1, 2, 3]], ncols=3).ncols == 3
    assert Matrix(QQ, [], ncols=3).ncols == 3
    for rows, ncols in (([[1, 2]], 3), ([[1, 2, 3, 4]], 3), ([[1, 2], [3]], None),
                        ([[1, 2], [3, 4, 5]], 2)):
        with pytest.raises(ValueError):
            Matrix(QQ, rows, ncols=ncols)
    with pytest.raises(ValueError):
        Matrix(QQ, [])
    with pytest.raises(ValueError):
        Subspace(QQ, 3, [[1, 2]])


def test_matrix_refuses_bool_entries():
    with pytest.raises(TypeError):
        Matrix(QQ, [[1, True], [0, 1]])
    with pytest.raises(TypeError):
        Subspace(GF(3), 2, [[False, 1]])
