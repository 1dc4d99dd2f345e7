import random
from itertools import permutations
from unittest import mock

import pytest

from kolchin import (
    GF,
    QQ,
    CharacteristicTooSmallError,
    Matrix,
    ideal_closure,
    ideal_power_chain,
    matrix_algebra,
    minimal_standard_degree,
    span_closure,
    standard_identity_eval,
    standard_identity_witness,
    trace_radical,
    upper_triangular_algebra,
)
from kolchin import algebra
from corpus import random_matrix, ref_from_coordinates, unit_matrix


def naive_standard_identity(mats):
    """Oracle: explicit alternating sum with cycle-decomposition signs."""
    k = len(mats)
    field = mats[0].field
    n = mats[0].nrows
    total = Matrix.zero(field, n, n)
    for perm in permutations(range(k)):
        # sign via cycle decomposition (independent of inversion counting)
        seen = [False] * k
        sign = 1
        for start in range(k):
            if seen[start]:
                continue
            length = 0
            t = start
            while not seen[t]:
                seen[t] = True
                t = perm[t]
                length += 1
            if length % 2 == 0:
                sign = -sign
        prod = Matrix.identity(field, n)
        for t in perm:
            prod = prod * mats[t]
        total = total + prod.scale(sign)
    return total


def test_span_closure_identity_only():
    a = span_closure(QQ, [Matrix.identity(QQ, 2)])
    assert a.dim == 1
    assert a.basis[0].is_identity()


def test_span_closure_nilpotent_generator():
    e12 = unit_matrix(QQ, 2, 0, 1)
    a = span_closure(QQ, [e12])
    assert a.dim == 2
    assert a.basis[0].is_identity() and a.basis[1] == e12


def test_span_closure_full_m2():
    a = span_closure(QQ, [unit_matrix(QQ, 2, 0, 1), unit_matrix(QQ, 2, 1, 0)])
    assert a.dim == 4


def test_span_closure_is_product_closed():
    rng = random.Random(7)
    for _ in range(10):
        gens = [random_matrix(rng, QQ, 3, 3, lo=-2, hi=2) for _ in range(2)]
        a = span_closure(QQ, gens)
        for x in a.basis:
            for y in a.basis:
                assert a.contains(x * y)
        assert a.contains(Matrix.identity(QQ, 3))
        for g in gens:
            assert a.contains(g)


def test_coordinates_roundtrip():
    a = upper_triangular_algebra(QQ, 3)
    rng = random.Random(3)
    for _ in range(20):
        coords = tuple(rng.randint(-5, 5) for _ in range(a.dim))
        m = ref_from_coordinates(a, coords)
        assert a.coordinates(m) == coords
    assert a.coordinates(unit_matrix(QQ, 3, 2, 0)) is None


def test_ideal_closure_zero():
    a = upper_triangular_algebra(QQ, 2)
    i = ideal_closure(a, [Matrix.zero(QQ, 2, 2)])
    assert i.is_zero()


def test_ideal_closure_corner():
    a = upper_triangular_algebra(QQ, 2)
    e12 = unit_matrix(QQ, 2, 0, 1)
    i = ideal_closure(a, [e12])
    assert i.dim == 1
    assert i.contains(e12)


def test_ideal_closure_simple_algebra():
    a = matrix_algebra(QQ, 2)
    i = ideal_closure(a, [unit_matrix(QQ, 2, 0, 1)])
    assert i.dim == 4  # M_2 is simple


def test_ideal_closure_rejects_outside_seed():
    a = upper_triangular_algebra(QQ, 2)
    with pytest.raises(ValueError):
        ideal_closure(a, [unit_matrix(QQ, 2, 1, 0)])


def test_power_chain_zero_ideal():
    a = upper_triangular_algebra(QQ, 2)
    i = ideal_closure(a, [Matrix.zero(QQ, 2, 2)])
    chain, index = ideal_power_chain(a, i)
    assert index == 1
    assert len(chain) == 1 and chain[0].is_zero()


def test_power_chain_strictly_upper():
    a = upper_triangular_algebra(QQ, 3)
    seeds = [unit_matrix(QQ, 3, 0, 1), unit_matrix(QQ, 3, 1, 2)]
    i = ideal_closure(a, seeds)
    assert i.dim == 3  # E12, E23 and their product E13
    chain, index = ideal_power_chain(a, i)
    assert index == 3
    assert [s.dim for s in chain] == [3, 1, 0]


def test_power_chain_idempotent():
    diag = span_closure(QQ, [Matrix(QQ, [[1, 0], [0, 0]]), Matrix(QQ, [[0, 0], [0, 1]])])
    e11 = unit_matrix(QQ, 2, 0, 0)
    i = ideal_closure(diag, [e11])
    chain, index = ideal_power_chain(diag, i)
    assert index is None  # E11 is idempotent


def test_trace_radical_diagonal():
    diag = span_closure(QQ, [Matrix(QQ, [[1, 0], [0, 0]]), Matrix(QQ, [[0, 0], [0, 1]])])
    assert trace_radical(diag).is_zero()


def test_trace_radical_upper_triangular():
    a = upper_triangular_algebra(QQ, 2)
    rad = trace_radical(a)
    assert rad.dim == 1
    assert rad.contains(unit_matrix(QQ, 2, 0, 1))


def test_trace_radical_full_matrix_algebra():
    for n in (2, 3, 4):
        assert trace_radical(matrix_algebra(QQ, n)).is_zero()


def test_trace_radical_char_constraint():
    with pytest.raises(CharacteristicTooSmallError):
        trace_radical(matrix_algebra(GF(2), 2))
    with pytest.raises(CharacteristicTooSmallError):
        trace_radical(upper_triangular_algebra(GF(3), 3))
    # p > n is fine
    rad = trace_radical(upper_triangular_algebra(GF(3), 2))
    assert rad.dim == 1
    assert trace_radical(matrix_algebra(GF(5), 2)).is_zero()


def test_trace_radical_contains_nilpotent_ideals():
    a = upper_triangular_algebra(QQ, 4)
    rad = trace_radical(a)
    seeds = [unit_matrix(QQ, 4, 1, 2)]
    i = ideal_closure(a, seeds)
    _, index = ideal_power_chain(a, i)
    assert index is not None
    for m in i.matrices:
        assert rad.contains(m)


def test_trace_form_nondegenerate_on_quotient():
    # the radical is exactly the kernel of the trace form, so the form
    # on the quotient has full rank
    from kolchin import rref

    for a in (upper_triangular_algebra(QQ, 3), matrix_algebra(QQ, 2),
              span_closure(QQ, [Matrix(QQ, [[1, 1], [0, 1]]),
                                Matrix(QQ, [[-1, 0], [0, 1]])])):
        rad = trace_radical(a)
        gram = Matrix(QQ, [[(x * y).trace() for y in a.basis] for x in a.basis],
                      ncols=a.dim)
        assert rref(gram).rank == a.dim - rad.dim


def test_trace_radical_conjugation_invariant():
    # span of a matrix group: conjugation by generators preserves the radical
    g1 = Matrix(QQ, [[-1, 0], [0, 1]])
    g2 = Matrix(QQ, [[1, 1], [0, 1]])
    a = span_closure(QQ, [g1, g2])
    rad = trace_radical(a)
    for g in (g1, g2):
        gi = g.inverse()
        for r in rad.matrices:
            assert rad.contains(gi * r * g)


def test_standard_identity_alternating():
    rng = random.Random(11)
    for _ in range(10):
        m = random_matrix(rng, QQ, 3, 3)
        other = random_matrix(rng, QQ, 3, 3)
        assert standard_identity_eval(2, [m, m]).is_zero()
        assert standard_identity_eval(3, [m, other, m]).is_zero()


def test_standard_identity_two_by_two():
    e12, e21 = unit_matrix(QQ, 2, 0, 1), unit_matrix(QQ, 2, 1, 0)
    assert standard_identity_eval(2, [e12, e21]) == Matrix(QQ, [[1, 0], [0, -1]])


def test_standard_identity_matches_naive_oracle():
    rng = random.Random(13)
    for k in (2, 3, 4):
        for _ in range(8):
            mats = [random_matrix(rng, QQ, 2, 2, lo=-3, hi=3) for _ in range(k)]
            assert standard_identity_eval(k, mats) == naive_standard_identity(mats)
        for _ in range(4):
            mats = [random_matrix(rng, GF(7), 3, 3) for _ in range(k)]
            assert standard_identity_eval(k, mats) == naive_standard_identity(mats)


def test_sweep_commutative_algebra():
    diag = span_closure(QQ, [Matrix(QQ, [[1, 0], [0, 0]]), Matrix(QQ, [[0, 0], [0, 1]])])
    assert standard_identity_witness(diag, 2) is None
    assert minimal_standard_degree(diag, 2) == ({}, 2)


def test_sweep_m2_degree_three_witness():
    m2 = matrix_algebra(QQ, 2)
    combo = standard_identity_witness(m2, 3)
    assert combo == (0, 1, 2)  # E11, E12, E21 in row-major basis order
    value = standard_identity_eval(3, [m2.basis[i] for i in combo])
    assert value == Matrix(QQ, [[2, 0], [0, 1]])
    assert naive_standard_identity([m2.basis[i] for i in combo]) == value


def test_sweep_m2_degree_four_verified():
    m2 = matrix_algebra(QQ, 2)
    assert standard_identity_witness(m2, 4) is None
    # oracle confirmation: every injective 4-tuple is a permutation of the
    # whole basis and the alternating sum over it vanishes
    for perm in permutations(range(4)):
        assert naive_standard_identity([m2.basis[i] for i in perm]).is_zero()


def test_minimal_standard_degree():
    diag = span_closure(QQ, [Matrix(QQ, [[1, 0], [0, 0]]), Matrix(QQ, [[0, 0], [0, 1]])])
    assert minimal_standard_degree(diag, 4) == ({}, 2)
    assert minimal_standard_degree(matrix_algebra(QQ, 2), 6) == ({2: (0, 1), 3: (0, 1, 2)}, 4)
    witnesses, degree = minimal_standard_degree(matrix_algebra(QQ, 3), 3)
    assert degree is None and set(witnesses) == {2, 3}


def test_minimal_degree_2n_is_reported_without_a_sweep():
    # every subalgebra of M_n satisfies S_2n (Amitsur-Levitzki), so the
    # sweeps stop at degree 2n - 1, whatever the bound above it
    for field, n in ((QQ, 2), (GF(7), 3)):
        with mock.patch.object(algebra, "standard_identity_witness",
                               wraps=algebra.standard_identity_witness) as sweep:
            witnesses, degree = minimal_standard_degree(matrix_algebra(field, n), 2 * n + 3)
        assert degree == 2 * n and sorted(witnesses) == list(range(2, 2 * n))
        assert [c.args[1] for c in sweep.call_args_list] == list(range(2, 2 * n))


def test_degree_above_dimension_holds_trivially():
    diag = span_closure(QQ, [Matrix(QQ, [[1, 0], [0, 0]]), Matrix(QQ, [[0, 0], [0, 1]])])
    assert standard_identity_witness(diag, 3) is None  # no injective 3-tuples
