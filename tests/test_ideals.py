"""Differential tests of algebras and ideals stored as spans of
flattened matrices.

The reference keeps the former coordinate route: an ideal is a subspace
of the parent algebra's coordinate space, and every membership test
goes through ``AlgebraBasis.coordinates``.  The algebra closure is
compared with the former pairwise closure, which multiplies every pair
of kept elements on both sides.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kolchin import (GF, QQ, Ideal, Matrix, Subspace, ideal_closure, ideal_power_chain,
                     trace_radical)
from kolchin.algebra import span_closure
from kolchin.linalg import RowSpan, flat

F5 = GF(5)


# -- coordinate-route reference ------------------------------------------------

def ref_pairwise_closure(field, generators):
    n = generators[0].nrows
    span = RowSpan(field, n * n)
    work = []
    for m in [Matrix.identity(field, n)] + list(generators):
        if span.absorb(flat(m)):
            work.append(m)
    k = 0
    while k < len(work):
        wk = work[k]
        for j in range(k + 1):
            for prod in (wk * work[j], work[j] * wk):
                if span.absorb(flat(prod)):
                    work.append(prod)
        k += 1
    basis = span.to_subspace().basis
    return tuple(Matrix.from_ints(field, [row[i * n:(i + 1) * n] for i in range(n)],
                                  basis.den, n) for row in basis.ints)


def ref_members(a, space):
    return [a.from_coordinates(row) for row in space.basis.rows]


def ref_coordinate_space(a, mats):
    return Subspace(a.field, a.dim, [a.coordinates(m) for m in mats])


def ref_ideal_contains(a, space, m):
    coords = a.coordinates(m)
    return coords is not None and space.contains_vector(coords)


def ref_is_ideal(a, space):
    return all(ref_ideal_contains(a, space, prod)
               for u in ref_members(a, space) for b in a.basis for prod in (b * u, u * b))


def ref_power_chain(a, space):
    chain = [space]
    if space.is_zero():
        return chain, 1
    gens = current = ref_members(a, space)
    while True:
        nxt = ref_coordinate_space(a, [u * v for u in current for v in gens])
        chain.append(nxt)
        if nxt.is_zero():
            return chain, len(chain)
        if nxt == chain[-2]:
            return chain, None
        current = ref_members(a, nxt)


# -- strategies ----------------------------------------------------------------

def entries(field):
    if field.p is None:
        return st.fractions(min_value=-3, max_value=3, max_denominator=3)
    return st.integers(0, field.p - 1)


@st.composite
def algebras(draw):
    """A unital algebra generated by one or two matrices, often upper
    triangular (and then often unitriangular) so that it has proper
    ideals and a nonzero radical."""
    field = draw(st.sampled_from([QQ, F5]))
    n = draw(st.integers(2, 4))
    shape = draw(st.sampled_from(["full", "triangular", "unitriangular"]))

    def entry(i, j):
        if shape == "full" or j > i:
            return draw(entries(field))
        return 1 if shape == "unitriangular" and i == j else 0

    gens = [Matrix(field, [[entry(i, j) for j in range(n)] for i in range(n)])
            for _ in range(draw(st.integers(1, 2)))]
    return field, gens


def combination(draw, field, mats):
    coeffs = draw(st.lists(entries(field), min_size=len(mats), max_size=len(mats)))
    total = Matrix.zero(field, mats[0].nrows, mats[0].ncols)
    for c, m in zip(coeffs, mats):
        total = total + m.scale(c)
    return total


@st.composite
def cases(draw):
    field, gens = draw(algebras())
    a = span_closure(field, gens)
    n = a.matrix_size
    kind = draw(st.sampled_from(["augmentation", "radical", "seeds"]))
    if kind == "augmentation":
        i = ideal_closure(a, [g - Matrix.identity(field, n) for g in gens])
    elif kind == "radical":
        i = trace_radical(a)  # F_5 has p > n
    else:
        i = ideal_closure(a, [combination(draw, field, a.basis)
                              for _ in range(draw(st.integers(0, 2)))])
    probes = [combination(draw, field, a.basis),
              Matrix(field, [[draw(entries(field)) for _ in range(n)] for _ in range(n)])]
    if i.dim:
        inner = combination(draw, field, i.matrices)
        probes += [inner, inner + combination(draw, field, a.basis)]
    trial = ref_coordinate_space(a, [combination(draw, field, a.basis)
                                     for _ in range(draw(st.integers(1, 2)))])
    return field, gens, a, i, probes, trial


# -- tests ---------------------------------------------------------------------

@settings(max_examples=60)
@given(algebras())
def test_spin_closure_matches_pairwise_closure(case):
    field, gens = case
    assert span_closure(field, gens).basis == ref_pairwise_closure(field, gens)


@settings(max_examples=60)
@given(cases())
def test_membership_and_power_chain_match_coordinate_route(case):
    field, gens, a, i, probes, trial = case
    space = ref_coordinate_space(a, i.matrices)
    assert space.dim == i.dim
    # the public constructor maps coordinates to the same stored span
    assert Ideal(a, space) == i
    for m in probes:
        assert a.contains(m) == (a.coordinates(m) is not None)
        assert i.contains(m) == ref_ideal_contains(a, space, m)
    chain, index = ideal_power_chain(a, i)
    ref_chain, ref_index = ref_power_chain(a, space)
    assert index == ref_index
    assert [s.dim for s in chain] == [s.dim for s in ref_chain]
    assert all(s.ambient_dim == a.matrix_size ** 2 for s in chain)
    # _check_ideal accepts exactly the coordinate subspaces that are ideals
    try:
        Ideal(a, trial)
        accepted = True
    except ValueError:
        accepted = False
    assert accepted == ref_is_ideal(a, trial)


def test_non_ideal_rejected_and_outside_seed_refused():
    a = span_closure(QQ, [Matrix(QQ, [[1, 1, 0], [0, 1, 1], [0, 0, 1]])])
    e = Matrix(QQ, [[0, 0, Fraction(1, 2)], [0, 0, 0], [0, 0, 0]])
    assert a.contains(e) and not a.contains(e.transpose())
    # span{identity} is no ideal of a three-dimensional algebra
    one = ref_coordinate_space(a, [Matrix.identity(QQ, 3)])
    assert not ref_is_ideal(a, one)
    with pytest.raises(ValueError):
        Ideal(a, one)
    with pytest.raises(ValueError):
        ideal_closure(a, [e.transpose()])
    # the self-check refuses a flattened span that leaves the algebra
    with pytest.raises(ValueError, match="outside the algebra"):
        Ideal._of_span(a, Subspace(QQ, 9, [flat(e.transpose())]))
