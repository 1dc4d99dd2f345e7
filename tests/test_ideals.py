"""Differential tests of algebras and ideals stored as spans of
flattened matrices.

The reference keeps the former coordinate route: an ideal is a subspace
of the parent algebra's coordinate space, and every membership test
goes through ``AlgebraBasis.coordinates``.  The algebra closure is
compared with the former pairwise closure, which multiplies every pair
of kept elements on both sides.

Closures and the constructors' checks multiply by the algebra's
generators; the former versions that multiply by every basis matrix,
and the Gram matrix of d*d traces, are kept here as references for
them.  A spin or an ideal closure runs no check of its own, so the
references check their outputs here instead.  The ideal check reads no
right-ideal generators, so the spans it is run on here are given none.

``ideal_closure`` spins on the right and multiplies only its seeds on
the left; the former closure, which multiplies every kept element by
the generators on both sides, is its reference.  The power chain spans
the products of the ideal's generators with a power's basis; the
coordinate route's chain of all pairwise products is its reference.

A representation's radical is its augmentation ideal when that ideal
is nilpotent; ``trace_radical`` is the reference for that route.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kolchin import (GF, QQ, AlgebraBasis, Ideal, Matrix, Representation, Subspace,
                     ideal_closure, ideal_power_chain, matrix_algebra, trace_radical,
                     upper_triangular_algebra)
from kolchin.algebra import _matrices, span_closure
from kolchin.linalg import kernel
from kolchin.linalg import RowSpan, express_in_rows, flat
from corpus import ref_from_coordinates

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
    return [ref_from_coordinates(a, row) for row in space.basis.rows]


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


# -- basis-quantified references ----------------------------------------------

def inside(span, m):
    return not any(span._residual(flat(m)))


def ref_check_closure(span, n, generators):
    """The former closure check, 1 and every product of two basis matrices
    in the span, together with the generators a spin's span must hold."""
    basis = _matrices(span, n)
    return (inside(span, Matrix.identity(span.field, n))
            and all(inside(span, g) for g in generators)
            and all(inside(span, x * y) for x in basis for y in basis))


def ref_check_ideal(a, span):
    """The former ideal check, over every basis matrix of the algebra."""
    return all(inside(a.span, u) and all(inside(span, prod) for b in a.basis
                                         for prod in (b * u, u * b))
               for u in _matrices(span, a.matrix_size))


def spin(a, seeds, mats, sides=("left", "right")):
    """Span of the seeds closed under multiplication by ``mats`` on the
    given sides.  With the whole basis on both sides it is the former
    ideal closure; with one side it makes one-sided ideals."""
    span = RowSpan(a.field, a.matrix_size ** 2)
    elems = [s for s in seeds if span.absorb(flat(s))]
    for u in elems:
        for b in mats:
            for side in sides:
                prod = b * u if side == "left" else u * b
                if span.absorb(flat(prod)):
                    elems.append(prod)
    return span.to_subspace()


def ref_two_sided_closure(a, seeds):
    """The former ideal closure: every kept element multiplied by each
    generator of the algebra on both sides."""
    return spin(a, seeds, a.generators)


def flat_span(a, space):
    """A subspace of the coordinate space as a span of flattened matrices."""
    return Subspace._spanned(a.field, a.matrix_size ** 2, (space.basis * a.span.basis).ints)


def ref_radical_span(a):
    """The trace-form kernel from the former Gram matrix of d*d traces."""
    k = a.dim
    gram = Matrix(a.field, [[(a.basis[i] * a.basis[j]).trace() for j in range(k)]
                            for i in range(k)], ncols=k)
    flat_rows = kernel(gram).basis * a.span.basis
    return Subspace._spanned(a.field, a.matrix_size ** 2, flat_rows.ints)


def accepts(build):
    try:
        build()
    except ValueError:
        return False
    return True


def spanned(field, n, mats):
    return Subspace._spanned(field, n * n, [flat(m) for m in mats])


def without_row(span, r):
    rows = span.basis.ints
    return Subspace._spanned(span.field, span.ambient_dim, rows[:r] + rows[r + 1:])


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


@st.composite
def triangular_groups(draw):
    """(rep, kind): a group over Q with fraction entries or over GF(p)
    with p > n, with generators P T_k P^-1 and T_k upper triangular.
    - "unipotent": every T_k has diagonal 1;
    - "diagonal": the diagonal is drawn nonzero, with an entry other
      than 1 in the first generator, so the group is not unipotent;
    - "unipotent generators": diagonal 1, but a new P for each
      generator, so each generator is unipotent and the group most
      often is not."""
    field = draw(st.sampled_from([QQ, F5, GF(7)]))
    n = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["unipotent", "diagonal", "unipotent generators"]))
    nonzero = entries(field).filter(bool)

    def triangular(lower=False, diagonal=None):
        return Matrix(field, [[(1 if diagonal is None else diagonal[i]) if i == j
                               else draw(entries(field)) if (i > j if lower else i < j) else 0
                               for j in range(n)] for i in range(n)])

    gens = {}
    for k in range(draw(st.integers(1, 3))):
        if k == 0 or kind == "unipotent generators":
            p = triangular(lower=True) * triangular()
            pinv = p.inverse()
        diagonal = None
        if kind == "diagonal":
            diagonal = [draw(nonzero) for _ in range(n)]
            if k == 0 and all(x == 1 for x in diagonal):
                diagonal[draw(st.integers(0, n - 1))] = 2
        gens[f"g{k}"] = p * triangular(diagonal=diagonal) * pinv
    return Representation(field, gens), kind


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


def flattened(m):
    return Matrix.from_ints(m.field, (flat(m),), m.den, m.nrows * m.ncols)


@settings(max_examples=60)
@given(cases())
def test_coordinates_match_express_in_rows_on_the_flat_basis(case):
    field, gens, a, i, probes, trial = case
    flat_basis = Matrix.vstack([flattened(b) for b in a.basis])
    for m in probes + list(a.basis) + list(i.matrices):
        assert a.coordinates(m) == express_in_rows(flat_basis, flattened(m))


@settings(max_examples=60)
@given(algebras(), st.data())
def test_any_spanning_basis_gives_the_canonical_algebra(case, data):
    field, gens = case
    a = span_closure(field, gens)
    shuffled = data.draw(st.permutations(a.basis))
    # b_i + sum over j > i of c_ij b_j: a unitriangular, so invertible, recombination
    recombined = [b + combination(data.draw, field, shuffled[k + 1:]) if k + 1 < a.dim else b
                  for k, b in enumerate(shuffled)]
    for basis in (shuffled, recombined):
        other = AlgebraBasis(field, a.matrix_size, basis)
        assert other == a and hash(other) == hash(a)
        assert other.basis == a.basis


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
    # the ideal check refuses a flattened span that leaves the algebra
    with pytest.raises(ValueError, match="outside the algebra"):
        Ideal._of_span(a, Subspace(QQ, 9, [flat(e.transpose())]), ())._check_ideal()


@settings(max_examples=60)
@given(cases(), st.data())
def test_generator_closures_match_basis_references(case, data):
    field, gens, a, i, probes, trial = case
    n = a.matrix_size
    one = Matrix.identity(field, n)
    assert a.generators == tuple(gens)
    seeds = data.draw(st.sampled_from([
        [g - one for g in gens],
        [combination(data.draw, field, a.basis)],
        [combination(data.draw, field, a.basis), gens[0]],
    ]))
    assert ideal_closure(a, seeds).span == spin(a, seeds, a.basis)
    assert trace_radical(a).span == ref_radical_span(a)  # p = 5 > n over GF(5)
    if i.dim:
        assert i.span == spin(a, i.matrices, a.basis)


@settings(max_examples=60)
@given(cases(), st.data())
def test_generator_checks_accept_and_reject_as_the_references(case, data):
    field, gens, a, i, probes, trial = case
    n = a.matrix_size
    # ideal check: the ideal, a coordinate trial space, and spans that
    # may reach outside the algebra
    trial_mats = ref_members(a, trial)
    outside = Matrix(field, [[data.draw(entries(field)) for _ in range(n)] for _ in range(n)])
    candidates = [i.span, spanned(field, n, trial_mats), spanned(field, n, [outside]),
                  spanned(field, n, trial_mats + [outside])]
    if i.dim:
        candidates.append(spanned(field, n, list(i.matrices) + [outside]))
    if trial_mats:
        candidates += [spin(a, trial_mats, a.generators, [side]) for side in ("left", "right")]
    for span in candidates:
        assert (accepts(lambda: Ideal._of_span(a, span, ())._check_ideal())
                == ref_check_ideal(a, span))
    # closure check on the spans a spin can make, subspaces of the algebra
    for span in [a.span] + [without_row(a.span, r) for r in range(a.dim)]:
        assert (accepts(lambda: AlgebraBasis._spun(span, n, gens)._check_closure())
                == ref_check_closure(span, n, gens) == (span == a.span))


@settings(max_examples=60)
@given(cases())
def test_closures_pass_the_reference_checks(case):
    # the spin and the ideal closure loop prove these, and no runtime
    # check repeats them: 1, the generators and every basis product lie
    # in the algebra, and the augmentation and seeded ideals are ideals
    field, gens, a, i, probes, trial = case
    assert ref_check_closure(a.span, a.matrix_size, gens)
    assert ref_check_ideal(a, i.span)


@settings(max_examples=60)
@given(algebras(), st.data())
def test_outside_basis_keeps_the_full_product_check(case, data):
    field, gens = case
    n = gens[0].nrows
    extra = [combination(data.draw, field, gens) for _ in range(data.draw(st.integers(0, 1)))]
    span = spanned(field, n, [Matrix.identity(field, n)] + gens + extra)
    basis = _matrices(span, n)
    try:
        a = AlgebraBasis(field, n, basis)
    except ValueError:
        a = None
    assert (a is not None) == ref_check_closure(span, n, basis)
    if a is not None:
        assert a.generators == a.basis
        assert a == span_closure(field, gens)


@settings(max_examples=60)
@given(algebras(), st.data())
def test_tampered_spun_algebra_raises(case, data):
    field, gens = case
    a = span_closure(field, gens)
    n = a.matrix_size
    r = data.draw(st.integers(0, a.dim - 1))
    with pytest.raises(ValueError):
        AlgebraBasis._spun(without_row(a.span, r), n, gens)._check_closure()
    assume(a.dim < n * n)
    unit = next(u for u in matrix_algebra(field, n).basis if not a.contains(u))
    with pytest.raises(ValueError, match="not closed under the generators"):
        AlgebraBasis._spun(a.span, n, list(gens) + [unit])._check_closure()


def test_fixed_cases_rejected_by_the_checks_and_their_references():
    a = span_closure(QQ, [Matrix(QQ, [[1, 1, 0], [0, 1, 1], [0, 0, 1]])])
    e = Matrix(QQ, [[0, 0, Fraction(1, 2)], [0, 0, 0], [0, 0, 0]])
    for span in (spanned(QQ, 3, [Matrix.identity(QQ, 3)]), spanned(QQ, 3, [e.transpose()])):
        assert not ref_check_ideal(a, span)
        with pytest.raises(ValueError):
            Ideal._of_span(a, span, ())._check_ideal()
    assert ref_check_ideal(a, spanned(QQ, 3, [e]))
    Ideal._of_span(a, spanned(QQ, 3, [e]), ())._check_ideal()
    # in the upper triangular 2 x 2 matrices, span{E11} is only a left
    # ideal and span{E22} only a right one
    b = span_closure(QQ, [Matrix(QQ, [[1, 1], [0, 1]]), Matrix(QQ, [[1, 0], [0, 2]])])
    assert b == upper_triangular_algebra(QQ, 2)
    for unit in (Matrix(QQ, [[1, 0], [0, 0]]), Matrix(QQ, [[0, 0], [0, 1]])):
        span = spanned(QQ, 2, [unit])
        assert not ref_check_ideal(b, span)
        with pytest.raises(ValueError, match="not closed"):
            Ideal._of_span(b, span, ())._check_ideal()
    # span{1, E12, E21} holds 1 but not E12 * E21
    units = matrix_algebra(QQ, 2).basis
    basis = [Matrix.identity(QQ, 2), units[1], units[2]]
    assert not ref_check_closure(spanned(QQ, 2, basis), 2, basis)
    with pytest.raises(ValueError, match="not closed under the generators"):
        AlgebraBasis(QQ, 2, basis)
    for full in (matrix_algebra(QQ, 2), upper_triangular_algebra(F5, 3)):
        assert full.generators == full.basis


@settings(max_examples=200)
@given(triangular_groups())
def test_radical_routes_match_the_trace_form(case):
    rep, kind = case
    env = rep.enveloping()
    assert env.radical.span == trace_radical(env.algebra).span
    # the augmentation ideal is the radical exactly when it is nilpotent
    nilpotent = env.augmentation_index is not None
    assert (env.radical is env.augmentation_ideal) == nilpotent
    if kind != "unipotent generators":
        assert nilpotent == (kind == "unipotent")
    # the properties no runtime check re-proves: the radical is stable
    # under conjugation by the group, and nilpotent of the index it keeps
    rad = env.radical
    for name in rep.names:
        g, gi = rep.generator(name), rep.inverse(name)
        assert all(rad.contains(gi * r * g) and rad.contains(g * r * gi) for r in rad.matrices)
    _, index = ref_power_chain(env.algebra, ref_coordinate_space(env.algebra, rad.matrices))
    assert index is not None and rad.nilpotency_index == index


def seed_matrices(draw, a):
    """One to three seeds of ``a`` that are not of augmentation form:
    basis matrices, combinations of the basis, or products of two."""
    field = a.field

    def seed():
        kind = draw(st.sampled_from(["basis", "combination", "product"]))
        if kind == "basis":
            return draw(st.sampled_from(a.basis))
        x = combination(draw, field, a.basis)
        return x * combination(draw, field, a.basis) if kind == "product" else x

    return [seed() for _ in range(draw(st.integers(1, 3)))]


@st.composite
def seeded(draw):
    """A spun algebra, or the full or upper triangular matrices with
    their unit basis as generators, and seeds in it."""
    field, gens = draw(algebras())
    units = draw(st.sampled_from([None, matrix_algebra, upper_triangular_algebra]))
    a = span_closure(field, gens) if units is None else units(field, gens[0].nrows)
    return a, seed_matrices(draw, a)


@settings(max_examples=100)
@given(seeded())
def test_ideal_closure_matches_the_two_sided_closure(case):
    a, seeds = case
    i = ideal_closure(a, seeds)
    assert i.span == ref_two_sided_closure(a, seeds)
    # the kept seeds generate it as a right ideal
    assert all(i.contains(s) for s in i.generators)
    assert spin(a, i.generators, a.generators, ["right"]) == i.span


def test_corner_seed_reaches_all_of_m3_from_its_row():
    e12 = Matrix(QQ, [[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    cycle = Matrix(QQ, [[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    diagonal = Matrix(QQ, [[1, 0, 0], [0, 2, 0], [0, 0, 3]])
    for a in (matrix_algebra(QQ, 3), span_closure(QQ, [cycle, diagonal])):
        assert a.dim == 9
        # the right ideal e12 * M_3 is the first row
        row = spin(a, [e12], a.generators, ["right"])
        assert row == spanned(QQ, 3, [Matrix(QQ, [[int(c == j) if r == 0 else 0
                                                   for c in range(3)] for r in range(3)])
                                      for j in range(3)])
        i = ideal_closure(a, [e12])
        assert i.dim == 9 and i.span == a.span == ref_two_sided_closure(a, [e12])
        # the seeds are e12, e22 and e32: their products on the left of
        # M_3 make all of it, but on the right only the second column
        assert len(i.generators) == 3
        assert ideal_power_chain(a, i) == ([a.span, a.span], None)


@settings(max_examples=100)
@given(st.one_of(cases().map(lambda case: (case[2], case[3])),
                 seeded().map(lambda case: (case[0], ideal_closure(*case)))))
def test_power_chain_spans_match_the_coordinate_route(case):
    a, i = case
    space = ref_coordinate_space(a, i.matrices)
    ref_chain, ref_index = ref_power_chain(a, space)
    built = Ideal(a, space)
    assert built.generators == built.matrices
    # by the closure (or the trace form) and by the constructor
    for ideal in (i, built):
        chain, index = ideal_power_chain(a, ideal)
        assert index == ref_index == ideal.nilpotency_index
        assert chain == [flat_span(a, s) for s in ref_chain]
