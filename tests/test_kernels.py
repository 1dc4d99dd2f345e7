"""Differential and property tests of the integer-row matrix kernels.

Every operation is compared with a naive reference that computes on
lists of ``Fraction`` entries (or residues mod p) and shares no code
with the package.  The preimage, quotient action and flag drops are
the tests' own reference copies (``corpus``), which the flag tests use.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import kolchin
from kolchin import GF, QQ, Matrix, Subspace, rref
from kolchin import linalg
from kolchin.linalg import SQUARE_PRODUCT_MAX, RowSpan, _kernel, express_in_rows, flat
from kolchin.repfile import matrix_to_rows
from corpus import (ref_flag_drops as flag_drops, ref_preimage as preimage,
                    ref_quotient_action as quotient_action)

F7 = GF(7)


# -- naive reference ---------------------------------------------------------

def ref_entries(m):
    return [[Fraction(x) for x in row] for row in m.rows]


def ref_reduce(field, x):
    return x if field.p is None else Fraction(x.numerator * pow(x.denominator, -1, field.p)
                                              % field.p)


def ref_mul(field, a, b, width=None):
    width = len(b[0]) if width is None else width
    return [[ref_reduce(field, sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0)))
             for j in range(width)] for i in range(len(a))]


def ref_rref(field, a):
    """Plain Gauss-Jordan on [a | I]: (reduced, pivots, transform)."""
    n, w = len(a), len(a[0])
    rows = [list(r) + [Fraction(int(i == j)) for j in range(n)] for i, r in enumerate(a)]
    pivots = []
    for c in range(w):
        r = len(pivots)
        piv = next((i for i in range(r, n) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c] if field.p is None else Fraction(pow(int(rows[r][c]), -1, field.p))
        rows[r] = [ref_reduce(field, x * inv) for x in rows[r]]
        for i in range(n):
            f = rows[i][c]
            if i != r and f != 0:
                rows[i] = [ref_reduce(field, x - f * y) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return [r[:w] for r in rows], tuple(pivots), [r[w:] for r in rows]


def same(m, ref):
    """The Matrix equals the reference entries, and stores canonical scalars."""
    assert all(type(x) is int or x.denominator != 1 for row in m.rows for x in row)
    return [list(r) for r in m.rows] == [[ref_reduce(m.field, x) for x in r] for r in ref]


# -- strategies ----------------------------------------------------------------

def entries(field):
    if field.p is None:
        return st.fractions(min_value=-20, max_value=20, max_denominator=12)
    return st.integers(0, field.p - 1)


@st.composite
def matrices(draw, field=QQ, nrows=None, ncols=None, elements=None):
    n = draw(st.integers(1, 6)) if nrows is None else nrows
    w = draw(st.integers(1, 6)) if ncols is None else ncols
    rows = draw(st.lists(st.lists(entries(field) if elements is None else elements,
                                  min_size=w, max_size=w),
                         min_size=n, max_size=n))
    return Matrix(field, rows, ncols=w)


@st.composite
def square_pairs(draw, field=QQ):
    n = draw(st.integers(1, 6))
    return draw(matrices(field, n, n)), draw(matrices(field, n, n))


FIELDS = st.sampled_from([QQ, F7])
squares = st.integers(1, 6).flatmap(lambda n: matrices(QQ, n, n))


# -- arithmetic ----------------------------------------------------------------

@given(FIELDS.flatmap(square_pairs))
def test_product_sum_difference_negation(pair):
    a, b = pair
    field = a.field
    ra, rb = ref_entries(a), ref_entries(b)
    assert same(a * b, ref_mul(field, ra, rb))
    assert same(a + b, [[x + y for x, y in zip(r, s)] for r, s in zip(ra, rb)])
    assert same(a - b, [[x - y for x, y in zip(r, s)] for r, s in zip(ra, rb)])


@given(matrices(), st.fractions(min_value=-9, max_value=9, max_denominator=9))
def test_scale_and_trace(m, s):
    ref = ref_entries(m)
    assert same(m.scale(s), [[s * x for x in r] for r in ref])
    if m.nrows == m.ncols:
        t = m.trace()
        assert t == sum((ref[i][i] for i in range(m.nrows)), Fraction(0))
        assert type(t) is int or t.denominator != 1


@given(squares)
def test_inverse_against_reference(m):
    _, pivots, inverse = ref_rref(QQ, ref_entries(m))
    if len(pivots) < m.nrows:
        with pytest.raises(ValueError):
            m.inverse()
    else:
        assert same(m.inverse(), inverse)
        assert (m * m.inverse()).is_identity()


@given(FIELDS.flatmap(lambda f: matrices(f)))
def test_rref_against_reference(m):
    e = rref(m)
    reduced, pivots, _ = ref_rref(m.field, ref_entries(m))
    assert same(e.reduced, reduced)
    assert e.pivots == pivots and e.rank == len(pivots)
    assert e.transform * m == e.reduced
    assert rref(e.transform).rank == m.nrows


# -- straight-line square products against the reference ---------------------

PRODUCT_FIELDS = [QQ, GF(2), F7, GF(2**61 - 1)]


def wide_entries(field):
    """Small signed fractions, and numerators above 2^64, over Q."""
    if field.p is None:
        return st.one_of(entries(field), st.builds(Fraction, st.integers(-2**70, 2**70),
                                                   st.integers(1, 9)))
    return entries(field)


@pytest.mark.parametrize("field", PRODUCT_FIELDS, ids=str)
@pytest.mark.parametrize("n", range(1, SQUARE_PRODUCT_MAX + 2))
@settings(max_examples=10)
@given(data=st.data())
def test_square_products_match_reference(field, n, data):
    # n = SQUARE_PRODUCT_MAX + 1 takes the generic path
    a, b = (data.draw(matrices(field, n, n, wide_entries(field))) for _ in range(2))
    assert same(a * b, ref_mul(field, ref_entries(a), ref_entries(b)))


@pytest.mark.parametrize("field", PRODUCT_FIELDS, ids=str)
@settings(max_examples=40)
@given(data=st.data())
def test_rectangular_and_empty_products_match_reference(field, data):
    m, k, w = (data.draw(st.integers(0, 5)) for _ in range(3))
    assume(not 0 < m == k == w)
    a = data.draw(matrices(field, m, k, wide_entries(field)))
    b = data.draw(matrices(field, k, w, wide_entries(field)))
    c = a * b
    assert (c.nrows, c.ncols) == (m, w)
    assert same(c, ref_mul(field, ref_entries(a), ref_entries(b), w))


def fraction_rows(m):
    # the former file formatting, through the Fraction scalars of m.rows
    return [[x if isinstance(x, int) else str(x) for x in row] for row in m.rows]


@given(FIELDS.flatmap(lambda field: st.one_of(
    matrices(field), matrices(field, elements=st.integers(-9, 9)),
    matrices(field, elements=wide_entries(field)))))
def test_matrix_to_rows_matches_fraction_formatting(m):
    rows = matrix_to_rows(m)
    assert json.dumps(rows) == json.dumps(fraction_rows(m))
    assert Matrix(m.field, rows, m.ncols) == m


def test_square_kernels_are_built_once_at_the_first_product():
    for p in (None, 7):
        _kernel(p).squares.clear()
    with mock.patch.object(linalg, "_square_product", wraps=linalg._square_product) as build:
        for field in (QQ, F7):
            for n in (3, 4):
                m = Matrix(field, [[Fraction(i - j, 1 + i) for j in range(n)] for i in range(n)])
                g = Matrix(field, [[i * j - 1 for j in range(n)] for i in range(n)])
                for _ in range(100):
                    m * g
    assert [call.args for call in build.call_args_list] == [(3, None), (4, None), (3, 7), (4, 7)]


def test_import_and_loading_build_no_kernel():
    code = ("import gc, sys, kolchin\n"
            "from kolchin.linalg import _Kernel\n"
            "kolchin.load_representation(sys.argv[1])\n"
            "kernels = [o for o in gc.get_objects() if isinstance(o, _Kernel)]\n"
            "print(len(kernels), sum(len(k.squares) for k in kernels))\n")
    rep = Path(__file__).parent / "golden" / "heis_frac.json"
    env = {**os.environ, "PYTHONPATH": str(Path(kolchin.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code, str(rep)], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    kernels, built = map(int, out.stdout.split())
    assert kernels >= 1 and built == 0


# -- canonical form: == and hash -------------------------------------------------

@given(square_pairs())
def test_equality_and_hash_agree_across_constructions(pair):
    m, g = pair
    assume(rref(g).rank == g.nrows)
    reached = (m * g) * g.inverse()
    built = Matrix(QQ, [[str(x) for x in r] for r in ref_entries(m)])
    assert reached == m == built
    assert hash(reached) == hash(m) == hash(built)
    assert (reached.ints, reached.den) == (built.ints, built.den)


def test_equal_values_in_different_forms_are_equal():
    half = Matrix(QQ, [[Fraction(1, 2), 1]])
    assert half == Matrix(QQ, [["2/4", "3/3"]]) == Matrix.from_ints(QQ, [[-3, -6]], -6, 2)
    assert half.scale(2) == Matrix(QQ, [[1, 2]])
    assert half.scale(2).den == 1 and hash(half.scale(2)) == hash(Matrix(QQ, [[1, 2]]))


# -- elimination kernels ---------------------------------------------------------

@given(st.tuples(FIELDS, st.integers(1, 6))
       .flatmap(lambda fw: st.lists(matrices(fw[0], 1, fw[1]), min_size=1, max_size=7)))
def test_row_span_absorb_matches_subspace(vectors):
    field, width = vectors[0].field, vectors[0].ncols
    refs = [ref_entries(v)[0] for v in vectors]
    span = RowSpan(field, width)
    rank = 0
    for k, v in enumerate(vectors):
        reduced, pivots, _ = ref_rref(field, refs[:k + 1])
        assert span.absorb(flat(v)) == (len(pivots) > rank)
        assert span.contains(flat(v))
        rank = len(pivots)
    s = span.to_subspace()
    assert s.pivots == pivots and same(s.basis, reduced[:rank])
    assert s == Subspace(field, width, [v.rows[0] for v in vectors])


@given(FIELDS.flatmap(lambda f: matrices(f)), st.data())
def test_express_in_rows(m, data):
    field = m.field
    x = data.draw(st.lists(entries(field), min_size=m.nrows, max_size=m.nrows))
    target = Matrix(field, [x]) * m
    coeffs = express_in_rows(m, target)
    assert coeffs is not None
    assert Matrix(field, [coeffs]) * m == target
    outside = data.draw(matrices(field, 1, m.ncols))
    inside = not any(Subspace(field, m.ncols, m.rows).reduce(outside.rows[0]))
    assert (express_in_rows(m, outside) is not None) == inside


# -- residuals against echelon rows, and what is built on them ---------------------
#
# The reference below eliminates on lists of Fraction entries (residues
# mod p as Fractions with denominator 1), one pivot at a time, and
# shares no code with the package.  Each of these deliberate mutants of
# the row-wise kernel fails four or five of the tests below:
# - the ``den`` scaling of v dropped (wrong whenever the echelon rows
#   have a denominator and v has a nonzero pivot coordinate);
# - the first row, or the last, skipped by the residual;
# - the sign of the residual's coefficients flipped;
# - the rows with a negative coefficient skipped;
# - the seed ``acc`` dropped from the accumulation.

RESIDUAL_FIELDS = [QQ, GF(2), F7, GF(2**61 - 1)]


def ref_inverse(field, x):
    return 1 / x if field.p is None else Fraction(pow(int(x), -1, field.p))


def ref_vector(field, v):
    return [ref_reduce(field, Fraction(x)) for x in v]


def ref_echelon(field, vectors, width):
    """Reduced echelon basis and pivots of the span of the vectors."""
    rows = [ref_vector(field, v) for v in vectors]
    basis, pivots = [], []
    for c in range(width):
        k = next((k for k, r in enumerate(rows) if r[c] != 0), None)
        if k is None:
            continue
        inv = ref_inverse(field, rows[k][c])
        top = [ref_reduce(field, x * inv) for x in rows.pop(k)]
        rows = [[ref_reduce(field, x - r[c] * y) for x, y in zip(r, top)] for r in rows]
        basis = [[ref_reduce(field, x - b[c] * y) for x, y in zip(b, top)] for b in basis]
        basis.append(top)
        pivots.append(c)
    return basis, pivots


def ref_residue(field, basis, pivots, v):
    """The coset representative of v: each pivot coordinate cleared in turn."""
    r = ref_vector(field, v)
    for b, c in zip(basis, pivots):
        f = r[c]
        r = [ref_reduce(field, x - f * y) for x, y in zip(r, b)]
    return r


def ref_times(field, v, m):
    return ref_mul(field, [ref_vector(field, v)], ref_entries(m), m.ncols)[0]


def ref_left_kernel(field, rows, n, width):
    """Basis of {x : x * rows = 0}, from the null space of the transpose."""
    columns = [[rows[i][j] for i in range(n)] for j in range(width)]
    red, pivots = ref_echelon(field, columns, n)
    free = [j for j in range(n) if j not in pivots]
    kernel_rows = []
    for f in free:
        x = [Fraction(0)] * n
        x[f] = Fraction(1)
        for r, c in zip(red, pivots):
            x[c] = ref_reduce(field, -r[f])
        kernel_rows.append(x)
    return ref_echelon(field, kernel_rows, n)[0]


def basis_equals(s, basis):
    return [list(r) for r in s.basis.rows] == basis


def spans(draw, field, width):
    """Spanning vectors of three subspaces: the zero span, all of
    F^width, and a drawn one, which may have zero vectors among them."""
    full = [[int(i == j) for j in range(width)] for i in range(width)]
    return [[], full, draw(st.lists(vectors(field, width), min_size=1, max_size=width + 1))]


def vectors(field, width):
    return st.one_of(st.lists(wide_entries(field), min_size=width, max_size=width),
                     st.just([0] * width))


residual_cases = st.tuples(st.sampled_from(RESIDUAL_FIELDS), st.integers(0, 6))


@settings(max_examples=100)
@given(residual_cases, st.data())
def test_subspace_reduce_and_contains_match_reference(case, data):
    field, width = case
    spanned = spans(data.draw, field, width)
    probes = data.draw(st.lists(vectors(field, width), min_size=1, max_size=4))
    for gens in spanned:
        w = Subspace(field, width, gens)
        basis, pivots = ref_echelon(field, gens, width)
        assert basis_equals(w, basis) and list(w.pivots) == pivots
        for v in probes:
            want = ref_residue(field, basis, pivots, v)
            assert list(w.reduce(v)) == want
        for other in spanned:
            assert w.contains(Subspace(field, width, other)) == \
                all(not any(ref_residue(field, basis, pivots, r)) for r in other)


@settings(max_examples=100)
@given(residual_cases, st.data())
def test_row_span_contains_and_absorb_match_reference(case, data):
    field, width = case
    ints = st.integers(-2**70, 2**70) if field.p is None else st.integers(0, field.p - 1)
    vecs = data.draw(st.lists(st.one_of(st.lists(ints, min_size=width, max_size=width),
                                        st.just([0] * width)),
                              min_size=1, max_size=width + 2))
    span = RowSpan(field, width)
    seen = []
    for v in vecs:
        basis, pivots = ref_echelon(field, seen, width)
        inside = not any(ref_residue(field, basis, pivots, v))
        assert span.contains(v) == inside
        assert span.absorb(v) == (not inside)
        seen.append(v)
    basis, pivots = ref_echelon(field, seen, width)
    assert basis_equals(span.to_subspace(), basis) and span.pivots == pivots


@settings(max_examples=80)
@given(residual_cases, st.data())
def test_preimage_matches_reference(case, data):
    field, width = case
    n = data.draw(st.integers(0, 5))
    mats = [data.draw(matrices(field, n, width, wide_entries(field)))
            for _ in range(data.draw(st.integers(1, 3)))]
    for gens in spans(data.draw, field, width):
        basis, pivots = ref_echelon(field, gens, width)
        # v -> (v * m reduced modulo w, for every m), on the standard basis
        rows = [[x for m in mats for x in ref_residue(field, basis, pivots, ref_entries(m)[j])]
                for j in range(n)]
        assert basis_equals(preimage(Subspace(field, width, gens), mats),
                            ref_left_kernel(field, rows, n, len(mats) * width))


def unitriangular(draw, field, n, lower):
    return [[1 if i == j else draw(wide_entries(field)) if (j < i if lower else j > i) else 0
             for j in range(n)] for i in range(n)]


@settings(max_examples=80)
@given(residual_cases, st.data())
def test_quotient_action_matches_reference(case, data):
    field, n = case
    drawn = data.draw(matrices(field, n, n, wide_entries(field)))
    for gens in spans(data.draw, field, n):
        w = Subspace(field, n, gens)
        basis, pivots = ref_echelon(field, gens, n)
        free = [j for j in range(n) if j not in pivots]
        # rows of p: w's basis, then the unit vectors at its free
        # coordinates; p^-1 t p with t lower block triangular keeps w
        p = Matrix(field, basis + [[int(i == j) for i in range(n)] for j in free], ncols=n)
        t = [[data.draw(wide_entries(field)) if j <= i else 0 for j in range(n)]
             for i in range(n)]
        for m in (drawn, p.inverse() * Matrix(field, t, ncols=n) * p):
            invariant = all(not any(ref_residue(field, basis, pivots, ref_times(field, b, m)))
                            for b in basis)
            if not invariant:
                with pytest.raises(ValueError, match="not invariant"):
                    quotient_action(m, w)
                continue
            want = [[ref_residue(field, basis, pivots, ref_entries(m)[j])[c] for c in free]
                    for j in free]
            got = quotient_action(m, w)
            assert (got.nrows, got.ncols) == (len(free), len(free))
            assert [list(r) for r in got.rows] == want


@settings(max_examples=120)
@given(residual_cases, st.data())
def test_flag_drops_matches_reference(case, data):
    field, n = case
    # steps W_k spanned by the first k rows of an invertible p; each m
    # is drawn, or p^-1 l p with l lower unitriangular, which drops
    # every step, with one diagonal entry of l perhaps changed
    p = Matrix(field, unitriangular(data.draw, field, n, True), ncols=n) * \
        Matrix(field, unitriangular(data.draw, field, n, False), ncols=n)
    rows = [list(r) for r in p.rows]
    steps = [Subspace(field, n, rows[:k]) for k in range(n + 1)]
    mats = []
    for _ in range(data.draw(st.integers(1, 3))):
        if data.draw(st.booleans()):
            mats.append(data.draw(matrices(field, n, n, wide_entries(field))))
            continue
        lower = unitriangular(data.draw, field, n, True)
        if n and data.draw(st.booleans()):
            i = data.draw(st.integers(0, n - 1))
            lower[i][i] = data.draw(wide_entries(field))
        mats.append(p.inverse() * Matrix(field, lower, ncols=n) * p)
    refs = [ref_echelon(field, rows[:k], n) for k in range(n + 1)]
    one = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]

    def drops(m):
        d = [[ref_reduce(field, x - y) for x, y in zip(r, s)] for r, s in zip(ref_entries(m), one)]
        return all(not any(ref_residue(field, *below, ref_mul(field, [b], d, n)[0]))
                   for below, step in zip(refs, refs[1:]) for b in step[0])

    assert flag_drops(mats, steps) == all(drops(m) for m in mats)
