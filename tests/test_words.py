import random
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kolchin import (
    GF,
    QQ,
    CharacteristicTooSmallError,
    Matrix,
    NotFiniteError,
    Representation,
    Word,
    algebraic_element_probe,
    brute_force_unipotent_radical,
    engel_probe,
    enumerate_elements,
    evaluate_word,
    kaloujnine_class_check,
    load_representation,
    nil_index_probe,
    unitriangular_degree,
)
from kolchin import reps
from kolchin.linalg import SQUARE_PRODUCT_MAX, _kernel, square_product
from kolchin.words import MAX_WORD_LETTERS, conjugacy_classes, random_word
from corpus import heisenberg, unit_matrix


def order_six_rep():
    return Representation(GF(3), {
        "u": Matrix(GF(3), [[1, 1], [0, 1]]),
        "d": Matrix(GF(3), [[-1, 0], [0, 1]]),
    })


def test_word_parse_and_str():
    w = Word.parse("a b^-1 a")
    assert w.letters == (("a", 1), ("b", -1), ("a", 1))
    assert str(w) == "a b^-1 a"
    assert Word.parse("1").letters == ()
    assert str(Word()) == "1"
    assert Word.parse("a^3").letters == (("a", 1),) * 3
    assert Word.parse("a^-2").letters == (("a", -1),) * 2
    assert Word.parse(str(w)) == w


def test_word_parse_errors():
    with pytest.raises(ValueError):
        Word.parse("^2")
    with pytest.raises(ValueError):
        Word.parse("a^x")
    with pytest.raises(ValueError, match="malformed exponent"):
        Word.parse("a^")  # an empty exponent is not read as a^1


def test_word_inverse_and_concat():
    w = Word.parse("a b^-1")
    assert w.inverse() == Word.parse("b a^-1")
    assert (w * w.inverse()).letters == Word.parse("a b^-1 b a^-1").letters


def test_evaluate_word_examples():
    rep = heisenberg()
    assert evaluate_word(rep, Word()).is_identity()
    assert evaluate_word(rep, Word.parse("a a^-1")).is_identity()
    comm = evaluate_word(rep, Word.parse("a b a^-1 b^-1"))
    assert comm == Matrix(QQ, [[1, 0, 1], [0, 1, 0], [0, 0, 1]])


def test_evaluate_word_unknown_generator():
    with pytest.raises(ValueError):
        evaluate_word(heisenberg(), Word.parse("z"))


def test_evaluate_word_is_homomorphism():
    rep = heisenberg()
    rng = random.Random(71)
    for _ in range(30):
        u = random_word(rng, rep.names, 5)
        v = random_word(rng, rep.names, 5)
        assert evaluate_word(rep, u * v) == evaluate_word(rep, u) * evaluate_word(rep, v)
        assert evaluate_word(rep, u.inverse()) == evaluate_word(rep, u).inverse()


def test_enumerate_finite_cyclic():
    rep = Representation(GF(3), {"u": Matrix(GF(3), [[1, 1], [0, 1]])})
    table = enumerate_elements(rep)
    assert table.closed
    assert len(table) == 3


def test_enumerate_infinite_truncates():
    rep = Representation(QQ, {"u": Matrix(QQ, [[1, 1], [0, 1]])})
    table = enumerate_elements(rep, element_cap=100)
    assert not table.closed
    assert len(table) == 100


def test_enumerate_trivial():
    rep = Representation(QQ, {"e": Matrix.identity(QQ, 2)})
    table = enumerate_elements(rep)
    assert table.closed and len(table) == 1


def tree_word(table, i):
    """The word the BFS tree spells for element i."""
    letters = []
    while i:
        letters.append(table.last_letters[i])
        i = table.parents[i]
    return Word(tuple(reversed(letters)))


def test_enumerate_shortest_witnesses():
    rep = order_six_rep()
    table = enumerate_elements(rep)
    assert len(table) == 6
    assert table.elements[rep.identity()] == 0
    for m, i in table.elements.items():
        assert evaluate_word(rep, tree_word(table, i)) == m
    # the tree spells shortest words: BFS levels are the word lengths
    lengths = [len(tree_word(table, i)) for i in range(len(table))]
    assert lengths == sorted(lengths) and lengths[:3] == [0, 1, 1]


def test_enumeration_memory_is_linear():
    # an infinite cyclic group: BFS depth grows with the element count, so
    # a word kept per element would take about count^2 / 4 letters (about
    # 195 MiB here); the tree takes a few MiB
    rep = Representation(QQ, {"t": Matrix(QQ, [[1, 1], [0, 1]])})
    tracemalloc.start()
    try:
        table = enumerate_elements(rep, element_cap=10_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(table) == 10_000 and not table.closed
    assert peak < 16 * 2**20


def test_lagrange_spot_checks():
    whole = order_six_rep()
    order = len(enumerate_elements(whole))
    for name in whole.names:
        sub = Representation(GF(3), {name: whole.generator(name)})
        assert order % len(enumerate_elements(sub)) == 0


def test_left_normed_commutator_examples():
    rep = heisenberg()
    a, b = rep.generator("a"), rep.generator("b")
    assert reference_left_normed(b, Matrix.identity(QQ, 3), 1).is_identity()
    c1 = reference_left_normed(b, a, 1)
    assert c1 == Matrix(QQ, [[1, 0, -1], [0, 1, 0], [0, 0, 1]])
    assert not c1.is_identity()
    # central element: the next commutation kills it
    assert reference_left_normed(b, a, 2).is_identity()
    assert reference_commutator(b, a) == c1


def test_unitriangular_degree_bounds_commutator_depth():
    # a degree-n unitriangular group has class below n: iterating n-1
    # commutations from any sampled pair lands on the identity
    from kolchin import kolchin_flag

    rep = heisenberg()
    n = kolchin_flag(rep).degree
    rng = random.Random(61)
    for _ in range(50):
        x = evaluate_word(rep, random_word(rng, rep.names, 6))
        g = evaluate_word(rep, random_word(rng, rep.names, 6))
        assert reference_left_normed(x, g, n - 1).is_identity()


def test_nil_index_probe_examples():
    rep = heisenberg()
    a, b = rep.generator("a"), rep.generator("b")
    assert nil_index_probe(Matrix.identity(QQ, 3), b) == 1
    assert nil_index_probe(a, b) == 2
    g = Matrix(QQ, [[2, 0], [0, 1]])
    x = Matrix(QQ, [[1, 1], [0, 1]])
    assert nil_index_probe(g, x, depth_cap=10) is None
    # the walk runs on rows, so operands of two sizes or fields are refused first
    for other in (a, Matrix(GF(3), [[1, 1], [0, 1]])):
        with pytest.raises(ValueError, match="square of one size over one field"):
            nil_index_probe(other, x)
        with pytest.raises(ValueError, match="square of one size over one field"):
            algebraic_element_probe(g, other)


def test_engel_probe():
    trivial = Representation(QQ, {"e": Matrix.identity(QQ, 2)})
    assert engel_probe(trivial, 1, sample_budget=50) is None
    rep = heisenberg()
    assert engel_probe(rep, 2, sample_budget=200) is None
    pair = engel_probe(rep, 1, sample_budget=200)
    assert pair is not None
    x = evaluate_word(rep, pair[0])
    y = evaluate_word(rep, pair[1])
    assert not reference_commutator(x, y).is_identity()


@pytest.mark.parametrize("budget, cap", [(0, 8), (-3, 8), (50, 0), (50, -1)])
def test_samplers_refuse_an_empty_budget_or_length_cap(budget, cap):
    rep = heisenberg()
    with pytest.raises(ValueError, match="must be at least 1"):
        engel_probe(rep, 2, sample_budget=budget, length_cap=cap)
    with pytest.raises(ValueError, match="must be at least 1"):
        kaloujnine_class_check(rep, 2, sample_budget=budget, word_length_cap=cap)


def test_word_parse_refuses_a_long_word_before_expanding_it():
    # expanded, the first would be 10^18 letters; the refusal allocates none
    start = time.perf_counter()
    for text in ("a^1000000000000000000", "a^-1000000000000000000",
                 f"a^{MAX_WORD_LETTERS} b", f"a^{MAX_WORD_LETTERS // 2} b^-{MAX_WORD_LETTERS}"):
        with pytest.raises(ValueError, match=f"more than {MAX_WORD_LETTERS} letters"):
            Word.parse(text)
    assert time.perf_counter() - start < 0.1
    assert len(Word.parse(f"a^{MAX_WORD_LETTERS - 1} b^-1")) == MAX_WORD_LETTERS


def test_engel_probe_seeded_determinism():
    rep = heisenberg()
    assert engel_probe(rep, 1, sample_budget=100, seed=4) == engel_probe(
        rep, 1, sample_budget=100, seed=4
    )


def test_algebraic_probe_identity():
    rep = heisenberg()
    b = rep.generator("b")
    assert algebraic_element_probe(Matrix.identity(QQ, 3), b) == 1


def test_algebraic_probe_heisenberg():
    rep = heisenberg()
    a, b = rep.generator("a"), rep.generator("b")
    # depth-1 commutator is central of infinite order; depth 2 dies
    assert algebraic_element_probe(a, b, element_cap=500) == 2


def test_algebraic_probe_inconclusive():
    g = Matrix(QQ, [[2, 0], [0, 1]])
    x = Matrix(QQ, [[1, 1], [0, 1]])
    assert algebraic_element_probe(g, x, depth_cap=4, element_cap=50) is None


def test_conjugacy_classes_symmetric_group():
    rep = order_six_rep()
    table = enumerate_elements(rep)
    classes = conjugacy_classes(table)
    assert sorted(len(c) for c in classes) == [1, 2, 3]


def test_conjugacy_classes_require_a_closed_table():
    rep = order_six_rep()
    table = enumerate_elements(rep, element_cap=4)
    assert not table.closed
    with pytest.raises(NotFiniteError):
        conjugacy_classes(table)


def test_brute_force_radical_trivial():
    rep = Representation(QQ, {"e": Matrix.identity(QQ, 2)})
    assert brute_force_unipotent_radical(rep) == (Matrix.identity(QQ, 2),)


def test_brute_force_radical_order_six():
    rep = order_six_rep()
    radical = brute_force_unipotent_radical(rep)
    assert len(radical) == 3
    u = rep.generator("u")
    assert set(radical) == {rep.identity(), u, u * u}


def test_brute_force_radical_fully_unitriangular():
    rep = Representation(GF(3), {"u": Matrix(GF(3), [[1, 1], [0, 1]])})
    radical = brute_force_unipotent_radical(rep)
    assert len(radical) == 3  # the whole group


def test_brute_force_radical_requires_finite():
    rep = Representation(QQ, {"u": Matrix(QQ, [[1, 1], [0, 1]])})
    with pytest.raises(NotFiniteError):
        brute_force_unipotent_radical(rep, element_cap=50)


def test_caps_must_be_positive():
    rep = heisenberg()
    with pytest.raises(ValueError):
        enumerate_elements(rep, element_cap=0)


def reference_conjugacy_classes(elems):
    """Classes from matrix products: the class of g is every h^-1 g h."""
    index = {m: i for i, m in enumerate(elems)}
    seen = set()
    classes = []
    for i, g in enumerate(elems):
        if i in seen:
            continue
        cls = {index[h.inverse() * g * h] for h in elems}
        seen |= cls
        classes.append(tuple(sorted(cls)))
    return classes


def reference_radical(rep):
    """The former oracle: every union of conjugacy classes closed under
    products, then the unitriangular ones, each tested with all of its
    elements as generators."""
    from kolchin import unitriangular_degree

    elems = list(enumerate_elements(rep).elements)
    index = {m: i for i, m in enumerate(elems)}
    mt = [[index[a * b] for b in elems] for a in elems]
    identity_class, *others = reference_conjugacy_classes(elems)
    unitriangular = []
    for mask in range(1 << len(others)):
        union = set(identity_class)
        for b, cls in enumerate(others):
            if mask >> b & 1:
                union.update(cls)
        if len(elems) % len(union):
            continue
        if all(mt[i][j] in union for i in union for j in union):
            sub = Representation(rep.field, [(f"n{i}", elems[i]) for i in sorted(union)])
            if unitriangular_degree(sub) is not None:
                unitriangular.append(frozenset(union))
    best = max(unitriangular, key=len)
    assert all(cand <= best for cand in unitriangular)
    return tuple(elems[i] for i in sorted(best))


def _gl2(p):
    return st.tuples(*[st.integers(0, p - 1)] * 4).filter(
        lambda e: (e[0] * e[3] - e[1] * e[2]) % p).map(lambda e: (e[:2], e[2:]))


_UPPER3 = st.tuples(*[st.sampled_from((1, 2))] * 3, *[st.integers(0, 2)] * 3).map(
    lambda e: ((e[0], e[3], e[4]), (0, e[1], e[5]), (0, 0, e[2])))

FINITE_GROUPS = st.one_of(
    st.tuples(st.just(3), st.lists(_gl2(3), min_size=1, max_size=2)),
    st.tuples(st.just(5), st.lists(_gl2(5), min_size=1, max_size=2)),
    st.tuples(st.just(3), st.lists(_UPPER3, min_size=1, max_size=2)),
)


@settings(max_examples=60)
@given(FINITE_GROUPS)
@example((3, [((1, 1), (0, 1)), ((0, 1), (1, 1))]))  # GL(2,3): Sylow 3-subgroups not normal
@example((5, [((1, 1), (0, 1)), ((2, 0), (0, 1))]))  # order 20, radical of order 5
def test_oracle_matches_class_mask_search(draw):
    p, mats = draw
    rep = Representation(GF(p), {f"g{i}": Matrix(GF(p), m) for i, m in enumerate(mats)})
    table = enumerate_elements(rep)
    classes = conjugacy_classes(table)
    assert classes == reference_conjugacy_classes(list(table.elements))
    # the mask search takes 2^classes unions and order^2 products
    if len(classes) <= 14 and len(table) <= 160:
        assert brute_force_unipotent_radical(rep) == reference_radical(rep)


def reference_enumeration(rep):
    """The former enumeration: each element with its whole shortest word."""
    letters = [(name, 1, rep.generator(name)) for name in rep.names]
    letters += [(name, -1, rep.inverse(name)) for name in rep.names]
    words = {rep.identity(): Word()}
    frontier = [rep.identity()]
    while frontier:
        new = []
        for m in frontier:
            for name, e, mat in letters:
                prod = m * mat
                if prod not in words:
                    words[prod] = words[m] * Word(((name, e),))
                    new.append(prod)
        frontier = new
    return words


@settings(max_examples=40)
@given(FINITE_GROUPS)
@example((3, [((1, 1), (0, 1)), ((0, 1), (1, 1))]))
def test_tree_and_columns_match_products(draw):
    p, mats = draw
    rep = Representation(GF(p), {f"g{i}": Matrix(GF(p), m) for i, m in enumerate(mats)})
    table = enumerate_elements(rep)
    words = reference_enumeration(rep)
    # the same discovery order, and the tree spells the same shortest words
    assert table.closed and list(table.elements) == list(words)
    assert [tree_word(table, i) for i in range(len(table))] == list(words.values())
    elems = list(table.elements)
    for (name, e), column in table.columns.items():
        letter = rep.generator(name) if e == 1 else rep.inverse(name)
        assert column == [table.elements[x * letter] for x in elems]


@settings(max_examples=60)
@given(FINITE_GROUPS)
def test_oracle_span_test_agrees_with_unitriangular_degree(draw):
    p, mats = draw
    rep = Representation(GF(p), {f"g{i}": Matrix(GF(p), m) for i, m in enumerate(mats)})
    tested = []
    original = reps.difference_product_spans

    def recording(diffs, upto):
        # the oracle passes each member's g - 1; the identity added back gives g
        spans = original(diffs, upto)
        one = rep.identity()
        sub = Representation(rep.field, {f"n{i}": d + one for i, d in enumerate(diffs)})
        tested.append((sub, spans[-1].is_zero()))
        return spans

    with mock.patch.object(reps, "difference_product_spans", recording):
        brute_force_unipotent_radical(rep)
    assert tested
    for sub, unitriangular in tested:
        assert unitriangular == (unitriangular_degree(sub) is not None)


def test_oracle_matches_class_mask_search_over_q():
    # the dihedral group of order 8, conjugated to have fraction entries
    p = Matrix(QQ, [[1, "1/2"], [0, 3]])
    rep = Representation(QQ, {
        "r": p.inverse() * Matrix(QQ, [[0, -1], [1, 0]]) * p,
        "s": p.inverse() * Matrix(QQ, [[1, 0], [0, -1]]) * p,
    })
    table = enumerate_elements(rep)
    assert len(table) == 8
    classes = conjugacy_classes(table)
    assert classes == reference_conjugacy_classes(list(table.elements))
    assert sorted(map(len, classes)) == [1, 1, 2, 2, 2]
    assert brute_force_unipotent_radical(rep) == reference_radical(rep) == (rep.identity(),)


def generator_order_invariants(rep):
    """What a renaming or reordering of the generators must leave alone."""
    flag = reps.kolchin_flag(rep)
    steps = (flag.flag.steps if isinstance(flag, reps.UnitriCertificate)
             else (flag.stage, flag.reached))
    try:
        radical = reps.unipotent_radical(rep).ideal.span
    except CharacteristicTooSmallError:
        radical = None
    return (steps, unitriangular_degree(rep), radical,
            frozenset(brute_force_unipotent_radical(rep)))


@settings(max_examples=40)
@given(FINITE_GROUPS, st.permutations(range(2)),
       st.lists(st.from_regex(r"[a-z][a-z0-9_]{0,3}", fullmatch=True),
                min_size=2, max_size=2, unique=True))
@example((3, [((1, 1), (0, 1)), ((0, 1), (1, 1))]), [1, 0], ["b", "a"])
@example((5, [((1, 1), (0, 1)), ((2, 0), (0, 1))]), [1, 0], ["x", "y"])  # radical order 5
@example((3, [((1, 1, 0), (0, 1, 0), (0, 0, 1)), ((1, 0, 0), (0, 1, 1), (0, 0, 1))]),
         [1, 0], ["b", "a"])  # Heisenberg mod 3: a flag of three steps
# p = 0 is Q: the dihedral group of order 8 in a basis with fraction entries
@example((0, [(("-1/6", "-37/12"), ("1/3", "1/6")), ((1, 1), (0, -1))]), [1, 0], ["s", "r"])
def test_renaming_and_reordering_generators_changes_nothing(draw, order, names):
    p, mats = draw
    field = GF(p) if p else QQ
    rep = Representation(field, {f"g{i}": Matrix(field, m) for i, m in enumerate(mats)})
    order = [i for i in order if i < len(mats)]
    renamed = Representation(field, [(names[j], Matrix(field, mats[i]))
                                     for j, i in enumerate(order)])
    assert generator_order_invariants(renamed) == generator_order_invariants(rep)


# References for the commutator walks: each step inverts c from scratch
# and multiplies four matrices, and words are evaluated from the identity.

def reference_evaluate_word(rep, w):
    acc = rep.identity()
    for name, e in w.letters:
        acc = acc * (rep.generator(name) if e == 1 else rep.inverse(name))
    return acc


def reference_kaloujnine(rep, degree, sample_budget, word_length_cap, seed):
    rng = random.Random(seed)
    pool = [random_word(rng, rep.names, word_length_cap) for _ in range(reps.KALOUJNINE_POOL)]
    mats = [reference_evaluate_word(rep, w) for w in pool]
    for _ in range(sample_budget):
        picks = [rng.randrange(reps.KALOUJNINE_POOL) for _ in range(degree)]
        c = mats[picks[0]]
        for t in picks[1:]:
            if c.is_identity():
                break
            g = mats[t]
            c = c.inverse() * g.inverse() * c * g
        if not c.is_identity():
            return tuple(pool[t] for t in picks)
    return None


def reference_engel(rep, n, sample_budget, length_cap, seed):
    rng = random.Random(seed)
    for _ in range(sample_budget):
        wx = random_word(rng, rep.names, length_cap)
        wy = random_word(rng, rep.names, length_cap)
        c, y = reference_evaluate_word(rep, wx), reference_evaluate_word(rep, wy)
        for _ in range(n):
            if c.is_identity():
                break
            c = c.inverse() * y.inverse() * c * y
        if not c.is_identity():
            return (wx, wy)
    return None


def reference_commutator(x, g):
    return x.inverse() * g.inverse() * x * g


def reference_left_normed(x, g, n):
    c = x
    for _ in range(n):
        c = reference_commutator(c, g)
    return c


def reference_nil_index(g, x, depth_cap):
    c = x
    for n in range(1, depth_cap + 1):
        c = c.inverse() * g.inverse() * c * g
        if c.is_identity():
            return n
    return None


def reference_algebraic(g, x, depth_cap, element_cap):
    table = {Matrix.identity(g.field, g.nrows)}
    sub_gens = []
    c = x
    for k in range(1, depth_cap + 1):
        c = c.inverse() * g.inverse() * c * g
        if c in table:
            return k
        sub_gens.append(c)
        sub = Representation(g.field, [(f"c{i}", m) for i, m in enumerate(sub_gens)])
        table = set(enumerate_elements(sub, element_cap).elements)
    return None


@st.composite
def walk_groups(draw, primes=(None, 2, 3, 5), sizes=st.integers(2, 3)):
    """One or two conjugated triangular generators over Q (with fraction
    entries, ``p`` None) or F_p, for p drawn from ``primes`` and the size
    from ``sizes``, unipotent or not."""
    p = draw(st.sampled_from(primes))
    field = QQ if p is None else GF(p)
    n = draw(sizes)
    if p is None:
        entry = st.fractions(-3, 3, max_denominator=4)
        unit = st.sampled_from((2, -1, Fraction(1, 2)))
    else:
        entry, unit = st.integers(0, p - 1), st.integers(1, p - 1)
    unipotent = draw(st.booleans())

    def triangular(above, diagonal):
        return Matrix(field, [[draw(diagonal) if i == j else draw(entry) if above(i, j) else 0
                               for j in range(n)] for i in range(n)])

    conj = triangular(lambda i, j: i > j, st.just(1))
    gens = {}
    for name in ("a", "b")[:draw(st.integers(1, 2))]:
        t = triangular(lambda i, j: i < j, st.just(1) if unipotent else unit)
        gens[name] = conj.inverse() * t * conj
    return Representation(field, gens)


HEIS_FRAC = load_representation(str(Path(__file__).parent / "golden" / "heis_frac.json"))
HEIS_F3 = Representation(GF(3), {name: Matrix(GF(3), m.rows)
                                 for name, m in heisenberg().items()})


def assert_walks_match(rep, degree, depth, seed, length_cap):
    """Each walk returns what its reference does; the
    Kaloujnine and Engel results are returned."""
    witness = kaloujnine_class_check(rep, degree, 15, length_cap, seed)
    assert witness == reference_kaloujnine(rep, degree, 15, length_cap, seed)
    pair = engel_probe(rep, depth, 8, length_cap, seed)
    assert pair == reference_engel(rep, depth, 8, length_cap, seed)
    rng = random.Random(seed)
    wx, wg = random_word(rng, rep.names, length_cap), random_word(rng, rep.names, length_cap)
    x, g = evaluate_word(rep, wx), evaluate_word(rep, wg)
    assert x == reference_evaluate_word(rep, wx) and g == reference_evaluate_word(rep, wg)
    assert nil_index_probe(g, x, depth) == reference_nil_index(g, x, depth)
    assert algebraic_element_probe(g, x, depth, 30) == reference_algebraic(g, x, depth, 30)
    return witness, pair


@settings(max_examples=100)
@given(walk_groups(), st.integers(1, 4), st.integers(1, 3), st.integers(0, 999),
       st.integers(1, 4))
@example(HEIS_FRAC, 1, 1, 0, 4)
@example(HEIS_F3, 2, 1, 5, 3)
def test_walks_match_their_references(rep, degree, depth, seed, length_cap):
    assert_walks_match(rep, degree, depth, seed, length_cap)


@pytest.mark.parametrize("rep", [HEIS_FRAC, HEIS_F3], ids=["Q", "F3"])
def test_walk_edge_cases_match_their_references(rep):
    # a pool of words of length at most 2 holds some a a^-1 that
    # evaluates to the identity; degree 1 returns the first other pick
    seed = 3
    rng = random.Random(seed)
    pool = [random_word(rng, rep.names, 2) for _ in range(reps.KALOUJNINE_POOL)]
    assert any(evaluate_word(rep, w).is_identity() for w in pool)
    witness, pair = assert_walks_match(rep, 1, 1, seed, 2)
    assert len(witness) == 1 and not evaluate_word(rep, witness[0]).is_identity()
    # the Heisenberg group has class 2: an Engel pair at depth 1, none at
    # depth 2, and degree 2 is misdeclared (the true degree is 3)
    assert pair is not None
    witness, pair = assert_walks_match(rep, 2, 2, seed, 2)
    assert witness is not None and pair is None
    assert assert_walks_match(rep, 3, 3, seed, 2) == (None, None)


@pytest.mark.parametrize("p", [None, 2, 7, 2**61 - 1], ids=["Q", "F2", "F7", "F(2^61-1)"])
@pytest.mark.parametrize("sizes", [st.integers(1, SQUARE_PRODUCT_MAX),
                                   st.just(SQUARE_PRODUCT_MAX + 1)], ids=["straight", "generic"])
@settings(max_examples=12)
@given(data=st.data())
def test_row_walks_match_their_references_at_every_size(p, sizes, data):
    # sizes 1..9: the walks run on the square product of each size, the
    # straight-line one up to SQUARE_PRODUCT_MAX and the generic one above
    rep = data.draw(walk_groups((p,), sizes))
    degree, depth, seed = (data.draw(st.integers(1, 4)), data.draw(st.integers(1, 3)),
                           data.draw(st.integers(0, 999)))
    assert kaloujnine_class_check(rep, degree, 10, 3, seed) == \
        reference_kaloujnine(rep, degree, 10, 3, seed)
    assert engel_probe(rep, depth, 6, 3, seed) == reference_engel(rep, depth, 6, 3, seed)
    rng = random.Random(seed)
    x, g = (evaluate_word(rep, random_word(rng, rep.names, 3)) for _ in range(2))
    assert nil_index_probe(g, x, depth) == reference_nil_index(g, x, depth)


def test_nil_index_probe_inverts_g_only_above_depth_cap_one():
    # at depth cap 1 the walk is one commute test; at 2 it inverts g, and
    # x too since the first step of the Heisenberg walk is not trivial
    a, b = heisenberg().generator("a"), heisenberg().generator("b")
    for cap, expected, inversions in ((1, None, 0), (2, 2, 2)):
        with mock.patch.object(Matrix, "inverse", autospec=True,
                               side_effect=Matrix.inverse) as inverse:
            index = nil_index_probe(a, b, cap)
        assert inverse.call_count == inversions
        assert index == expected == reference_nil_index(a, b, cap)


def count_products(rep, call, *args):
    """The result of ``call(*args)`` and the number of square products it
    took at ``rep``'s size and field: calls of the kernel's product
    function, which matrix products and row walks share."""
    product = mock.Mock(side_effect=square_product(rep.field, rep.dim))
    with mock.patch.dict(_kernel(rep.field.p).squares, {rep.dim: product}):
        result = call(*args)
    return result, product.call_count


def pool_products(rep, degree, length_cap, seed):
    """Products ``kaloujnine_class_check`` spends on its pool, and its
    first picks for a budget of 50 samples."""
    rng = random.Random(seed)
    pool = [random_word(rng, rep.names, length_cap) for _ in range(reps.KALOUJNINE_POOL)]
    count = sum(max(len(w) - 1, 0) for w in pool) * (2 if degree > 2 else 1)
    picks = [[rng.randrange(reps.KALOUJNINE_POOL) for _ in range(degree)] for _ in range(50)]
    return count, [[evaluate_word(rep, pool[t]) for t in p] for p in picks]


def test_evaluate_word_takes_one_product_per_letter_after_the_first():
    rep = heisenberg()
    for text, products in (("1", 0), ("a", 0), ("a b", 1), ("a a^-1", 1), ("a b^-1 a b a", 4)):
        m, count = count_products(rep, evaluate_word, rep, Word.parse(text))
        assert count == products and m == reference_evaluate_word(rep, Word.parse(text))


def test_kaloujnine_abelian_samples_take_one_commute_test():
    # E12 and E13 commute: each sample whose first pick is not 1 costs two products
    rep = Representation(QQ, {"a": unit_matrix(QQ, 3, 0, 1) + Matrix.identity(QQ, 3),
                              "b": unit_matrix(QQ, 3, 0, 2) + Matrix.identity(QQ, 3)})
    for degree in (2, 3, 4):
        pool, picks = pool_products(rep, degree, 4, degree)
        result, count = count_products(rep, kaloujnine_class_check, rep, degree, 50, 4, degree)
        assert result is None
        assert count - pool == 2 * sum(not p[0].is_identity() for p in picks)


def assert_class_two_samples_build_no_inverse(degree):
    """Heisenberg has class 2, so the second step of a sample always
    commutes.  A first step that does not commute takes three products
    (h = g^-1 (c g), then [c, g] = c^-1 h) and the second step two, and
    [c, g]^-1, read only by a second step that does not commute, is
    never built."""
    rep = heisenberg()
    pool, picks = pool_products(rep, degree, 4, 9)
    expected = 0
    for c, g, *_ in picks:
        if not c.is_identity():
            expected += 2 if c * g == g * c else 5
    result, count = count_products(rep, kaloujnine_class_check, rep, degree, 50, 4, 9)
    assert result is None and count - pool == expected
    assert any(c * g != g * c for c, g, *_ in picks)


def test_kaloujnine_degree_three_builds_no_inverse():
    # the second step is the last one: the commute test c g == g c
    assert_class_two_samples_build_no_inverse(3)


def test_kaloujnine_degree_four_never_builds_an_inverse_the_next_step_does_not_read():
    # the second step is in conjugate form and finds h == c
    assert_class_two_samples_build_no_inverse(4)


def test_engel_samples_whose_first_step_commutes_evaluate_no_inverse_of_x():
    # per sample: y, y^-1 (depth 2 > 1) and x, and x^-1 only when the
    # first step, its one reader, does not commute
    rep = heisenberg()
    with mock.patch("kolchin.words.evaluate_word", side_effect=evaluate_word) as evaluated:
        assert engel_probe(rep, 2, 40, 4, 5) is None
    rng = random.Random(5)
    expected, commuting = [], 0
    for _ in range(40):
        wx, wy = random_word(rng, rep.names, 4), random_word(rng, rep.names, 4)
        x, y = evaluate_word(rep, wx), evaluate_word(rep, wy)
        expected += [wy, wy.inverse(), wx]
        if x * y == y * x:
            commuting += 1
        else:
            expected.append(wx.inverse())
    assert [call.args[1] for call in evaluated.call_args_list] == expected
    assert 0 < commuting < 40
