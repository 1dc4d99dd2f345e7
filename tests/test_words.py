import random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kolchin import (
    GF,
    QQ,
    Matrix,
    NotFiniteError,
    Representation,
    Word,
    algebraic_element_probe,
    brute_force_unipotent_radical,
    commutator,
    engel_probe,
    enumerate_elements,
    evaluate_word,
    left_normed_commutator,
    nil_index_probe,
    unitriangular_degree,
)
from kolchin import reps
from kolchin.words import cayley_table, conjugacy_classes, random_word
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


def test_enumerate_length_cap():
    rep = Representation(QQ, {"u": Matrix(QQ, [[1, 1], [0, 1]])})
    table = enumerate_elements(rep, length_cap=3)
    assert not table.closed
    assert len(table) == 7  # u^-3 .. u^3


def test_enumerate_shortest_witnesses():
    rep = order_six_rep()
    table = enumerate_elements(rep)
    assert len(table) == 6
    for m, w in table.elements.items():
        assert evaluate_word(rep, w) == m
    assert table.witness(rep.identity()) == Word()


def test_lagrange_spot_checks():
    whole = order_six_rep()
    order = len(enumerate_elements(whole))
    for name in whole.names:
        sub = Representation(GF(3), {name: whole.generator(name)})
        assert order % len(enumerate_elements(sub)) == 0


def test_left_normed_commutator_examples():
    rep = heisenberg()
    a, b = rep.generator("a"), rep.generator("b")
    assert left_normed_commutator(b, Matrix.identity(QQ, 3), 1).is_identity()
    c1 = left_normed_commutator(b, a, 1)
    assert c1 == Matrix(QQ, [[1, 0, -1], [0, 1, 0], [0, 0, 1]])
    assert not c1.is_identity()
    # central element: the next commutation kills it
    assert left_normed_commutator(b, a, 2).is_identity()
    assert commutator(b, a) == c1


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
        assert left_normed_commutator(x, g, n - 1).is_identity()


def test_nil_index_probe_examples():
    rep = heisenberg()
    a, b = rep.generator("a"), rep.generator("b")
    assert nil_index_probe(Matrix.identity(QQ, 3), b) == 1
    assert nil_index_probe(a, b) == 2
    g = Matrix(QQ, [[2, 0], [0, 1]])
    x = Matrix(QQ, [[1, 1], [0, 1]])
    assert nil_index_probe(g, x, depth_cap=10) is None


def test_engel_probe():
    trivial = Representation(QQ, {"e": Matrix.identity(QQ, 2)})
    assert engel_probe(trivial, 1, sample_budget=50) is None
    rep = heisenberg()
    assert engel_probe(rep, 2, sample_budget=200) is None
    pair = engel_probe(rep, 1, sample_budget=200)
    assert pair is not None
    x = evaluate_word(rep, pair[0])
    y = evaluate_word(rep, pair[1])
    assert not commutator(x, y).is_identity()


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
    classes = conjugacy_classes(cayley_table(rep, table))
    assert sorted(len(c) for c in classes) == [1, 2, 3]


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
    with pytest.raises(ValueError):
        enumerate_elements(rep, element_cap=10, length_cap=0)


def reference_conjugacy_classes(elems):
    """Classes from matrix products, as the oracle found them before it
    worked on the Cayley table."""
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
    classes = conjugacy_classes(cayley_table(rep, table))
    assert classes == reference_conjugacy_classes(list(table.elements))
    # the mask search takes 2^classes unions and order^2 products
    if len(classes) <= 14 and len(table) <= 160:
        assert brute_force_unipotent_radical(rep) == reference_radical(rep)


@settings(max_examples=60)
@given(FINITE_GROUPS)
def test_oracle_span_test_agrees_with_unitriangular_degree(draw):
    p, mats = draw
    rep = Representation(GF(p), {f"g{i}": Matrix(GF(p), m) for i, m in enumerate(mats)})
    tested = []
    original = reps._difference_product_spans

    def recording(field, n, gens, upto):
        spans = original(field, n, gens, upto)
        sub = Representation(field, {f"n{i}": g for i, g in enumerate(gens)})
        tested.append((sub, spans[-1].is_zero()))
        return spans

    with mock.patch.object(reps, "_difference_product_spans", recording):
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
    classes = conjugacy_classes(cayley_table(rep, table))
    assert classes == reference_conjugacy_classes(list(table.elements))
    assert sorted(map(len, classes)) == [1, 1, 2, 2, 2]
    assert brute_force_unipotent_radical(rep) == reference_radical(rep) == (rep.identity(),)
