import random
from unittest import mock

import pytest

from kolchin import (
    GF,
    QQ,
    CharacteristicTooSmallError,
    LiftHypothesisError,
    Matrix,
    NotUnipotent,
    Representation,
    Subspace,
    UnitriCertificate,
    generator_identity_witness,
    ideal_closure,
    ideal_power_chain,
    invariant_series_from_identity,
    kaloujnine_class_check,
    kolchin_flag,
    lift_identity_through_nilpotent_ideal,
    regular_representation,
    unipotency_index,
    unipotent_radical,
    unitriangular_degree,
)
from kolchin import reps
from kolchin.algebra import Ideal
from kolchin.words import brute_force_unipotent_radical, enumerate_elements, evaluate_word, random_word
from corpus import (
    conjugated_unitriangular_rep,
    heisenberg,
    random_invertible,
    unit_matrix,
)


def trivial_rep(n=2):
    return Representation(QQ, {"e": Matrix.identity(QQ, n)})


def single_transvection():
    return Representation(QQ, {"t": Matrix(QQ, [[1, 1], [0, 1]])})


def diag_rep():
    return Representation(QQ, {"d": Matrix(QQ, [[2, 0], [0, 1]])})


def test_representation_validation():
    with pytest.raises(ValueError):
        Representation(QQ, {"s": Matrix(QQ, [[1, 0], [2, 0]])})  # singular
    with pytest.raises(ValueError):
        Representation(QQ, [("a", Matrix.identity(QQ, 2)), ("a", Matrix.identity(QQ, 2))])
    with pytest.raises(ValueError):
        Representation(QQ, {})
    with pytest.raises(ValueError):
        Representation(QQ, {"a": Matrix.identity(QQ, 2), "b": Matrix.identity(QQ, 3)})


def test_unipotency_index_examples():
    rep = single_transvection()
    assert unipotency_index(rep, rep.identity()) == 1
    assert unipotency_index(rep, rep.generator("t")) == 2
    d = diag_rep()
    assert unipotency_index(d, d.generator("d")) is None


def test_nilpotency_index_takes_size_minus_one_products():
    # nil^size decides a non-unipotent element; nil^(size + 1) is never read
    f5 = GF(5)
    for size in (2, 3):
        d = Matrix(f5, [[2 if i == j == 0 else int(i == j) for j in range(size)]
                        for i in range(size)])
        rep = Representation(f5, {"d": d})
        with mock.patch.object(Matrix, "__mul__", autospec=True,
                               side_effect=Matrix.__mul__) as product:
            assert unipotency_index(rep, d) is None
        assert product.call_count == size - 1


def test_kolchin_trivial():
    cert = kolchin_flag(trivial_rep(3))
    assert isinstance(cert, UnitriCertificate)
    assert cert.degree == 1
    assert [s.dim for s in cert.flag.steps] == [0, 3]


def test_kolchin_heisenberg():
    cert = kolchin_flag(heisenberg())
    assert cert.degree == 3
    assert cert.flag.steps[1] == Subspace(QQ, 3, [[0, 0, 1]])
    assert cert.flag.steps[2] == Subspace(QQ, 3, [[0, 1, 0], [0, 0, 1]])
    assert cert.base_change == Matrix(QQ, [[0, 0, 1], [0, 1, 0], [1, 0, 0]])


def test_kolchin_base_change_triangularizes():
    rep = heisenberg()
    cert = kolchin_flag(rep)
    p, pinv = cert.base_change, cert.base_change.inverse()
    for g in rep.generators:
        c = p * g * pinv
        for i in range(rep.dim):
            assert c.rows[i][i] == 1
            for j in range(i + 1, rep.dim):
                assert c.rows[i][j] == 0


def test_kolchin_failure_stage():
    res = kolchin_flag(diag_rep())
    assert isinstance(res, NotUnipotent)
    assert res.stage == 2
    assert res.reached == Subspace(QQ, 2, [[0, 1]])


def test_kolchin_conjugation_invariance():
    rng = random.Random(17)
    rep = heisenberg()
    for _ in range(5):
        p = random_invertible(rng, QQ, 3)
        cert = kolchin_flag(rep.conjugated(p))
        assert isinstance(cert, UnitriCertificate)
        assert cert.degree == 3
    d = diag_rep()
    for _ in range(5):
        p = random_invertible(rng, QQ, 2)
        res = kolchin_flag(d.conjugated(p))
        assert isinstance(res, NotUnipotent)


def test_generator_identity_examples():
    assert generator_identity_witness(trivial_rep(), 1) is None
    assert generator_identity_witness(single_transvection(), 2) is None
    rep = heisenberg()
    assert generator_identity_witness(rep, 2) == ("a", "b")
    assert generator_identity_witness(rep, 3) is None


def test_invariant_series_examples():
    flag = invariant_series_from_identity(trivial_rep(2), 1)
    assert [s.dim for s in flag.steps] == [0, 2]
    flag = invariant_series_from_identity(single_transvection(), 2)
    assert flag.steps[1] == Subspace(QQ, 2, [[0, 1]])
    rep = heisenberg()
    flag = invariant_series_from_identity(rep, 3)
    assert flag.steps == kolchin_flag(rep).flag.steps
    # a longer verified length collapses to the same chain
    assert invariant_series_from_identity(rep, 4).steps == flag.steps


def test_invariant_series_requires_identity():
    with pytest.raises(ValueError):
        invariant_series_from_identity(heisenberg(), 2)


def test_unitriangular_degree_examples():
    assert unitriangular_degree(trivial_rep()) == 1
    assert unitriangular_degree(heisenberg()) == 3
    assert unitriangular_degree(diag_rep()) is None


def test_augmentation_ideal_heisenberg():
    env = heisenberg().enveloping()
    assert env.algebra.dim == 4
    assert env.augmentation_ideal.dim == 3
    chain, index = ideal_power_chain(env.algebra, env.augmentation_ideal)
    assert index == 3
    assert [s.dim for s in chain] == [3, 1, 0]


def test_enveloping_computes_each_ideal_once_on_first_read():
    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    with mock.patch.object(reps, "ideal_closure", counted("augmentation", reps.ideal_closure)), \
            mock.patch.object(reps, "ideal_power_chain", counted("chain", reps.ideal_power_chain)), \
            mock.patch.object(reps, "trace_radical", counted("trace", reps.trace_radical)):
        # unipotent: the radical is the augmentation ideal, and its chain
        # serves the degree as well
        rep = heisenberg()
        env = rep.enveloping()
        assert env.algebra.dim == 4 and calls == []
        assert env.radical.dim == 3 and env.radical is env.radical
        assert calls == ["augmentation", "chain"]
        assert env.augmentation_ideal is env.radical
        assert env.augmentation_index == 3 and unitriangular_degree(rep) == 3
        assert calls == ["augmentation", "chain"]

        # not unipotent: d - 1 is not nilpotent, so the trace form runs
        # once, the index is None without a closure or a chain, and the
        # augmentation ideal waits for its own first read
        calls.clear()
        env = diag_rep().enveloping()
        assert env.algebra.dim == 2 and calls == []
        assert env.radical.is_zero() and env.radical is env.radical
        assert env.augmentation_index is None
        assert calls == ["trace"]
        assert env.augmentation_ideal.dim == 1
        assert env.augmentation_ideal is env.augmentation_ideal
        assert calls == ["trace", "augmentation"]

        # the degree of a fresh non-unipotent group builds no ideal
        calls.clear()
        assert unitriangular_degree(diag_rep()) is None and calls == []


def test_augmentation_closure_multiplies_only_its_seeds_on_the_left():
    # the right spin takes k products per kept element, and the left
    # products of the k kept seeds g - 1 all fall inside the right ideal
    a = heisenberg().enveloping().algebra
    one = Matrix.identity(QQ, 3)
    seeds = [g - one for g in a.generators]
    with mock.patch.object(Matrix, "__mul__", autospec=True,
                           side_effect=Matrix.__mul__) as product:
        i = ideal_closure(a, seeds)
    k = len(a.generators)
    assert i.dim == 3 and i.generators == tuple(seeds)
    assert product.call_count == k * i.dim + k * len(i.generators) == 10


def test_kolchin_iff_finite_degree():
    for rep in (trivial_rep(), single_transvection(), heisenberg(), diag_rep()):
        cert = kolchin_flag(rep)
        degree = unitriangular_degree(rep)
        assert isinstance(cert, UnitriCertificate) == (degree is not None)
        if degree is not None:
            assert degree <= len(cert.flag.steps)
            assert cert.degree == degree  # full flags from fixed spaces match here


def test_identity_upgrade_to_words():
    rep = heisenberg()
    rng = random.Random(23)
    one = rep.identity()
    for _ in range(200):
        mats = [evaluate_word(rep, random_word(rng, rep.names, 8)) for _ in range(3)]
        prod = one
        for m in mats:
            prod = prod * (m - one)
        assert prod.is_zero()


def test_lift_through_zero_ideal_is_noop():
    rep = single_transvection()
    env = rep.enveloping()
    zero = ideal_closure(env.algebra, [Matrix.zero(QQ, 2, 2)])
    assert lift_identity_through_nilpotent_ideal(rep, zero, 2) == 2


def test_lift_heisenberg_through_augmentation():
    rep = heisenberg()
    env = rep.enveloping()
    assert lift_identity_through_nilpotent_ideal(rep, env.augmentation_ideal, 1) == 3
    assert unitriangular_degree(rep) == 3


def test_lift_transvection():
    rep = single_transvection()
    env = rep.enveloping()
    assert lift_identity_through_nilpotent_ideal(rep, env.augmentation_ideal, 1) == 2


def test_lift_hypothesis_failure():
    rep = heisenberg()
    env = rep.enveloping()
    zero = ideal_closure(env.algebra, [Matrix.zero(QQ, 3, 3)])
    with pytest.raises(LiftHypothesisError) as info:
        lift_identity_through_nilpotent_ideal(rep, zero, 1)
    assert info.value.witness == ("a",)


def test_lift_rejects_non_nilpotent_ideal():
    rep = diag_rep()
    env = rep.enveloping()
    with pytest.raises(ValueError):
        lift_identity_through_nilpotent_ideal(rep, env.augmentation_ideal, 1)


def test_regular_representation_trivial():
    rr = regular_representation(trivial_rep(3))
    assert rr.dim == 1
    assert rr.generator("e").is_identity()


def test_regular_representation_transvection():
    rr = regular_representation(single_transvection())
    assert rr.dim == 2
    assert rr.generator("t") == Matrix(QQ, [[1, 1], [0, 1]])


def test_regular_representation_heisenberg():
    rep = heisenberg()
    rr = regular_representation(rep)
    assert rr.dim == 4
    assert unitriangular_degree(rr) == unitriangular_degree(rep) == 3


def test_regular_transfer_negative():
    rep = diag_rep()
    rr = regular_representation(rep)
    assert unitriangular_degree(rep) is None
    assert unitriangular_degree(rr) is None


def test_unipotency_transfers_to_regular():
    rep = heisenberg()
    rr = regular_representation(rep)
    for name in rep.names:
        assert unipotency_index(rep, rep.generator(name)) is not None
        assert unipotency_index(rr, rr.generator(name)) is not None


def test_unipotent_radical_fully_unitriangular():
    rep = heisenberg()
    rad = unipotent_radical(rep)
    rng = random.Random(5)
    for _ in range(20):
        w = random_word(rng, rep.names, 6)
        assert rad.contains(evaluate_word(rep, w))


def test_unipotent_radical_mixed_group():
    rep = Representation(QQ, {
        "s": Matrix(QQ, [[-1, 0], [0, 1]]),
        "t": Matrix(QQ, [[1, 1], [0, 1]]),
    })
    rad = unipotent_radical(rep)
    assert rad.ideal.dim == 1
    assert rad.contains(rep.generator("t"))
    assert not rad.contains(rep.generator("s"))


def test_unipotent_radical_finite_subgroup():
    rep = Representation(GF(3), {
        "u": Matrix(GF(3), [[1, 1], [0, 1]]),
        "d": Matrix(GF(3), [[-1, 0], [0, 1]]),
    })
    rad = unipotent_radical(rep)
    table = enumerate_elements(rep)
    assert table.closed
    members = [m for m in table.elements if rad.contains(m)]
    assert len(members) == 3
    brute = brute_force_unipotent_radical(rep)
    assert set(members) == set(brute)


def test_unipotent_radical_char_constraint():
    rep = Representation(GF(2), {"u": Matrix(GF(2), [[1, 1], [0, 1]])})
    with pytest.raises(CharacteristicTooSmallError):
        unipotent_radical(rep)


def test_radical_and_locally_unitriangular_predicates_agree():
    # both predicates reduce to (g - 1) in the radical; on finite groups the
    # member set is exactly the brute-force maximal normal unitriangular one
    rep = Representation(GF(5), {
        "u": Matrix(GF(5), [[1, 2], [0, 1]]),
        "d": Matrix(GF(5), [[4, 0], [0, 1]]),
    })
    rad = unipotent_radical(rep)
    table = enumerate_elements(rep)
    assert table.closed
    members = {m for m in table.elements if rad.contains(m)}
    assert members == set(brute_force_unipotent_radical(rep))


def test_kaloujnine_consistent():
    assert kaloujnine_class_check(single_transvection(), 2, sample_budget=200) is None
    assert kaloujnine_class_check(heisenberg(), 3, sample_budget=200) is None


def test_kaloujnine_detects_wrong_degree():
    witness = kaloujnine_class_check(heisenberg(), 2, sample_budget=500)
    assert witness is not None
    rep = heisenberg()
    mats = [evaluate_word(rep, w) for w in witness]
    c = mats[0]
    for g in mats[1:]:
        c = c.inverse() * g.inverse() * c * g
    assert not c.is_identity()


def test_kaloujnine_determinism():
    rep = heisenberg()
    a = kaloujnine_class_check(rep, 2, sample_budget=300, seed=9)
    b = kaloujnine_class_check(rep, 2, sample_budget=300, seed=9)
    assert a == b


def test_conjugated_corpus_round_trip():
    rng = random.Random(31)
    rep = conjugated_unitriangular_rep(rng, 4, 3, rational=True)
    cert = kolchin_flag(rep)
    assert isinstance(cert, UnitriCertificate)
    assert unitriangular_degree(rep) is not None


def _recursive_first_tuple(diffs, n, dead, start):
    """The recursive sweep the iterative one replaced, kept as a reference."""
    def walk(prefix, chosen):
        if len(chosen) == n:
            return chosen
        for name, d in diffs:
            prod = d if prefix is None else prefix * d
            if not dead(prod):
                hit = walk(prod, chosen + (name,))
                if hit is not None:
                    return hit
        return None

    return walk(start, ())


def test_iterative_sweeps_match_recursive_reference():
    rng = random.Random(97)
    for trial in range(12):
        rep = conjugated_unitriangular_rep(rng, rng.randint(3, 4), rng.randint(2, 3))
        if trial % 3 == 0:  # a non-unipotent generator makes some branches live forever
            rep = Representation(QQ, list(rep.items()) + [
                ("d", Matrix(QQ, [[2 if i == j == 0 else int(i == j) for j in range(rep.dim)]
                                  for i in range(rep.dim)]))])
        one = rep.identity()
        diffs = [(name, rep.generator(name) - one) for name in rep.names]
        radical = rep.enveloping().radical
        for n in range(1, 5):
            assert generator_identity_witness(rep, n) == \
                _recursive_first_tuple(diffs, n, Matrix.is_zero, one)
            expected = _recursive_first_tuple(diffs, n, radical.contains, None)
            if expected is None:
                lift_identity_through_nilpotent_ideal(rep, radical, n)
            else:
                with pytest.raises(LiftHypothesisError) as info:
                    lift_identity_through_nilpotent_ideal(rep, radical, n)
                assert info.value.witness == expected


def test_long_identity_sweeps_do_not_recurse():
    rep = Representation(QQ, {"a": Matrix(QQ, [[2, 0], [0, 1]])})
    assert generator_identity_witness(rep, 5000) == ("a",) * 5000
    with pytest.raises(LiftHypothesisError) as info:
        lift_identity_through_nilpotent_ideal(rep, rep.enveloping().radical, 5000)
    assert info.value.witness == ("a",) * 5000
