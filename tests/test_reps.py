import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from kolchin import algebra, reps
from kolchin.algebra import Ideal, minimal_standard_degree, span_closure, trace_radical
from kolchin.linalg import RowSpan
from kolchin.words import (Word, brute_force_unipotent_radical, enumerate_elements, evaluate_word,
                           random_word)
from corpus import (
    conjugated,
    conjugated_unitriangular_rep,
    heisenberg,
    random_invertible,
    scalars,
    unit_matrix,
    unitriangular,
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
        cert = kolchin_flag(conjugated(rep, p))
        assert isinstance(cert, UnitriCertificate)
        assert cert.degree == 3
    d = diag_rep()
    for _ in range(5):
        p = random_invertible(rng, QQ, 2)
        res = kolchin_flag(conjugated(d, p))
        assert isinstance(res, NotUnipotent)


def _invertible(draw, field, n, shape):
    """An invertible n x n matrix: U for "unitriangular", D U for
    "triangular", and a row permutation of L D U for "full" (L lower and
    U upper unitriangular, D diagonal with nonzero entries)."""
    m = unitriangular(draw, field, n)
    if shape == "unitriangular":
        return m
    m = Matrix(field, [[draw(scalars(field, True)) if i == j else 0 for j in range(n)]
                       for i in range(n)]) * m
    if shape == "triangular":
        return m
    rows = (unitriangular(draw, field, n, lower=True) * m).rows
    return Matrix(field, [rows[i] for i in draw(st.permutations(range(n)))])


@st.composite
def shaped_groups(draw, fields=(QQ, GF(5))):
    """(group, P, renamed): a group over Q (with fraction entries) or
    GF(5) whose generators are all unitriangular, all triangular or all
    invertible, or are upper and lower unitriangular in turn with
    nonzero entries in their strict triangles, so that each is unipotent
    and the group, from n = 2 on, is not; an invertible P; and the same
    matrices in a drawn order under fresh names."""
    field = draw(st.sampled_from(fields))
    n = draw(st.integers(1, 3))
    shape = draw(st.sampled_from(["unitriangular", "triangular", "full", "upper and lower"]))
    if shape == "upper and lower":
        gens = [unitriangular(draw, field, n, lower=i % 2 == 1, nonzero=True)
                for i in range(draw(st.integers(2, 3)))]
    else:
        gens = [_invertible(draw, field, n, shape) for _ in range(draw(st.integers(1, 3)))]
    rep = Representation(field, {f"g{i}": g for i, g in enumerate(gens)})
    order = draw(st.permutations(range(len(gens))))
    renamed = Representation(field, [(f"h{j}", gens[i]) for j, i in enumerate(order)])
    return rep, _invertible(draw, field, n, "full"), renamed


def _conjugation_invariants(rep):
    res = kolchin_flag(rep)
    flag = (("degree", res.degree, [s.dim for s in res.flag.steps])
            if isinstance(res, UnitriCertificate) else ("stage", res.stage, res.reached.dim))
    return (flag, unitriangular_degree(rep), rep.algebra.dim, rep.radical.dim,
            minimal_standard_degree(rep.algebra, 2 * rep.dim)[1])


@settings(max_examples=150)
@given(shaped_groups())
def test_random_groups_are_invariant_under_conjugation_and_renaming(drawn):
    # p g p^-1 is the same group in another basis, and a renaming or
    # reordering of the generators is the same group: neither may change
    # an answer, and a renaming not even a span
    rep, p, renamed = drawn
    assert _conjugation_invariants(conjugated(rep, p)) == _conjugation_invariants(rep)
    assert renamed.algebra.span == rep.algebra.span
    assert renamed.radical.span == rep.radical.span


P61 = 2 ** 61 - 1


@settings(max_examples=150)
@given(shaped_groups(fields=(QQ,)))
def test_random_groups_over_q_answer_as_their_reductions_mod_a_large_prime(drawn):
    # 2^61 - 1 divides no denominator or determinant of these small
    # groups, so reducing mod it should change no answer
    rep, p, _ = drawn
    rep = conjugated(rep, p)
    reduced = Representation(GF(P61), [(name, Matrix(GF(P61), g.rows)) for name, g in rep.items()])
    assert _conjugation_invariants(reduced) == _conjugation_invariants(rep)


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
    rep = heisenberg()
    assert rep.algebra.dim == 4
    assert rep.augmentation_ideal.dim == 3
    chain, index = ideal_power_chain(rep.algebra, rep.augmentation_ideal)
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
            mock.patch.object(algebra, "ideal_power_chain",
                              counted("chain", algebra.ideal_power_chain)), \
            mock.patch.object(reps, "trace_radical", counted("trace", reps.trace_radical)):
        # unipotent: the span series ends at 0, so the radical is the
        # augmentation ideal with no chain; the degree alone runs one
        rep = heisenberg()
        assert rep.algebra.dim == 4 and calls == []
        assert rep.radical.dim == 3 and rep.radical is rep.radical
        assert calls == ["augmentation"]
        assert rep.augmentation_ideal is rep.radical
        assert rep.augmentation_index == 3 and unitriangular_degree(rep) == 3
        assert calls == ["augmentation", "chain"]

        # not unipotent: the series stops above 0, so the trace form runs
        # once, the index is None without a closure or a chain, and the
        # augmentation ideal waits for its own first read
        calls.clear()
        rep = diag_rep()
        assert rep.algebra.dim == 2 and calls == []
        assert rep.radical.is_zero() and rep.radical is rep.radical
        assert rep.augmentation_index is None
        assert calls == ["trace"]
        assert rep.augmentation_ideal.dim == 1
        assert rep.augmentation_ideal is rep.augmentation_ideal
        assert calls == ["trace", "augmentation"]

        # the degree of a fresh non-unipotent group builds no ideal
        calls.clear()
        assert unitriangular_degree(diag_rep()) is None and calls == []


def test_unipotent_generators_of_a_group_that_is_not_unipotent_build_no_ideal():
    # each transvection is unipotent, but together they span M_2(Q): the
    # span series stops at V, so the index is None and the radical is the
    # trace-form kernel, with no augmentation closure and no chain
    rep = Representation(QQ, {"u": Matrix(QQ, [[1, 1], [0, 1]]),
                              "l": Matrix(QQ, [[1, 0], [1, 1]])})
    with mock.patch.object(reps, "ideal_closure", side_effect=reps.ideal_closure) as closure, \
            mock.patch.object(algebra, "ideal_power_chain",
                              side_effect=algebra.ideal_power_chain) as chain:
        assert rep.augmentation_index is None and unitriangular_degree(rep) is None
        assert rep.radical.is_zero() and rep.radical == trace_radical(rep.algebra)
    assert closure.call_count == chain.call_count == 0


def test_augmentation_closure_takes_no_left_product():
    # the algebra's spin multiplies each kept word by each of the k
    # generators g - 1 and then adds 1, with no product: k * dim I
    # products; the ideal closure of the algebra's own generators reads
    # the ideal that spin recorded
    rep = heisenberg()
    with mock.patch.object(Matrix, "__mul__", autospec=True,
                           side_effect=Matrix.__mul__) as product:
        a = span_closure(rep.field, rep.differences)
        spun = product.call_count
        i = ideal_closure(a, a.generators)
    k = len(a.generators)
    assert a == rep.algebra and a.dim == 4 and a.generators == rep.differences
    assert i.dim == 3 and i.generators == rep.differences
    assert spun == k * i.dim == 6
    assert product.call_count == spun


def test_the_unipotent_envelope_absorbs_no_zero_product(monkeypatch):
    # over the nilpotent g - 1 every product of three is zero, and no
    # closure or chain hands one to a span
    absorbed = []
    absorb = RowSpan.absorb
    monkeypatch.setattr(RowSpan, "absorb", lambda span, v: absorbed.append(v) or absorb(span, v))
    rep = heisenberg()
    assert unitriangular_degree(rep) == 3 and rep.radical.dim == 3
    assert absorbed and all(any(v) for v in absorbed)


def test_the_span_series_decides_identities_and_the_sweep_only_names_a_tuple():
    rep = heisenberg()
    spans = mock.patch.object(reps, "difference_product_spans",
                              wraps=reps.difference_product_spans)
    sweep = mock.patch.object(reps, "_first_live_tuple", wraps=reps._first_live_tuple)
    with spans as built, sweep as swept:
        assert generator_identity_witness(rep, 3) is None
        assert invariant_series_from_identity(rep, 3).degree == 3
    assert built.call_count == 1 and swept.call_count == 0
    # (a - 1)(b - 1) = e13 is not zero: the sweep runs once, to name it
    with sweep as swept:
        assert generator_identity_witness(rep, 2) == ("a", "b")
    assert swept.call_count == 1


@pytest.mark.parametrize("make", [
    heisenberg, diag_rep, lambda: conjugated_unitriangular_rep(random.Random(5), 4, 3, True)],
    ids=["heisenberg", "diagonal", "conjugated-unitriangular"])
def test_a_built_representation_subtracts_no_identity_again(make, monkeypatch):
    # each g - 1 is built once, on the first read of rep.differences; the
    # span series that the witness and the lift's closing check read is
    # spanned over those same differences, and subtracts nothing itself
    rep = make()
    differences = rep.differences
    assert differences == tuple(g - rep.identity() for g in rep.generators)
    subs = []
    sub = Matrix.__sub__
    monkeypatch.setattr(Matrix, "__sub__", lambda a, b: subs.append((a, b)) or sub(a, b))
    kolchin_flag(rep)
    generator_identity_witness(rep, rep.dim)
    ideal, index = rep.augmentation_ideal, rep.augmentation_index
    if index is None:
        with pytest.raises(ValueError, match="not nilpotent"):
            lift_identity_through_nilpotent_ideal(rep, ideal, 1)
    else:
        assert lift_identity_through_nilpotent_ideal(rep, ideal, 1) == index
    assert subs == [] and rep.differences is differences


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
    zero = ideal_closure(rep.algebra, [Matrix.zero(QQ, 2, 2)])
    assert lift_identity_through_nilpotent_ideal(rep, zero, 2) == 2


def test_lift_heisenberg_through_augmentation():
    rep = heisenberg()
    assert lift_identity_through_nilpotent_ideal(rep, rep.augmentation_ideal, 1) == 3
    assert unitriangular_degree(rep) == 3


def test_lift_transvection():
    rep = single_transvection()
    assert lift_identity_through_nilpotent_ideal(rep, rep.augmentation_ideal, 1) == 2


def test_lift_hypothesis_failure():
    rep = heisenberg()
    zero = ideal_closure(rep.algebra, [Matrix.zero(QQ, 3, 3)])
    with pytest.raises(LiftHypothesisError) as info:
        lift_identity_through_nilpotent_ideal(rep, zero, 1)
    assert info.value.witness == ("a",)


def test_lift_rejects_non_nilpotent_ideal():
    rep = diag_rep()
    with pytest.raises(ValueError):
        lift_identity_through_nilpotent_ideal(rep, rep.augmentation_ideal, 1)


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
        radical = rep.radical
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
        lift_identity_through_nilpotent_ideal(rep, rep.radical, 5000)
    assert info.value.witness == ("a",) * 5000


@pytest.mark.parametrize("name", ["", "1", "a b", " a", "a\tb", "b\n", "a^2", "^"])
def test_generator_names_must_be_spellable_in_a_word(name):
    with pytest.raises(ValueError, match="cannot be spelled"):
        Representation(QQ, {"a": Matrix.identity(QQ, 2), name: Matrix.identity(QQ, 2)})


def test_spellable_generator_names_evaluate_as_one_letter():
    t = Matrix(QQ, [[1, 1], [0, 1]])
    rep = Representation(QQ, {name: t for name in ("11", "a-1", "x_1", "é")})
    for name in rep.names:
        assert evaluate_word(rep, Word.parse(f"{name} {name}^-1 {name}")) == t
