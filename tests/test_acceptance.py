"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion.  Every tolerance is exact equality; the three timed
criteria assert their wall-clock budgets.
"""

import random
import time

import pytest

from kolchin import (
    GF,
    QQ,
    Matrix,
    Representation,
    Subspace,
    UnitriCertificate,
    check_certificate,
    ideal_closure,
    ideal_power_chain,
    kaloujnine_class_check,
    kernel,
    kolchin_flag,
    lift_identity_through_nilpotent_ideal,
    make_certificate,
    matrix_algebra,
    regular_representation,
    rref,
    standard_identity_eval,
    standard_identity_witness,
    trace_radical,
    unipotent_radical,
    unitriangular_degree,
    upper_triangular_algebra,
    generator_identity_witness,
)
from kolchin.certificates import flag_to_payload, matrix_to_rows
from kolchin.reps import difference_product_spans
from kolchin.words import (
    brute_force_unipotent_radical,
    enumerate_elements,
    evaluate_word,
    random_word,
)
from corpus import (
    conjugated_unitriangular_rep,
    heisenberg,
    random_matrix,
    random_upper_unitriangular,
    ref_from_coordinates,
    unitriangular_corpus,
)

CORPUS_SEED = 20250810
CORPUS_SIZE = 200

_corpus_cache = None
_cert_cache = {}


def corpus():
    global _corpus_cache
    if _corpus_cache is None:
        _corpus_cache = unitriangular_corpus(CORPUS_SEED, CORPUS_SIZE)
    return _corpus_cache


def corpus_cert(idx):
    if idx not in _cert_cache:
        _cert_cache[idx] = kolchin_flag(corpus()[idx])
    return _cert_cache[idx]


def _passed(num, label, details=""):
    print(f"\nACCEPTANCE {num} ({label}): PASS {details}".rstrip())


def test_criterion_1_kolchin_reproduction():
    start = time.monotonic()
    reps = corpus()
    assert len(reps) == CORPUS_SIZE
    degrees = []
    for idx, rep in enumerate(reps):
        cert = corpus_cert(idx)
        assert isinstance(cert, UnitriCertificate), f"instance {idx} failed"
        # independent checker re-verifies every flag drop and the base change
        payload = {
            "degree": cert.degree,
            "flag": flag_to_payload(cert.flag),
            "base_change": matrix_to_rows(cert.base_change),
        }
        check_certificate(rep, make_certificate("kolchin", rep, "unitriangular", payload))
        degrees.append(cert.degree)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"criterion 1 took {elapsed:.1f}s"
    _passed(1, "unipotent groups unitriangularize",
            f"({CORPUS_SIZE} instances, degrees 2..{max(degrees)}, {elapsed:.1f}s)")


def test_criterion_2_standard_identity_sweeps():
    m2 = matrix_algebra(QQ, 2)
    assert standard_identity_witness(m2, 4) is None
    witness3 = standard_identity_witness(m2, 3)
    assert witness3 is not None
    value = standard_identity_eval(3, [m2.basis[i] for i in witness3])
    assert not value.is_zero()
    start = time.monotonic()
    m3 = matrix_algebra(QQ, 3)
    assert standard_identity_witness(m3, 6) is None
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"M_3 degree-6 sweep took {elapsed:.1f}s"
    _passed(2, "alternating identity sweeps",
            f"(M_2: verified at 4, witness at 3; M_3: verified at 6 in {elapsed:.1f}s)")


def test_criterion_3_radical_correctness():
    for n in range(2, 6):
        a = upper_triangular_algebra(QQ, n)
        rad = trace_radical(a)  # construction re-verifies nilpotency
        assert rad.dim == n * (n - 1) // 2
        for i in range(n):
            for j in range(i + 1, n):
                e = Matrix(QQ, [[1 if (r, c) == (i, j) else 0 for c in range(n)]
                                for r in range(n)])
                assert rad.contains(e)
        _, index = ideal_power_chain(a, rad)
        assert index is not None
    for n in range(2, 5):
        assert trace_radical(matrix_algebra(QQ, n)).is_zero()
    _passed(3, "trace-form radical",
            "(strictly-upper for n=2..5, zero on full matrix algebras)")


def test_criterion_4_generator_identity_upgrades_to_words():
    rng = random.Random(CORPUS_SEED + 4)
    reps = [conjugated_unitriangular_rep(rng, rng.randint(3, 4), rng.randint(2, 3),
                                         rational=(i % 5 == 2))
            for i in range(50)]
    violations = 0
    for rep in reps:
        n = unitriangular_degree(rep)
        assert n is not None
        assert generator_identity_witness(rep, n) is None
        one = rep.identity()
        pool = [evaluate_word(rep, random_word(rng, rep.names, 8)) for _ in range(60)]
        for _ in range(1000):
            prod = one
            for _ in range(n):
                prod = prod * (rng.choice(pool) - one)
                if prod.is_zero():
                    break
            if not prod.is_zero():
                violations += 1
    assert violations == 0
    _passed(4, "identity upgrades from generators to all words",
            "(50 reps x 1000 word tuples, zero violations)")


def _strictly_upper_ideal(algebra):
    """Elements of the algebra with zero diagonal; an ideal when the
    algebra consists of upper-triangular matrices.  Their ideal closure
    is no larger than their span, so the span is an ideal."""
    n = algebra.matrix_size
    diag_map = Matrix(algebra.field,
                      [[b.rows[i][i] for i in range(n)] for b in algebra.basis],
                      ncols=n)
    space = kernel(diag_map)
    ideal = ideal_closure(algebra, [ref_from_coordinates(algebra, row)
                                    for row in space.basis.rows])
    assert ideal.dim == space.dim
    return ideal


def test_criterion_5_nilpotent_ideal_lifting():
    rng = random.Random(CORPUS_SEED + 5)
    for trial in range(10):
        n = rng.randint(3, 5)
        gens = {f"g{t}": random_upper_unitriangular(rng, n, rational=(trial % 3 == 1))
                for t in range(rng.randint(2, 3))}
        rep = Representation(QQ, gens)
        a1 = _strictly_upper_ideal(rep.algebra)
        _, m = ideal_power_chain(rep.algebra, a1)
        assert m is not None
        bound = lift_identity_through_nilpotent_ideal(rep, a1, 1)
        assert bound == m  # the lift itself verified all length-m products vanish
        degree = unitriangular_degree(rep)
        assert degree is not None and degree <= bound
    # the three-dimensional integer Heisenberg instance is exactly tight
    rep = heisenberg()
    a1 = _strictly_upper_ideal(rep.algebra)
    _, m = ideal_power_chain(rep.algebra, a1)
    assert m == 3
    assert lift_identity_through_nilpotent_ideal(rep, a1, 1) == 3
    assert unitriangular_degree(rep) == 3
    _passed(5, "identity lifting through nilpotent ideals",
            "(10 constructed instances; tight bound 3 on the 3x3 integer case)")


def test_criterion_6_radical_oracle_equivalence():
    start = time.monotonic()
    field = GF(3)
    rng = random.Random(CORPUS_SEED + 6)

    def random_invertible_f3():
        while True:
            m = random_matrix(rng, field, 2, 2, lo=0, hi=2)
            if rref(m).rank == 2:
                return m

    groups = {}
    attempts = 0
    while len(groups) < 30 and attempts < 400:
        attempts += 1
        k = rng.randint(1, 2)
        rep = Representation(field, {f"g{t}": random_invertible_f3() for t in range(k)})
        table = enumerate_elements(rep)
        assert table.closed
        key = frozenset(table.elements)
        groups.setdefault(key, (rep, table))
    assert len(groups) >= 30, f"only {len(groups)} distinct subgroups found"

    for rep, table in groups.values():
        rad = unipotent_radical(rep)
        members = frozenset(m for m in table.elements if rad.contains(m))
        brute = frozenset(brute_force_unipotent_radical(rep))
        assert members == brute
        # verified normal
        for g in table.elements:
            gi = g.inverse()
            for h in members:
                assert gi * h * g in members
        # verified unitriangularly acting
        sub = Representation(field, [(f"n{i}", m) for i, m in enumerate(members)])
        assert unitriangular_degree(sub) is not None
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"criterion 6 took {elapsed:.1f}s"
    _passed(6, "unipotent radical matches brute force",
            f"({len(groups)} distinct subgroups of the 2x2 groups over F_3, {elapsed:.1f}s)")


def test_criterion_7_regular_representation_transfer():
    rng = random.Random(CORPUS_SEED + 7)
    reps = []
    for i in range(25):
        reps.append(conjugated_unitriangular_rep(rng, rng.randint(2, 4),
                                                 rng.randint(1, 3), rational=(i % 6 == 1)))
    for i in range(25):
        n = rng.randint(2, 3)
        gens = {"d": Matrix(QQ, [[rng.randint(2, 5) if r == c and r == 0 else
                                  (1 if r == c else 0) for c in range(n)]
                                 for r in range(n)])}
        if rng.random() < 0.6:
            gens["t"] = random_upper_unitriangular(rng, n)
        reps.append(Representation(QQ, gens))
    finite_count = 0
    for rep in reps:
        d_rep = unitriangular_degree(rep)
        d_reg = unitriangular_degree(regular_representation(rep))
        assert (d_rep is None) == (d_reg is None)
        finite_count += d_rep is not None
    assert 0 < finite_count < len(reps)  # both directions of the biconditional hit
    _passed(7, "regular representation transfer",
            f"(50 reps, {finite_count} unitriangular, exact biconditional)")


def test_criterion_8_kaloujnine_consistency():
    reps = corpus()
    for idx, rep in enumerate(reps):
        cert = corpus_cert(idx)
        assert isinstance(cert, UnitriCertificate)
        witness = kaloujnine_class_check(rep, cert.degree, sample_budget=1000,
                                         word_length_cap=8, seed=CORPUS_SEED + idx)
        assert witness is None, f"instance {idx} violated the class bound"
    # deliberate negative: the 3x3 integer Heisenberg group declared one
    # degree too low yields a counterexample word tuple
    witness = kaloujnine_class_check(heisenberg(), 2, sample_budget=1000, seed=1)
    assert witness is not None
    _passed(8, "nilpotency class sampling",
            f"({CORPUS_SIZE} reps x 1000 commutators, zero violations; "
            "misdeclared degree refuted)")


def test_criterion_9_linear_algebra_substrate():
    rng = random.Random(CORPUS_SEED + 9)
    for field in (QQ, GF(101)):
        for _ in range(500):
            m = random_matrix(rng, field, rng.randint(1, 6), rng.randint(1, 6),
                              rational=field.p is None and rng.random() < 0.4)
            e = rref(m)
            assert kernel(m).dim + e.rank == m.nrows
            again = rref(e.reduced)
            assert again.reduced == e.reduced and again.pivots == e.pivots
    # canonical form: recombined spanning sets give structurally equal bases
    for _ in range(100):
        n = rng.randint(2, 6)
        k = rng.randint(1, n)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(k)]
        s1 = Subspace(QQ, n, rows)
        mixed = []
        for _ in range(k + 1):
            coeffs = [rng.randint(-3, 3) for _ in range(k)]
            mixed.append([sum(c * rows[i][j] for i, c in enumerate(coeffs))
                          for j in range(n)])
        s2 = Subspace(QQ, n, mixed + rows)
        assert s1 == s2 and s1.basis == s2.basis
    _passed(9, "exact linear algebra substrate",
            "(1000 rank-nullity and idempotence checks, canonical equality)")
