"""Differential tests of the Kolchin flag: the span series reversed for
a unipotent group, and the obstruction of iterated preimages in V for
any other group.

The flag reference spans the products e_i (h_1-1)...(h_k-1) over every
k-tuple of generators, for k = 0, 1, ... until the span is 0, and
reverses that series.  The obstruction reference keeps the former
quotient route of the socle series: each stage takes the common fixed
space of the induced action on V/W (``quotient_action``), found as the
left kernel of the differences m - 1 placed side by side, lifts that
space back into V through the non-pivot coordinates of W and adds it to
W.  The base change is assembled from the steps' scalar rows.

The unitriangular certificate checker, which eliminates only the base
change, is held to the flag route on mutated certificates: each step
spanned, its ascent through ``Flag``, and every basis row of every step
dropped by each g - 1.
"""

import copy
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kolchin import (GF, QQ, CertificateError, Matrix, NotUnipotent, Representation, Subspace,
                     UnitriCertificate, certificates, fixed_space, generator_identity_witness,
                     ideal_power_chain, invariant_series_from_identity, kolchin_flag,
                     load_certificate, load_representation, quotient_action, reps)
from kolchin.reps import _first_live_tuple, difference_product_spans
from kolchin.certificates import (_quotient_chain, check_certificate, flag_to_payload,
                                  make_certificate, matrix_to_rows)
from kolchin.linalg import Flag, RowSpan, assemble_flag_basis, flag_drops, kernel, preimage
from corpus import FIELDS, groups, groups_with_identity, scalars

GOLDEN = Path(__file__).parent / "golden"


# -- quotient-route reference ---------------------------------------------------

def ref_hstack(mats):
    rows = [[x for r in rs for x in r] for rs in zip(*(m.rows for m in mats))]
    return Matrix(mats[0].field, rows, ncols=sum(m.ncols for m in mats))


def ref_fixed_space(mats):
    one = Matrix.identity(mats[0].field, mats[0].nrows)
    return kernel(ref_hstack([m - one for m in mats]))


def ref_lift_from_quotient(w, rows):
    free = w.complement_coordinates()
    lifted = []
    for q in rows:
        v = [0] * w.ambient_dim
        for coord, x in zip(free, q):
            v[coord] = x
        lifted.append(v)
    return lifted


def ref_assemble_flag_basis(flag):
    span = RowSpan(flag.field, flag.ambient_dim)
    rows = [row for step in flag.steps[1:]
            for ints, row in zip(step.basis.ints, step.basis.rows) if span.absorb(ints)]
    return Matrix(flag.field, rows, ncols=flag.ambient_dim)


def ref_kolchin_flag(rep):
    field, n = rep.field, rep.dim
    w = Subspace.zero(field, n)
    steps = [w]
    qmats = rep.generators
    stage = 1
    while not w.is_full():
        fix = ref_fixed_space(qmats)
        if fix.is_zero():
            return NotUnipotent(stage, w)
        w = Subspace(field, n, [*w.basis.rows, *ref_lift_from_quotient(w, fix.basis.rows)])
        steps.append(w)
        if w.is_full():
            break
        qmats = [quotient_action(g, w) for g in rep.generators]
        stage += 1
    flag = Flag(steps)
    return UnitriCertificate(flag, ref_assemble_flag_basis(flag), flag.degree)


def ref_span_series_flag(rep):
    # V_k is spanned by the e_i (h_1-1)...(h_k-1) over every k-tuple of
    # generators; a zero product spans nothing, and nor do its multiples
    field, n = rep.field, rep.dim
    one = Matrix.identity(field, n)
    diffs = [g - one for g in rep.generators]
    products = [one]
    steps = [Subspace(field, n, one.rows)]
    while not steps[-1].is_zero():
        products = [q for m in products for d in diffs if not (q := m * d).is_zero()]
        steps.append(Subspace(field, n, [r for m in products for r in m.rows]))
    flag = Flag(steps[::-1])
    return UnitriCertificate(flag, ref_assemble_flag_basis(flag), flag.degree)


def ref_preimage(w, mats):
    # v * m lies in w iff it vanishes in the quotient coordinates of V/w
    free = w.complement_coordinates()
    n = w.ambient_dim
    to_quotient = Matrix(w.field, [[w.reduce(e)[c] for c in free] for e in
                                   Matrix.identity(w.field, n).rows], ncols=len(free))
    return kernel(ref_hstack([m * to_quotient for m in mats]))


def assert_same(got, want):
    assert type(got) is type(want)
    if isinstance(want, UnitriCertificate):
        assert got.flag.steps == want.flag.steps
        assert got.degree == want.degree
        assert got.base_change == want.base_change
    else:
        assert got.stage == want.stage
        assert got.reached == want.reached


# -- strategies -----------------------------------------------------------------

@st.composite
def matrix_lists(draw):
    """Square matrices I + A B with A of size n x r and B of size r x n,
    so that fixed spaces of every dimension occur."""
    field = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(1, 5))
    mats = []
    for _ in range(draw(st.integers(1, 3))):
        r = draw(st.integers(0, n))
        a = Matrix(field, [[draw(scalars(field)) for _ in range(r)] for _ in range(n)], ncols=r)
        b = Matrix(field, [[draw(scalars(field)) for _ in range(n)] for _ in range(r)], ncols=n)
        mats.append(Matrix.identity(field, n) + a * b)
    return mats


@st.composite
def flags(draw):
    """A flag over one field: the growing spans of the prefixes of
    random rows (with fraction entries over Q, so the steps' echelon
    rows have different denominators), then V."""
    field = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(0, 5))
    rows = draw(st.lists(st.lists(scalars(field), min_size=n, max_size=n), max_size=2 * n))
    steps = [Subspace.zero(field, n)]
    for k in range(1, len(rows) + 1):
        s = Subspace(field, n, rows[:k])
        if s.dim > steps[-1].dim:
            steps.append(s)
    if not steps[-1].is_full():
        steps.append(Subspace.full(field, n))
    return Flag(steps)


# -- tests ----------------------------------------------------------------------

@settings(max_examples=200)
@given(groups())
def test_flag_matches_quotient_route(rep):
    # the socle reference decides unipotency; a unipotent group's flag is
    # its span series reversed, of the socle series' length, and any
    # other group keeps the socle series' obstruction
    ref = ref_kolchin_flag(rep)
    if isinstance(ref, UnitriCertificate):
        series = ref_span_series_flag(rep)
        assert series.degree == ref.degree
        ref = series
    assert_same(kolchin_flag(rep), ref)


@settings(max_examples=150)
@given(groups())
def test_unipotent_flag_is_the_span_series_reversed(rep):
    # one conversion turns the owned series into a flag, for kolchin_flag
    # and for the series of an identity at the degree
    flag = kolchin_flag(rep)
    if isinstance(flag, NotUnipotent):
        assert not rep.difference_spans[-1].is_zero()
        return
    assert flag.degree == len(rep.difference_spans) - 1
    assert flag.flag == invariant_series_from_identity(rep, flag.degree)


class PreimageCalled(Exception):
    pass


@settings(max_examples=150)
@given(groups())
def test_only_a_group_that_is_not_unipotent_takes_a_preimage(rep):
    unipotent = isinstance(ref_kolchin_flag(rep), UnitriCertificate)
    with mock.patch.object(reps, "preimage", side_effect=PreimageCalled):
        if unipotent:
            assert isinstance(kolchin_flag(rep), UnitriCertificate)
        else:
            with pytest.raises(PreimageCalled):
                kolchin_flag(rep)


def kolchin_certificate(rep, cert):
    return make_certificate("kolchin", rep, "unitriangular", {
        "degree": cert.degree,
        "flag": flag_to_payload(cert.flag),
        "base_change": matrix_to_rows(cert.base_change),
    })


@settings(max_examples=100)
@given(groups().filter(lambda rep: rep.difference_spans[-1].is_zero()))
def test_socle_series_certificates_still_verify(rep):
    # the flag written before (the socle series) and the one written now
    # are both valid, and check-cert accepts any valid flag
    for cert in (ref_kolchin_flag(rep), kolchin_flag(rep)):
        assert "verified" in check_certificate(rep, kolchin_certificate(rep, cert))


def test_a_module_that_is_not_uniserial_gets_another_flag_that_verifies():
    # e_1 (g-1) = e_3 spans V_1, while g fixes e_2 and e_3: the series
    # flag is 0 < <e_3> < V, and the socle series 0 < <e_2, e_3> < V
    rep = Representation(QQ, {"g": Matrix(QQ, [[1, 0, 1], [0, 1, 0], [0, 0, 1]])})
    new, old = kolchin_flag(rep), ref_kolchin_flag(rep)
    assert [s.dim for s in new.flag.steps] == [0, 1, 3]
    assert [s.dim for s in old.flag.steps] == [0, 2, 3]
    assert new.degree == old.degree == 2
    for cert in (new, old):
        assert "verified" in check_certificate(rep, kolchin_certificate(rep, cert))


@settings(max_examples=150)
@given(groups())
def test_flag_degree_is_the_augmentation_ideal_index(rep):
    # the flag is the span series V w^k of the augmentation ideal w,
    # reversed, and V is faithful, so its length is w's nilpotency
    # index; the power chain is the reference, over F_p with p <= n
    # too, and an obstruction goes with a chain that stabilises
    _, index = ideal_power_chain(rep.algebra, rep.augmentation_ideal)
    flag = kolchin_flag(rep)
    assert (flag.degree if isinstance(flag, UnitriCertificate) else None) == index


@settings(max_examples=150)
@given(groups())
def test_flags_drop_every_step(rep):
    # the span recurrence V_(k+1) = sum of the V_k (g-1) proves this,
    # and no runtime check repeats it: every generator difference maps
    # each step into the one below, and the checking Flag constructor
    # accepts the flags that kolchin_flag and
    # invariant_series_from_identity build unchecked from the series
    flag = kolchin_flag(rep)
    if isinstance(flag, NotUnipotent):
        with pytest.raises(ValueError, match="identity fails"):
            invariant_series_from_identity(rep, rep.dim)
        return
    assert flag_drops(rep.generators, flag.flag.steps)
    assert Flag(flag.flag.steps) == flag.flag
    for n in (flag.degree, flag.degree + 1):
        series = invariant_series_from_identity(rep, n)
        assert Flag(series.steps) == series
        assert (series.field, series.ambient_dim) == (rep.field, rep.dim)
        assert flag_drops(rep.generators, series.steps)


@settings(max_examples=150)
@given(groups_with_identity())
def test_the_owned_span_series_answers_every_identity_length(rep):
    # the series is built once, up to dim; its first n + 1 entries are
    # the spans up to n for every n, and V_n = 0 decides the identity
    # as the tuple sweep does
    diffs = tuple(zip(rep.names, rep.differences))
    for n in range(1, rep.dim + 3):
        assert rep.difference_spans[:n + 1] == difference_product_spans(rep.differences, n)
        assert (generator_identity_witness(rep, n)
                == _first_live_tuple(diffs, n, Matrix.is_zero))


@settings(max_examples=100)
@given(matrix_lists())
def test_fixed_space_matches_hstack_kernel(mats):
    assert fixed_space(mats) == ref_fixed_space(mats)


@settings(max_examples=100)
@given(matrix_lists(), st.data())
def test_preimage_matches_quotient_coordinates(mats, data):
    field, n = mats[0].field, mats[0].nrows
    rows = data.draw(st.lists(st.lists(scalars(field), min_size=n, max_size=n), max_size=n))
    w = Subspace(field, n, rows)
    got = preimage(w, mats)
    assert got == ref_preimage(w, mats)
    assert not any(any(w.reduce((Matrix(field, [v]) * m).rows[0]))
                   for v in got.basis.rows for m in mats)


@pytest.mark.parametrize("field, gens, stage", [
    # no fixed vector at all: the obstruction is at stage 1, on V itself
    (QQ, [[[2, 0], [0, 3]]], 1),
    (GF(2), [[[0, 1], [1, 1]], [[1, 0], [0, 1]]], 1),
    # e_2 is fixed, and d acts on the quotient by 2
    (QQ, [[[2, 0], [0, 1]]], 2),
    # e_3 is fixed, then e_1 - e_2 modulo it; g acts by 2 on what is left
    (GF(3), [[[1, 1, 0], [0, 2, 1], [0, 0, 1]]], 3),
])
def test_obstruction_matches_quotient_route(field, gens, stage):
    rep = Representation(field, {f"g{k}": Matrix(field, g) for k, g in enumerate(gens)})
    got = kolchin_flag(rep)
    assert isinstance(got, NotUnipotent) and got.stage == stage
    assert_same(got, ref_kolchin_flag(rep))
    if stage == 1:
        assert got.reached.is_zero()


def test_zero_dimensional_space_has_the_empty_flag():
    rep = Representation(QQ, {"e": Matrix(QQ, [], ncols=0)})
    assert_same(kolchin_flag(rep), ref_kolchin_flag(rep))


@settings(max_examples=200)
@given(flags())
def test_base_change_matches_the_picked_rows_stacked_by_matrix(flag):
    assert assemble_flag_basis(flag) == ref_assemble_flag_basis(flag)


@settings(max_examples=150)
@given(groups())
def test_checker_chain_matches_the_quotient_route(rep):
    # the checker's not-unipotent chain lifts integer rows and spans them
    # with w's in one elimination; the reference lifts scalar rows
    ref = ref_kolchin_flag(rep)
    stage, reached = _quotient_chain(rep)
    if isinstance(ref, NotUnipotent):
        assert (stage, reached) == (ref.stage, ref.reached)
    else:
        assert reached is None


# -- the unitriangular checker against the flag route ------------------------------

def ref_unitriangular_verdict(rep, payload) -> bool:
    """The unitriangular check on the flag route: each step spanned, the
    ascent through ``Flag``, every basis row of every step dropped by each
    g - 1, the degree, the base change's shape and rank, and its rows
    following the flag (rows dim W_(i-1) to dim W_i in W_i)."""
    n = rep.dim
    try:
        flag = Flag([Subspace(rep.field, n, rows) for rows in payload["flag"]])
        if not flag_drops(rep.generators, flag.steps):
            return False
        degree = payload["degree"]
        if type(degree) is not int or degree < 0 or flag.degree != degree:
            return False
        base = Matrix(rep.field, payload["base_change"], n)
        if base.nrows != n or Subspace(rep.field, n, base.rows).dim != n:
            return False
        return all(step.contains(Subspace(rep.field, n, base.rows[below.dim:step.dim]))
                   for below, step in zip(flag.steps, flag.steps[1:]))
    except (ArithmeticError, LookupError, TypeError, ValueError):
        return False


def _json_rows(rows):
    return [[x if type(x) is int else str(x) for x in r] for r in rows]


@st.composite
def mutated_payloads(draw, rep, payload):
    """The payload with one to three edits of its flag steps or base
    change, each drawn from the forgeries below, and half the time its
    degree set to match the edited steps; the entries of an edited row
    are written back as JSON integers or strings."""
    field, n = rep.field, rep.dim
    payload = copy.deepcopy(payload)
    steps, base = payload["flag"], payload["base_change"]

    def scalar_rows(rows):
        return [[field.of(x) for x in r] for r in rows]

    def nonzero():
        return draw(scalars(field, nonzero=True))

    def index(size):
        return draw(st.integers(0, size - 1))

    def some_step():
        return draw(st.sampled_from([i for i, s in enumerate(steps) if s] or [None]))

    kinds = ["scale", "reorder", "duplicate", "combine", "perturb step", "perturb base",
             "swap base", "dependent base", "drop step", "repeat step", "swap steps",
             "replace step"]
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=3)):
        if kind in ("drop step", "repeat step", "swap steps") and steps:
            i, j = index(len(steps)), index(len(steps))
            if kind == "drop step":
                del steps[i]
            elif kind == "repeat step":
                steps.insert(i, steps[i])
            else:
                steps[i], steps[j] = steps[j], steps[i]
        elif kind == "replace step" and steps:
            # another subspace of the same dimension: drawn rows, padded
            # with standard vectors up to it
            i = index(len(steps))
            d = Subspace(field, n, steps[i]).dim
            span, rows = RowSpan(field, n), []
            drawn = draw(st.lists(st.lists(scalars(field), min_size=n, max_size=n), max_size=d))
            for r in [*drawn, *Matrix.identity(field, n).rows]:
                if len(rows) < d and span.absorb(Matrix(field, [r], n).ints[0]):
                    rows.append(r)
            steps[i] = _json_rows(rows)
        elif kind in ("swap base", "dependent base") and base:
            i, j = index(n), index(n)
            rows = scalar_rows(base)
            if kind == "swap base":
                rows[i], rows[j] = rows[j], rows[i]
            else:  # a multiple of another row, or 0 when there is none
                c = nonzero() if i != j else 0
                rows[i] = [c * x for x in rows[j]]
            payload["base_change"] = base = _json_rows(rows)
        elif kind == "perturb base" and base:
            rows = scalar_rows(base)
            i, j = index(n), index(n)
            rows[i][j] += nonzero()
            payload["base_change"] = base = _json_rows(rows)
        elif (i := some_step()) is not None:
            rows = scalar_rows(steps[i])
            k, j = index(len(rows)), index(len(rows))
            if kind == "scale":
                rows = [[c * x for x in r] for r, c in zip(rows, [nonzero() for _ in rows])]
            elif kind == "reorder":
                rows = draw(st.permutations(rows))
            elif kind == "duplicate":
                rows.append([nonzero() * x for x in rows[k]])
            elif kind == "combine" and k != j:
                c = nonzero()
                rows[k] = [x + c * y for x, y in zip(rows[k], rows[j])]
            elif kind == "perturb step":
                rows[k][index(n)] += nonzero()
            steps[i] = _json_rows(rows)
    if draw(st.booleans()):  # a degree that matches the steps, so the checks past it decide
        payload["degree"] = len(steps) - 1
    return payload


def test_unitriangular_check_agrees_with_the_flag_route():
    # the base change is the one object the checker eliminates; over
    # mutated certificates of the series and socle flags of unipotent
    # groups, it must accept exactly what the flag route accepts, and
    # both verdicts must occur
    verdicts = set()

    @settings(max_examples=400)
    @given(groups().filter(lambda rep: rep.difference_spans[-1].is_zero()), st.booleans(),
           st.data())
    def agree(rep, socle, data):
        flag = ref_kolchin_flag(rep) if socle else kolchin_flag(rep)
        cert = kolchin_certificate(rep, flag)
        cert["payload"] = data.draw(mutated_payloads(rep, cert["payload"]))
        try:
            accepted = "verified" in check_certificate(rep, cert)
        except CertificateError:
            accepted = False
        assert accepted == ref_unitriangular_verdict(rep, cert["payload"])
        verdicts.add(accepted)

    agree()
    assert verdicts == {True, False}


@pytest.mark.parametrize("dropped", [1, 2])
def test_a_coarsened_flag_is_refused(dropped):
    # the golden Heisenberg flag 0 < 1 < 2 < 3 without a middle step, its
    # degree set to 2: every step is still a span of leading base rows,
    # but g - 1 moves the last base row of the merged step out of the
    # step below, and only that row shows it
    rep = load_representation(str(GOLDEN / "heis_frac.json"))
    cert = load_certificate(str(GOLDEN / "heis_frac.kolchin.cert.json"))
    del cert["payload"]["flag"][dropped]
    cert["payload"]["degree"] = 2
    assert not ref_unitriangular_verdict(rep, cert["payload"])
    with pytest.raises(CertificateError, match="flag drop fails"):
        check_certificate(rep, cert)


class FlagRouteTaken(Exception):
    pass


def test_kolchin_certificates_verify_without_the_flag_route():
    # a unitriangular certificate is checked on its base change alone:
    # no Flag is built and flag_drops never runs; an identity series is
    # still checked through flag_drops
    examples = [(load_representation(str(GOLDEN / "heis_frac.json")),
                 load_certificate(str(GOLDEN / "heis_frac.kolchin.cert.json")))]
    for gens in ([[[1, 0, 1], [0, 1, 0], [0, 0, 1]]],
                 [[[1, 1, 0], [0, 1, 0], [0, 0, 1]], [[1, 0, 0], [0, 1, 1], [0, 0, 1]]]):
        for field in (QQ, GF(2)):
            rep = Representation(field, {f"g{k}": Matrix(field, g) for k, g in enumerate(gens)})
            for flag in (kolchin_flag(rep), ref_kolchin_flag(rep)):
                examples.append((rep, kolchin_certificate(rep, flag)))
    with mock.patch.object(certificates, "flag_drops", side_effect=FlagRouteTaken), \
            mock.patch.object(certificates, "Flag", side_effect=FlagRouteTaken):
        for rep, cert in examples:
            assert "unitriangular certificate" in check_certificate(rep, cert)
    rep = load_representation(str(GOLDEN / "heis_frac.json"))
    identity = load_certificate(str(GOLDEN / "heis_frac.identity.cert.json"))
    with mock.patch.object(certificates, "flag_drops", side_effect=FlagRouteTaken):
        with pytest.raises(FlagRouteTaken):
            check_certificate(rep, identity)
