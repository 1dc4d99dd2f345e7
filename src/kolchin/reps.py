"""Representation-level algorithms for finitely generated matrix groups.

Unipotency indices, simultaneous unitriangularization by the reversed
span series of the difference products (a series that stalls short of
0 is the obstruction of a group that is not unipotent),
generator-product identities and their invariant series,
degree lifting through nilpotent ideals, the right-regular
representation on the enveloping algebra, and the unipotent radical
computed from the algebra's nilpotent radical.  A ``Representation``
owns every value derived from its generators, each a cached property.

Operations returning a witness use the convention: ``None`` means the
property was verified, anything else is a concrete counterexample.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .algebra import (AlgebraBasis, Ideal, InternalInconsistencyError, ideal_closure,
                      span_closure, trace_radical)
from .fields import Field
from .linalg import Matrix, Subspace, assemble_flag_basis, square_product
from .words import (DEFAULT_SAMPLE_BUDGET, DEFAULT_WORD_LENGTH_CAP, RowPair, Word,
                    _first_trivial_step, _pair, evaluate_word, random_word)


class Representation:
    """Finitely many named invertible matrices acting on row vectors.
    Each name must be one letter of a word (``Word.parse``): nonempty,
    without whitespace or ``^``, and not the identity ``1``; nor may it
    start with ``word:``, the prefix of a word's check-unipotent key.

    It owns ``generators``, in name order, and each value derived from
    them, built on its first read: each g - 1 (``differences``), the
    spans V_k of the length-k difference products (``difference_spans``),
    the enveloping ``algebra``, its ``augmentation_ideal`` with that
    ideal's ``augmentation_index``, and the algebra's ``radical``.  The
    identity questions read the span series, so no tuple sweep decides
    one.

    ``algebra`` is the span closure of the g - 1, its ``generators``:
    since g = (g - 1) + 1 it is the algebra the generators make.  Its
    right spin of the g - 1 (nilpotent for a unipotent group) absorbs
    no zero product, and spans the ``augmentation_ideal``, which the
    ideal closure of the g - 1 reads with no product.
    The group is unipotent iff its span series ends at 0 (V is faithful,
    so V w^d = 0 iff w^d = 0 for the augmentation ideal w), and that one
    test routes both values and ``kolchin_flag``.  A unipotent group's
    flag is the series reversed, its ``augmentation_index`` is w's
    ``nilpotency_index`` (one power chain over the products
    (h - 1)*u), and its ``radical`` is w (the algebra is F*1 plus w).
    Any other group has index None and the trace-form kernel as its
    radical, with no closure or chain.  Over prime fields with p <= n
    the radical raises CharacteristicTooSmallError, since the
    certificate checker has only the trace form there."""

    def __init__(self, field: Field, generators: Mapping[str, Matrix] | Iterable[tuple[str, Matrix]]):
        items = list(generators.items()) if isinstance(generators, Mapping) else list(generators)
        if not items:
            raise ValueError("a representation needs at least one generator")
        names = tuple(name for name, _ in items)
        if len(set(names)) != len(names):
            raise ValueError("generator names must be unique")
        for name in names:
            if not isinstance(name, str) or name.split() != [name] or "^" in name or name == "1":
                raise ValueError(f"generator name {name!r} cannot be spelled in a word")
            if name.startswith("word:"):
                raise ValueError(f"generator name {name!r} would collide with a word's key")
        dim = items[0][1].nrows
        gens: dict[str, Matrix] = {}
        invs: dict[str, Matrix] = {}
        for name, m in items:
            if m.nrows != m.ncols or m.nrows != dim or m.field != field:
                raise ValueError(f"generator {name!r} is not square of size {dim} over {field!r}")
            try:
                invs[name] = m.inverse()
            except ValueError:
                raise ValueError(f"generator {name!r} is not invertible") from None
            gens[name] = m
        self.field = field
        self.dim = dim
        self.names = names
        self.generators = tuple(gens[n] for n in names)
        self._gens = gens
        self._invs = invs

    @cached_property
    def differences(self) -> tuple[Matrix, ...]:
        return tuple(g - self.identity() for g in self.generators)

    @cached_property
    def difference_spans(self) -> list[Subspace]:
        """``difference_product_spans(differences, dim)``: the series
        descends strictly, so it ends within dim steps, at 0 or at a span
        equal to the next one, and V_n is its entry at min(n, len - 1)
        for every length n."""
        return difference_product_spans(self.differences, self.dim)

    @cached_property
    def algebra(self) -> AlgebraBasis:
        return span_closure(self.field, self.differences)

    @cached_property
    def augmentation_ideal(self) -> Ideal:
        return ideal_closure(self.algebra, self.algebra.generators)

    @cached_property
    def augmentation_index(self) -> int | None:
        if not self.difference_spans[-1].is_zero():
            return None
        return self.augmentation_ideal.nilpotency_index

    @cached_property
    def radical(self) -> Ideal:
        a = self.algebra
        p = a.field.characteristic()
        if not 0 < p <= a.matrix_size and self.difference_spans[-1].is_zero():
            return self.augmentation_ideal
        return trace_radical(a)

    def generator(self, name: str) -> Matrix:
        try:
            return self._gens[name]
        except KeyError:
            raise ValueError(f"unknown generator {name!r}") from None

    def inverse(self, name: str) -> Matrix:
        try:
            return self._invs[name]
        except KeyError:
            raise ValueError(f"unknown generator {name!r}") from None

    def identity(self) -> Matrix:
        return Matrix.identity(self.field, self.dim)

    def items(self) -> tuple[tuple[str, Matrix], ...]:
        return tuple(zip(self.names, self.generators))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Representation)
            and self.field == other.field
            and self.names == other.names
            and self.generators == other.generators
        )

    def __hash__(self) -> int:
        return hash((self.field, self.names, self.generators))

    def __repr__(self) -> str:
        return f"Representation(dim {self.dim} over {self.field}, generators {list(self.names)})"


def unipotency_index(rep: Representation, g: Matrix) -> int | None:
    """Minimal n with (g - 1)^n = 0, or None when g is not unipotent.

    The index is at most the dimension, so dim - 1 products decide it.
    """
    if g.nrows != g.ncols or g.nrows != rep.dim or g.field != rep.field:
        raise ValueError("element matrix does not match the representation")
    nil = g - rep.identity()
    power, n = nil, 1
    while not power.is_zero():
        if n >= nil.nrows:
            return None
        power, n = power * nil, n + 1
    return n


@dataclass(frozen=True)
class UnitriCertificate:
    """Invariant flag with trivial factor actions, plus its base change.

    ``flag`` is the tuple of its steps, strictly ascending from 0 to V.
    In the base-change coordinates every generator is triangular with
    unit diagonal; ``degree`` counts the strict inclusions of the flag,
    which bounds the length of vanishing difference products.
    """

    flag: tuple[Subspace, ...]
    base_change: Matrix
    degree: int


@dataclass(frozen=True)
class NotUnipotent:
    """Obstruction to a unipotent flag: the span series stalls short of 0.

    ``reached`` is the last span S = V_stage of the series, nonzero and
    equal to the next one, so S is the span of its own images s (g - 1).
    Then S lies in S w^k, and so in V w^k, for every k: the augmentation
    ideal w is not nilpotent, over every field.  ``stage`` (at least 0)
    is the number of steps the series takes before it stalls.
    """

    stage: int
    reached: Subspace


def kolchin_flag(rep: Representation) -> UnitriCertificate | NotUnipotent:
    """Simultaneous unitriangularization: the span series, reversed.

    A unipotent group's span series V = V_0 > V_1 > ... > V_d = 0
    (``Representation.difference_spans``, V_k = V w^k) is read bottom-up
    as the flag 0 = V_d < ... < V_0 = V, the tuple of its steps.  Each
    V_k (g-1) lies in V_(k+1), so every generator acts trivially on each
    factor, in every characteristic, and d is the degree.  The series is
    the one the degree, the radical and the identity answers read, so
    the flag takes no elimination of its own.

    Any other group's series stops at V_d = V_(d+1) != 0, and that stall
    is the obstruction, ``NotUnipotent(d, V_d)``, read off the same
    series.
    """
    series = rep.difference_spans
    if series[-1].is_zero():
        flag = tuple(series[::-1])
        return UnitriCertificate(flag, assemble_flag_basis(flag), len(series) - 1)
    return NotUnipotent(len(series) - 1, series[-1])


def generator_identity_witness(rep: Representation, n: int) -> tuple[str, ...] | None:
    """Lexicographically first generator n-tuple with (h_1-1)...(h_n-1)
    != 0, or None when every such product vanishes.

    Every length-n product vanishes iff V_n, the span of the
    x (h_1-1)...(h_n-1), is zero, so the representation's span series
    decides the identity; the tuple sweep runs only to name a failing
    tuple.  Zero prefixes are pruned since every extension of them
    vanishes too.
    """
    if n < 1:
        raise ValueError("identity length must be at least 1")
    if rep.difference_spans[:n + 1][-1].is_zero():
        return None
    return _first_live_tuple(tuple(zip(rep.names, rep.differences)), n, Matrix.is_zero)


def _first_live_tuple(diffs, n: int, dead):
    """Lexicographically first name tuple of length n whose product
    ``d_1 * ... * d_n`` is not ``dead``, or None.  ``dead`` must carry
    over to every right multiple, so a dead prefix prunes its whole
    subtree.  The walk is depth-first with an explicit stack, so n is
    not bounded by the recursion limit."""
    names: list[str] = []
    prefixes: list[Matrix] = []
    pending = [iter(diffs)]
    while pending:
        for name, d in pending[-1]:
            prod = prefixes[-1] * d if prefixes else d
            if dead(prod):
                continue
            if len(names) + 1 == n:
                return tuple(names) + (name,)
            names.append(name)
            prefixes.append(prod)
            pending.append(iter(diffs))
            break
        else:
            pending.pop()
            if names:
                names.pop()
                prefixes.pop()
    return None


def difference_product_spans(differences: Sequence[Matrix], upto: int) -> list[Subspace]:
    """Spans V_k of all vectors x d_1...d_k, for k = 0..upto and each d_i
    one of the (at least one) n x n matrices ``differences``, used as
    given: a caller holding group elements passes their g - 1.

    Satisfies V_k = sum over the d of V_{k-1} d, which keeps the
    computation linear in ``upto``.  Since V_k is a function of
    V_{k-1}, the list stops early at a zero span or before a span
    equal to the last one: its entries strictly descend, and the last
    one is V_upto.
    """
    field, n = differences[0].field, differences[0].nrows
    spans = [Subspace.full(field, n)]
    for _ in range(upto):
        prev = spans[-1]
        if prev.is_zero():
            break
        nxt = Subspace._spanned(field, n, [r for d in differences for r in (prev.basis * d).ints])
        if nxt == prev:
            break
        spans.append(nxt)
    return spans


class IdentityFailsError(ValueError):
    """A length-n generator identity fails on the tuple ``witness``."""

    def __init__(self, n: int, witness: tuple[str, ...]):
        self.witness = witness
        super().__init__(f"length-{n} generator identity fails on tuple {witness}")


def invariant_series_from_identity(rep: Representation, n: int) -> tuple[Subspace, ...]:
    """Invariant flag with trivial factor actions built from a verified
    length-n generator identity, as the tuple of its steps from 0 to V.

    The steps are the spans of all length-k difference products, read
    from the representation's series (``Representation.difference_spans``,
    whose first n + 1 entries are ``difference_product_spans`` up to n);
    the identity holds iff the last is zero, and only a failing one runs
    the tuple sweep, to name its witness (IdentityFailsError carries it).
    V_k is the sum of the V_(k-1) (g-1), so the group acts trivially on
    every factor.  Reversed, the strictly descending spans ascend from 0
    to V with no repeated zero step, so for a unipotent group and n at
    least its degree the series is ``kolchin_flag``'s flag.
    """
    if n < 1:
        raise ValueError("identity length must be at least 1")
    spans = rep.difference_spans[:n + 1]
    if not spans[-1].is_zero():
        raise IdentityFailsError(n, generator_identity_witness(rep, n))
    return tuple(spans[::-1])


def unitriangular_degree(rep: Representation) -> int | None:
    """Nilpotency index of the augmentation ideal, or None.

    The enveloping algebra acts faithfully on V, so the ideal's power
    chain hitting zero at index n is equivalent to the length-n
    identity x (y_1-1)...(y_n-1) = 0 holding for all group elements,
    not just for generators.  The index is the representation's
    ``augmentation_index``: a span series that does not end at 0
    answers None with no chain.
    """
    return rep.augmentation_index


class LiftHypothesisError(ValueError):
    """A generator product expected in the ideal fell outside it."""

    def __init__(self, witness: tuple[str, ...]):
        self.witness = witness
        super().__init__(f"generator product {witness} does not lie in the ideal")


def lift_identity_through_nilpotent_ideal(rep: Representation, a1: Ideal, n: int) -> int:
    """Turn a length-n identity modulo a nilpotent ideal into a genuine
    degree bound m*n, and verify it at the matrix level.

    Requires every length-n generator difference product to lie in
    ``a1`` (checked; LiftHypothesisError carries the first failing
    tuple) and ``a1`` nilpotent of some index m.  The conclusion - all
    length-(m*n) products vanish - is verified on the representation's
    span series before the bound is returned.  The index is the ideal's
    ``nilpotency_index``, read only once the hypothesis holds, so a
    failing sweep runs no chain and a chain already run is not repeated.
    """
    if n < 1:
        raise ValueError("identity length must be at least 1")
    # prefixes already inside the ideal stay inside under right multiplication
    hit = _first_live_tuple(tuple(zip(rep.names, rep.differences)), n, a1.contains)
    if hit is not None:
        raise LiftHypothesisError(hit)
    m = a1.nilpotency_index
    if m is None:
        raise ValueError("the ideal is not nilpotent")

    bound = m * n
    if not rep.difference_spans[:bound + 1][-1].is_zero():
        raise InternalInconsistencyError("lifted identity failed matrix-level verification")
    return bound


def regular_representation(rep: Representation) -> Representation:
    """The group acting on its enveloping algebra by right multiplication.

    Dimension equals the algebra dimension; the generator g maps to the
    matrix of x -> x*g in the algebra basis coordinates.
    """
    alg = rep.algebra
    basis = alg.basis  # the spin closed the algebra under every g - 1, so under every g
    return Representation(rep.field, [
        (name, Matrix(rep.field, [alg.coordinates(b * g) for b in basis], ncols=alg.dim))
        for name, g in rep.items()])


class UnipotentRadical:
    """Membership test for the largest normal unitriangularly-acting
    subgroup: g belongs iff g - 1 lies in the algebra's radical.

    The radical is ``Representation.radical``: the augmentation ideal
    when the span series ends at 0 (the whole group is the subgroup),
    else the trace-form kernel.
    Either route is a two-sided ideal (the closure loop proves one, and
    Tr(axy) = Tr(xya) the other), and each g^-1 lies in the algebra
    (Cayley-Hamilton), so the group conjugates it to itself: the member
    set is normal.  Its nilpotency makes the members act unitriangularly.
    """

    __slots__ = ("representation", "ideal")

    def __init__(self, rep: Representation):
        self.representation = rep
        self.ideal = rep.radical

    def contains(self, g: Matrix) -> bool:
        return self.ideal.contains(g - self.representation.identity())

    def __repr__(self) -> str:
        return f"UnipotentRadical(radical dim {self.ideal.dim} of {self.representation!r})"


def unipotent_radical(rep: Representation) -> UnipotentRadical:
    return UnipotentRadical(rep)


KALOUJNINE_POOL = 32


def kaloujnine_class_check(
    rep: Representation,
    degree: int,
    sample_budget: int = DEFAULT_SAMPLE_BUDGET,
    word_length_cap: int = DEFAULT_WORD_LENGTH_CAP,
    seed: int = 0,
):
    """Sampling check that weight-``degree`` left-normed commutators are
    trivial, as they must be in a faithful representation that is
    unitriangular of that degree.

    Evidence, not proof: samples draw tuples from a pool of
    ``KALOUJNINE_POOL`` freshly sampled random words of bounded length.
    Returns None when every sampled commutator is the identity, else
    the witness word tuple.  A sample whose first pick is 1 costs no
    product.  Each step but the last computes h = g^-1 (c g), trivial
    iff h == c, and [c, g] = c^-1 h only when it is not; the last step
    is the plain commute test c g == g c.  An inverse [c, g]^-1 is built
    only when the next step is not trivial.  So the pool carries
    inverses only from degree 3 on, and at degree 3 a sample takes at
    most five products.  The pool is kept as row pairs, and the walks
    run on them with the field's square product.
    """
    if degree < 1 or sample_budget < 1 or word_length_cap < 1:
        raise ValueError("degree, sample budget and word length cap must be at least 1")
    rng = random.Random(seed)
    pool: list[Word] = []
    pairs: list[tuple[RowPair, RowPair | None]] = []
    for _ in range(KALOUJNINE_POOL):
        w = random_word(rng, rep.names, word_length_cap)
        pool.append(w)
        pairs.append((_pair(evaluate_word(rep, w)),
                      _pair(evaluate_word(rep, w.inverse())) if degree > 2 else None))
    one, square = _pair(rep.identity()), square_product(rep.field, rep.dim)
    for _ in range(sample_budget):
        picks = [rng.randrange(KALOUJNINE_POOL) for _ in range(degree)]
        c, c_inverse = pairs[picks[0]]
        if c != one and _first_trivial_step(
                square, c, lambda: c_inverse, [pairs[t] for t in picks[1:]]) is None:
            return tuple(pool[t] for t in picks)
    return None
