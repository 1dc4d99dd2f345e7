"""Representation-level algorithms for finitely generated matrix groups.

Unipotency indices, simultaneous unitriangularization via iterated
fixed spaces, generator-product identities and their invariant series,
degree lifting through nilpotent ideals, the right-regular
representation on the enveloping algebra, and the unipotent radical
computed from the algebra's nilpotent radical.

Operations returning a witness use the convention: ``None`` means the
property was verified, anything else is a concrete counterexample.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .algebra import (
    Ideal,
    InternalInconsistencyError,
    ideal_closure,
    ideal_power_chain,
    span_closure,
    trace_radical,
)
from .fields import Field
from .linalg import (
    Flag,
    Matrix,
    Subspace,
    assemble_flag_basis,
    fixed_space,
    flag_drops,
    quotient_action,
)


class Representation:
    """Finitely many named invertible matrices acting on row vectors."""

    __slots__ = ("field", "dim", "names", "_gens", "_invs", "_env")

    def __init__(self, field: Field, generators: Mapping[str, Matrix] | Iterable[tuple[str, Matrix]]):
        items = list(generators.items()) if isinstance(generators, Mapping) else list(generators)
        if not items:
            raise ValueError("a representation needs at least one generator")
        names = tuple(name for name, _ in items)
        if len(set(names)) != len(names):
            raise ValueError("generator names must be unique")
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
        self._gens = gens
        self._invs = invs
        self._env = None

    @property
    def generators(self) -> tuple[Matrix, ...]:
        return tuple(self._gens[n] for n in self.names)

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
        return tuple((n, self._gens[n]) for n in self.names)

    def conjugated(self, p: Matrix) -> "Representation":
        """The same group in the basis whose rows are the rows of ``p``."""
        pinv = p.inverse()
        return Representation(self.field, [(n, p * self._gens[n] * pinv) for n in self.names])

    def enveloping(self) -> "EnvelopingData":
        if self._env is None:
            self._env = EnvelopingData(self)
        return self._env

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Representation)
            and self.field == other.field
            and self.names == other.names
            and all(self._gens[n] == other._gens[n] for n in self.names)
        )

    def __hash__(self) -> int:
        return hash((self.field, self.names, tuple(self._gens[n] for n in self.names)))

    def __repr__(self) -> str:
        return f"Representation(dim {self.dim} over {self.field}, generators {list(self.names)})"


class EnvelopingData:
    """Enveloping algebra of a representation with its two key ideals.

    ``algebra`` is the span closure of the generators and the identity.
    The ideals are computed on first read and then kept:
    ``augmentation_ideal`` is generated by the differences g - 1, and
    ``radical`` comes from the trace form and raises
    CharacteristicTooSmallError over too-small prime fields.
    """

    def __init__(self, rep: Representation):
        # no reference back to rep: the representation caches this
        # object, and a cycle would outlive the last reference to either
        self.algebra = span_closure(rep.field, rep.generators)

    @cached_property
    def augmentation_ideal(self) -> Ideal:
        one = Matrix.identity(self.algebra.field, self.algebra.matrix_size)
        return ideal_closure(self.algebra, [g - one for g in self.algebra.generators])

    @cached_property
    def radical(self) -> Ideal:
        return trace_radical(self.algebra)


def unipotency_index(rep: Representation, g: Matrix) -> int | None:
    """Minimal n with (g - 1)^n = 0, or None when g is not unipotent.

    The index is bounded by the dimension, so the search is exact.
    """
    if g.nrows != g.ncols or g.nrows != rep.dim or g.field != rep.field:
        raise ValueError("element matrix does not match the representation")
    nil = g - rep.identity()
    power = nil
    for n in range(1, rep.dim + 1):
        if power.is_zero():
            return n
        power = power * nil
    return None


@dataclass(frozen=True)
class UnitriCertificate:
    """Invariant flag with trivial factor actions, plus its base change.

    In the base-change coordinates every generator is triangular with
    unit diagonal; ``degree`` counts the strict inclusions of the flag,
    which bounds the length of vanishing difference products.
    """

    flag: Flag
    base_change: Matrix
    degree: int


@dataclass(frozen=True)
class NotUnipotent:
    """Obstruction to a unipotent flag: a stage with no fixed vectors.

    ``reached`` is the invariant subspace built so far; the quotient
    generators describe the residual action in the non-pivot
    coordinates of ``reached``.
    """

    stage: int
    reached: Subspace
    quotient_generators: tuple[Matrix, ...]


def _lift_from_quotient(w: Subspace, rows: Sequence[Sequence]) -> list[tuple]:
    free = w.complement_coordinates()
    lifted = []
    for q in rows:
        v = [0] * w.ambient_dim
        for coord, x in zip(free, q):
            v[coord] = x
        lifted.append(tuple(v))
    return lifted


FLAG_DROP_FAILED = "flag verification failed: a difference does not drop a step"


def kolchin_flag(rep: Representation) -> UnitriCertificate | NotUnipotent:
    """Simultaneous unitriangularization by iterated fixed spaces.

    Each stage takes the common fixed space of the induced action on
    the current quotient (the fixed space of the generators is the
    fixed space of the whole group); the construction succeeds iff
    every stage finds a nonzero fixed space before V is exhausted.  The
    certificate is re-verified before it is returned: every generator
    difference maps each flag step into the previous one.
    """
    field, n = rep.field, rep.dim
    w = Subspace.zero(field, n)
    steps = [w]
    qmats: Sequence[Matrix] = rep.generators
    stage = 1
    while not w.is_full():
        fix = fixed_space(qmats)
        if fix.is_zero():
            return NotUnipotent(stage, w, tuple(qmats))
        w = w.sum(Subspace(field, n, _lift_from_quotient(w, fix.basis.rows)))
        steps.append(w)
        if w.is_full():
            break
        qmats = [quotient_action(g, w) for g in rep.generators]
        stage += 1
    flag = Flag(steps)
    if not flag_drops(rep.generators, flag.steps):
        raise InternalInconsistencyError(FLAG_DROP_FAILED)
    return UnitriCertificate(flag, assemble_flag_basis(flag), flag.degree)


def generator_identity_witness(rep: Representation, n: int) -> tuple[str, ...] | None:
    """Sweep all generator n-tuples for (h_1-1)...(h_n-1) != 0.

    Returns the lexicographically first violating tuple of generator
    names, or None when every product vanishes.  Zero prefixes are
    pruned since every extension of them vanishes too.
    """
    if n < 1:
        raise ValueError("identity length must be at least 1")
    one = rep.identity()
    diffs = [(name, rep.generator(name) - one) for name in rep.names]
    return _first_live_tuple(diffs, n, Matrix.is_zero, one)


def _first_live_tuple(diffs, n: int, dead, start: Matrix | None = None):
    """Lexicographically first name tuple of length n whose product
    ``start * d_1 * ... * d_n`` (just ``d_1 * ... * d_n`` when start is
    None) is not ``dead``, or None.  ``dead`` must carry over to every
    right multiple, so a dead prefix prunes its whole subtree.  The walk
    is depth-first with an explicit stack, so n is not bounded by the
    recursion limit."""
    names: list[str] = []
    prefixes = [start]
    pending = [iter(diffs)]
    while pending:
        for name, d in pending[-1]:
            prefix = prefixes[-1]
            prod = d if prefix is None else prefix * d
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
            prefixes.pop()
            if names:
                names.pop()
    return None


def difference_product_spans(rep: Representation, upto: int) -> list[Subspace]:
    """Spans V_k of all vectors x (h_1-1)...(h_k-1), for k = 0..upto.

    Satisfies V_k = sum over generators of V_{k-1} (g-1), which keeps
    the computation linear in ``upto``.  Since V_k is a function of
    V_{k-1}, the list stops early at a zero span or before a span
    equal to the last one: its entries strictly descend, and the last
    one is V_upto.
    """
    return _difference_product_spans(rep.field, rep.dim, rep.generators, upto)


def _difference_product_spans(field: Field, n: int, generators: Sequence[Matrix],
                              upto: int) -> list[Subspace]:
    # the same spans for bare n x n matrices, so the radical oracle can
    # test a candidate subgroup without wrapping (and inverting) it
    one = Matrix.identity(field, n)
    diffs = [g - one for g in generators]
    spans = [Subspace.full(field, n)]
    for _ in range(upto):
        prev = spans[-1]
        if prev.is_zero():
            break
        nxt = Subspace._spanned(field, n, [r for d in diffs for r in (prev.basis * d).ints])
        if nxt == prev:
            break
        spans.append(nxt)
    return spans


def invariant_series_from_identity(rep: Representation, n: int) -> Flag:
    """Invariant flag with trivial factor actions built from a verified
    length-n generator identity.

    The steps are the spans of all length-k difference products; the
    trivial action on every factor is verified explicitly, which is the
    matrix-level content of the generator-to-group upgrade.  Repeated
    zero steps (when the identity holds below length n) are collapsed.
    """
    witness = generator_identity_witness(rep, n)
    if witness is not None:
        raise ValueError(f"length-{n} generator identity fails on tuple {witness}")
    spans = difference_product_spans(rep, n)
    if not spans[-1].is_zero():
        raise InternalInconsistencyError("verified identity left a nonzero span")
    flag = Flag(spans[::-1])
    if not flag_drops(rep.generators, flag.steps):
        raise InternalInconsistencyError(FLAG_DROP_FAILED)
    return flag


def unitriangular_degree(rep: Representation) -> int | None:
    """Nilpotency index of the augmentation ideal, or None.

    The enveloping algebra acts faithfully on V, so the ideal's power
    chain hitting zero at index n is equivalent to the length-n
    identity x (y_1-1)...(y_n-1) = 0 holding for all group elements,
    not just for generators.
    """
    env = rep.enveloping()
    _, index = ideal_power_chain(env.algebra, env.augmentation_ideal)
    return index


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
    length-(m*n) products vanish - is verified through the product
    spans before the bound is returned.
    """
    if n < 1:
        raise ValueError("identity length must be at least 1")
    _, m = ideal_power_chain(a1.parent, a1)
    if m is None:
        raise ValueError("the ideal is not nilpotent")
    one = rep.identity()
    diffs = [(name, rep.generator(name) - one) for name in rep.names]
    # prefixes already inside the ideal stay inside under right multiplication
    hit = _first_live_tuple(diffs, n, a1.contains)
    if hit is not None:
        raise LiftHypothesisError(hit)

    bound = m * n
    if not difference_product_spans(rep, bound)[-1].is_zero():
        raise InternalInconsistencyError("lifted identity failed matrix-level verification")
    return bound


def regular_representation(rep: Representation) -> Representation:
    """The group acting on its enveloping algebra by right multiplication.

    Dimension equals the algebra dimension; the generator g maps to the
    matrix of x -> x*g in the algebra basis coordinates.
    """
    env = rep.enveloping()
    alg = env.algebra
    gens = []
    for name in rep.names:
        g = rep.generator(name)
        rows = []
        for b in alg.basis:
            coords = alg.coordinates(b * g)
            if coords is None:
                raise InternalInconsistencyError("algebra is not closed under a generator")
            rows.append(coords)
        gens.append((name, Matrix(rep.field, rows, ncols=alg.dim)))
    return Representation(rep.field, gens)


class UnipotentRadical:
    """Membership test for the largest normal unitriangularly-acting
    subgroup: g belongs iff g - 1 lies in the algebra's radical.

    Conjugation stability of the radical under every generator is
    checked at construction (this underpins normality); the radical's
    verified nilpotency makes the member set act unitriangularly.
    """

    __slots__ = ("representation", "algebra", "ideal")

    def __init__(self, rep: Representation):
        env = rep.enveloping()
        self.representation = rep
        self.algebra = env.algebra
        self.ideal = env.radical
        members = self.ideal.matrices
        for name in rep.names:
            g, gi = rep.generator(name), rep.inverse(name)
            for r in members:
                if not self.ideal.contains(gi * r * g):
                    raise InternalInconsistencyError(
                        "radical is not stable under generator conjugation"
                    )

    def contains(self, g: Matrix) -> bool:
        return self.ideal.contains(g - self.representation.identity())

    def finite_subgroup(self, element_cap: int = 100_000, length_cap: int | None = None):
        """Explicit member list when the group is finite (BFS order)."""
        from .words import NotFiniteError, enumerate_elements

        table = enumerate_elements(self.representation, element_cap, length_cap)
        if not table.closed:
            raise NotFiniteError("group enumeration hit a cap; the group may be infinite")
        return tuple(m for m in table.elements if self.contains(m))

    def __repr__(self) -> str:
        return f"UnipotentRadical(radical dim {self.ideal.dim} of {self.representation!r})"


def unipotent_radical(rep: Representation) -> UnipotentRadical:
    return UnipotentRadical(rep)


KALOUJNINE_POOL = 32


def kaloujnine_class_check(
    rep: Representation,
    degree: int,
    sample_budget: int = 1000,
    word_length_cap: int = 8,
    seed: int = 0,
):
    """Sampling check that weight-``degree`` left-normed commutators are
    trivial, as they must be in a faithful representation that is
    unitriangular of that degree.

    Evidence, not proof: samples draw tuples from a pool of
    ``KALOUJNINE_POOL`` freshly sampled random words of bounded length.
    Returns None when every sampled commutator is the identity, else
    the witness word tuple.
    """
    if degree < 1:
        raise ValueError("degree must be at least 1")
    from .words import Word, evaluate_word, random_word

    rng = random.Random(seed)
    pool: list[Word] = []
    mats: list[tuple[Matrix, Matrix]] = []
    for _ in range(KALOUJNINE_POOL):
        w = random_word(rng, rep.names, word_length_cap)
        pool.append(w)
        mats.append((evaluate_word(rep, w), evaluate_word(rep, w.inverse())))
    for _ in range(sample_budget):
        picks = [rng.randrange(KALOUJNINE_POOL) for _ in range(degree)]
        c, ci = mats[picks[0]]
        trivial = c.is_identity()
        for t in picks[1:]:
            if trivial:
                break
            g, gi = mats[t]
            a = c * g
            pre = ci * gi
            q1 = gi * ci
            q2 = g * c
            c, ci = pre * a, q1 * q2
            trivial = c.is_identity()
        if not trivial:
            return tuple(pool[t] for t in picks)
    return None
