"""Representation-level algorithms for finitely generated matrix groups.

Unipotency indices, simultaneous unitriangularization via iterated
preimages in V, generator-product identities and their invariant series,
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
    preimage,
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

    ``algebra`` is the span closure of the generators and the identity,
    closed by its spin.  The ideals are computed on first read and then
    kept: ``augmentation_ideal`` is the ideal closure of the g - 1, and
    ``augmentation_index`` is its nilpotency index from one power chain,
    or None when the ideal is not nilpotent.  The ideal holds every
    g - 1, so it is nilpotent only if they are: a generator difference
    that is not nilpotent answers None with no closure and no chain.

    The closure is a right spin of the g - 1, with only them multiplied
    on the left: every kept element is (h - 1)*w, so the span is closed
    on the right, and g(h - 1) = (g - 1)h + (h - 1) - (g - 1) already
    lies in it, so no left product grows it.  The chain spans the
    products (h - 1)*u, u in a basis of the last power.

    ``radical`` is the augmentation ideal when its index exists: the
    algebra is F*1 plus the augmentation ideal, so a nilpotent
    augmentation ideal has codimension 1 and is the whole radical.
    Otherwise it is the kernel of the trace form.  Either route's power
    chain leaves the radical its ``nilpotency_index``.  Over prime
    fields with p <= n it raises CharacteristicTooSmallError on either
    route, since the certificate checker has only the trace form there.
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
    def augmentation_index(self) -> int | None:
        one = Matrix.identity(self.algebra.field, self.algebra.matrix_size)
        if any(_nilpotency_index(g - one) is None for g in self.algebra.generators):
            return None
        _, index = ideal_power_chain(self.algebra, self.augmentation_ideal)
        return index

    @cached_property
    def radical(self) -> Ideal:
        a = self.algebra
        p = a.field.characteristic()
        if not 0 < p <= a.matrix_size and self.augmentation_index is not None:
            return self.augmentation_ideal
        return trace_radical(a)


def unipotency_index(rep: Representation, g: Matrix) -> int | None:
    """Minimal n with (g - 1)^n = 0, or None when g is not unipotent.

    The index is bounded by the dimension, so the search is exact.
    """
    if g.nrows != g.ncols or g.nrows != rep.dim or g.field != rep.field:
        raise ValueError("element matrix does not match the representation")
    return _nilpotency_index(g - rep.identity())


def _nilpotency_index(nil: Matrix) -> int | None:
    """Minimal n with nil^n = 0 for a square matrix, or None; n is at
    most the size, so size - 1 products decide it."""
    power, n = nil, 1
    while not power.is_zero():
        if n >= nil.nrows:
            return None
        power, n = power * nil, n + 1
    return n


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

    ``reached`` is the invariant subspace built so far; the group fixes
    no nonzero vector of V/``reached``.
    """

    stage: int
    reached: Subspace


def kolchin_flag(rep: Representation) -> UnitriCertificate | NotUnipotent:
    """Simultaneous unitriangularization by iterated preimages in V.

    Step i is W_i = {v : v (g-1) in W_(i-1) for every generator g}, one
    left kernel (``linalg.preimage``); the generators' fixed space on
    V/W_(i-1) is the fixed space of the whole group there.  The
    construction succeeds iff every step grows until V is reached; a
    step that does not grow is returned as the obstruction.  Every
    generator difference maps each step into the previous one, since
    W_i is the preimage of W_(i-1) by definition.
    """
    one = rep.identity()
    diffs = [g - one for g in rep.generators]
    steps = [Subspace.zero(rep.field, rep.dim)]
    while not steps[-1].is_full():
        w = preimage(steps[-1], diffs)
        if w.dim == steps[-1].dim:
            return NotUnipotent(len(steps), w)
        steps.append(w)
    flag = Flag(steps)
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
    return _first_live_tuple(diffs, n, Matrix.is_zero)


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


def difference_product_spans(generators: Sequence[Matrix], upto: int) -> list[Subspace]:
    """Spans V_k of all vectors x (h_1-1)...(h_k-1), for k = 0..upto and
    each h_i one of the (at least one) n x n matrices ``generators``.

    Satisfies V_k = sum over generators of V_{k-1} (g-1), which keeps
    the computation linear in ``upto``.  Since V_k is a function of
    V_{k-1}, the list stops early at a zero span or before a span
    equal to the last one: its entries strictly descend, and the last
    one is V_upto.
    """
    field, n = generators[0].field, generators[0].nrows
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
    identity holds iff the last is zero, and only a failing one runs the
    tuple sweep, to name its witness.  V_k is the sum of the V_(k-1) (g-1),
    so the group acts trivially on every factor.  Repeated zero steps
    (when the identity holds below length n) are collapsed.
    """
    if n < 1:
        raise ValueError("identity length must be at least 1")
    spans = difference_product_spans(rep.generators, n)
    if not spans[-1].is_zero():
        witness = generator_identity_witness(rep, n)
        raise ValueError(f"length-{n} generator identity fails on tuple {witness}")
    return Flag(spans[::-1])


def unitriangular_degree(rep: Representation) -> int | None:
    """Nilpotency index of the augmentation ideal, or None.

    The enveloping algebra acts faithfully on V, so the ideal's power
    chain hitting zero at index n is equivalent to the length-n
    identity x (y_1-1)...(y_n-1) = 0 holding for all group elements,
    not just for generators.  The index is the one the enveloping data
    keeps (``EnvelopingData.augmentation_index``), so the chain runs
    once for this degree and the radical together, and not at all for a
    group with a generator that is not unipotent.
    """
    return rep.enveloping().augmentation_index


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
    spans before the bound is returned.  An index the ideal keeps (the
    enveloping data's radical has one on either route) is reused.
    """
    if n < 1:
        raise ValueError("identity length must be at least 1")
    m = a1.nilpotency_index or ideal_power_chain(a1.parent, a1)[1]
    if m is None:
        raise ValueError("the ideal is not nilpotent")
    one = rep.identity()
    diffs = [(name, rep.generator(name) - one) for name in rep.names]
    # prefixes already inside the ideal stay inside under right multiplication
    hit = _first_live_tuple(diffs, n, a1.contains)
    if hit is not None:
        raise LiftHypothesisError(hit)

    bound = m * n
    if not difference_product_spans(rep.generators, bound)[-1].is_zero():
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
        for b in alg.basis:  # the spin closed the algebra under every g
            rows.append(alg.coordinates(b * g))
        gens.append((name, Matrix(rep.field, rows, ncols=alg.dim)))
    return Representation(rep.field, gens)


class UnipotentRadical:
    """Membership test for the largest normal unitriangularly-acting
    subgroup: g belongs iff g - 1 lies in the algebra's radical.

    The radical is ``EnvelopingData.radical``: the augmentation ideal
    when its power chain reaches zero (then every member is unipotent
    and the whole group is the subgroup), else the trace-form kernel.
    Either route is a two-sided ideal (the closure loop proves one, the
    ``Ideal`` constructor checks the other), and each g^-1 lies in the
    algebra (Cayley-Hamilton), so the group conjugates it to itself: the
    member set is normal.  Its nilpotency makes the members act
    unitriangularly.
    """

    __slots__ = ("representation", "ideal")

    def __init__(self, rep: Representation):
        self.representation = rep
        self.ideal = rep.enveloping().radical

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
    the witness word tuple.  A sample whose first pick is 1 costs no
    product.  Each step but the last computes h = g^-1 (c g), trivial
    iff h == c, and [c, g] = c^-1 h only when it is not; the last step
    is the plain commute test c g == g c.  An inverse [c, g]^-1 is built
    only when the next step is not trivial.  So the pool carries
    inverses only from degree 3 on, and at degree 3 a sample takes at
    most five products.
    """
    if degree < 1 or sample_budget < 1 or word_length_cap < 1:
        raise ValueError("degree, sample budget and word length cap must be at least 1")
    from .words import Word, _first_trivial_step, evaluate_word, random_word

    rng = random.Random(seed)
    pool: list[Word] = []
    mats: list[tuple[Matrix, Matrix | None]] = []
    for _ in range(KALOUJNINE_POOL):
        w = random_word(rng, rep.names, word_length_cap)
        pool.append(w)
        mats.append((evaluate_word(rep, w),
                     evaluate_word(rep, w.inverse()) if degree > 2 else None))
    for _ in range(sample_budget):
        picks = [rng.randrange(KALOUJNINE_POOL) for _ in range(degree)]
        c, c_inverse = mats[picks[0]]
        if not c.is_identity() and _first_trivial_step(
                c, lambda: c_inverse, [mats[t] for t in picks[1:]]) is None:
            return tuple(pool[t] for t in picks)
    return None
