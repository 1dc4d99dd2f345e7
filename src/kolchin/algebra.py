"""Finite-dimensional unital matrix algebras.

Span closures of matrix sets, two-sided ideals with their power chains,
the nilpotent radical via the trace form, and exhaustive sweeps for the
standard alternating identities.

Algebras and ideals are stored the same way: as the span of their
matrices flattened row-major into F^(n^2), in reduced echelon form.
Every membership test is then one integer residual of ``flat(m)``
against an echelon span, and the coordinates of a member in the
algebra basis are its entries at the span's pivots.

An algebra records its ``generators``, the matrices it was spun from
(the unit matrices for ``matrix_algebra`` and
``upper_triangular_algebra``).  Closures multiply by them only, since
the words in them span the algebra: d*k products instead of d*d.
Their loops prove what they build, so the one constructor of each
class stores a span and generators without a check; the closures
check only what they are given.

Every closure is a right spin (``_spin``): each kept matrix is
multiplied on the right by each generator, and the products that grow
the span are kept in turn; a zero product is never absorbed.  The
algebra spins its generators before it adds 1, and records that span:
the ideal they generate.  An ideal records its ``generators`` too,
matrices s with I = sum of the s*A.  Only they are multiplied on the
left, since g*I is the sum of the (g*s)*A, and by the power chain:
I^(k+1) = I*I^k is the sum of the s*I^k, since A*I^k = I^k.
"""

from __future__ import annotations

from itertools import combinations
from typing import Sequence

from .fields import Field
from .linalg import Matrix, RowSpan, Subspace, flat, kernel


class CharacteristicTooSmallError(ValueError):
    """Trace-form radical needs characteristic 0 or p > matrix size."""


class InternalInconsistencyError(RuntimeError):
    """A structural self-check failed; indicates a bug, not bad input."""


# work one standard-identity sweep (one degree k over all k-subsets of a
# basis) may take, counted as n^3 scalar multiplications per n x n
# product, since that bounds its time: 2,000,000 products at n = 6, where
# one takes about 8 us over Q on one core of a 2-core x86-64 machine with
# CPython 3.11, so about 16 s there.  The largest sweep the tests finish
# (S_9 on M_5 + F, n = 6) takes 477,023 products, a quarter of the cap
SWEEP_WORK_CAP = 2_000_000 * 6 ** 3


class SweepCapExceeded(Exception):
    """A standard-identity sweep needed more than ``SWEEP_WORK_CAP``
    scalar multiplications; the identity is neither verified nor refuted."""

    def __init__(self, k: int, n: int):
        super().__init__(f"the degree-{k} standard identity sweep needs more than "
                         f"{SWEEP_WORK_CAP // n ** 3:,} products of {n} x {n} matrices")


def _unflatten(field: Field, row: Sequence[int], den: int, n: int) -> Matrix:
    return Matrix.from_ints(field, [row[i * n:(i + 1) * n] for i in range(n)], den, n)


def _matrices(span: Subspace, n: int) -> tuple[Matrix, ...]:
    # the n x n matrices whose flattenings are the basis rows of span
    b = span.basis
    return tuple(_unflatten(span.field, row, b.den, n) for row in b.ints)


class AlgebraBasis:
    """Basis of a unital subalgebra of the n x n matrices.

    The constructor stores what ``span_closure`` proved: ``span``, the
    canonical reduced echelon span of the words in the ``generators``
    flattened into F^(n^2), and ``generated``, the span of the words of
    length 1 or more with the generators that grew it, which
    ``ideal_closure`` reads.  ``basis`` reshapes the span's rows into
    matrices on each read, so it is the same for every spanning input
    and ``==`` is span equality.  ``coordinates`` reads a member's
    entries at the pivots: each basis matrix is 1 at its own, else 0.
    """

    __slots__ = ("field", "matrix_size", "span", "generators", "generated")

    def __init__(self, span: Subspace, matrix_size: int, generators: Sequence[Matrix],
                 generated: tuple[Subspace, tuple[Matrix, ...]]):
        self.field, self.matrix_size, self.span = span.field, matrix_size, span
        self.generators, self.generated = tuple(generators), generated

    @property
    def basis(self) -> tuple[Matrix, ...]:
        return _matrices(self.span, self.matrix_size)

    @property
    def dim(self) -> int:
        return self.span.dim

    def _flat(self, m: Matrix) -> tuple:
        if m.nrows != self.matrix_size or m.ncols != self.matrix_size or m.field != self.field:
            raise ValueError("matrix has the wrong size or field for this algebra")
        return flat(m)

    def coordinates(self, m: Matrix):
        """Coefficients of ``m`` in the basis, or None if m lies outside."""
        v = self._flat(m)
        if any(self.span._residual(v)):
            return None
        n = self.matrix_size
        return tuple(m[divmod(c, n)] for c in self.span.pivots)

    def contains(self, m: Matrix) -> bool:
        return not any(self.span._residual(self._flat(m)))

    def __eq__(self, other) -> bool:
        return isinstance(other, AlgebraBasis) and self.span == other.span

    def __hash__(self) -> int:
        return hash(self.span)

    def __repr__(self) -> str:
        return f"AlgebraBasis(dim {self.dim} in M_{self.matrix_size}({self.field}))"


def _spin(span: RowSpan, seeds: Sequence[Matrix], generators: Sequence[Matrix]) -> list:
    """Right spin of the seeds: absorb them into ``span``, then multiply
    each one kept, and each product kept on the way, on the right by
    each generator, keeping the products that grow the span.  What the
    spin adds to ``span`` is the sum of the s*A over the kept seeds s,
    A the unital algebra the generators make.  Returns the kept seeds.
    A zero product adds nothing to a span, so it is never absorbed:
    over nilpotent generators most products are zero."""
    work = [s for s in seeds if span.absorb(flat(s))]
    kept = work[:]
    for m in work:  # grows while it is walked
        for g in generators:
            prod = m * g
            if not prod.is_zero() and span.absorb(flat(prod)):
                work.append(prod)
    return kept


def span_closure(field: Field, generators: Sequence[Matrix]) -> AlgebraBasis:
    """Smallest unital subalgebra of M_n containing the generators.

    The words in the generators span it.  The generators are spun on
    the right first, which spans the words of length 1 or more: the
    two-sided ideal they generate, kept as ``generated``.  Then 1 is
    added; its products by the generators are already in.  The basis is
    canonical (the reduced echelon rows) for every generator order.
    """
    if not generators:
        raise ValueError("need at least one generator")
    n = generators[0].nrows
    for g in generators:
        if g.nrows != n or g.ncols != n or g.field != field:
            raise ValueError("generators must be square of one size over the field")
    span = RowSpan(field, n * n)
    kept = _spin(span, generators, generators)
    generated = span.to_subspace(), tuple(kept)
    span.absorb(flat(Matrix.identity(field, n)))
    return AlgebraBasis(span.to_subspace(), n, generators, generated)


class Ideal:
    """Two-sided ideal of an AlgebraBasis.

    Stored as ``span``, the canonical echelon span of its matrices
    flattened into F^(n^2), the space the parent's ``span`` lives in;
    ``matrices`` are the canonical representatives, the reshaped basis
    rows of ``span``.  The constructor stores what ``ideal_closure`` or
    ``trace_radical`` proved.

    ``generators`` generate the ideal as a right ideal, I = sum of the
    s*A: the kept seeds of ``ideal_closure``, or the basis of the
    trace radical (each b*A lies in I and holds b).  The power chain
    multiplies by them.  ``nilpotency_index`` runs one power chain on
    its first read and keeps what it found.
    """

    __slots__ = ("parent", "span", "generators", "_index")

    def __init__(self, parent: AlgebraBasis, span: Subspace, generators: Sequence[Matrix]):
        self.parent, self.span, self.generators = parent, span, tuple(generators)

    @property
    def matrices(self) -> tuple[Matrix, ...]:
        return _matrices(self.span, self.parent.matrix_size)

    @property
    def nilpotency_index(self) -> int | None:
        """Least k with I^k = 0, or None when the powers stabilise above 0."""
        if not hasattr(self, "_index"):
            self._index = ideal_power_chain(self.parent, self)[1]
        return self._index

    @property
    def dim(self) -> int:
        return self.span.dim

    def is_zero(self) -> bool:
        return self.span.is_zero()

    def contains(self, m: Matrix) -> bool:
        return not any(self.span._residual(self.parent._flat(m)))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Ideal)
            and self.parent == other.parent
            and self.span == other.span
        )

    def __hash__(self) -> int:
        return hash(self.span)

    def __repr__(self) -> str:
        return f"Ideal(dim {self.dim} of {self.parent!r})"


def ideal_closure(a: AlgebraBasis, seeds: Sequence[Matrix]) -> Ideal:
    """Smallest two-sided ideal of ``a`` containing the seeds.

    Seeds that are exactly the generators of ``a`` read the ideal that
    ``span_closure`` recorded, with no product.  Other seeds are checked
    to lie in ``a`` and spun on the right; then only the kept seeds are
    multiplied on the left by each generator of ``a``, and a left
    product that grows the span is a new seed, spun in turn.  Every kept
    element is s*w for a kept seed s and a word w, so I = sum of the
    s*A is closed on the right, and g*I = sum of the (g*s)*A lies in I.
    A generator g inside the right ideal takes no more left products:
    g*I lies in I*A = I, and the span only grows.
    """
    if tuple(seeds) == a.generators:
        return Ideal(a, *a.generated)
    for s in seeds:
        if not a.contains(s):
            raise ValueError("seed matrix lies outside the algebra")
    span = RowSpan(a.field, a.matrix_size ** 2)
    kept = _spin(span, seeds, a.generators)
    outside = list(a.generators)
    for s in kept:  # grows while it is walked
        outside = [g for g in outside if not span.contains(flat(g))]
        for g in outside:
            kept += _spin(span, [g * s], a.generators)
    return Ideal(a, span.to_subspace(), kept)


def ideal_power_chain(a: AlgebraBasis, i: Ideal):
    """Descending chain I, I^2, ... until zero or stabilisation.

    Returns (chain, nilpotency_index): the chain holds the spans of the
    powers in F^(n^2), as ``Ideal.span`` does; the index is None when
    the chain stabilises at a nonzero space.  The zero ideal has index 1.
    It writes nothing; ``Ideal.nilpotency_index`` keeps the index it reads.

    Each step multiplies the generators s of I on the left: I is the
    sum of the s*A, and A*I^k = I^k, so I^(k+1) = I * I^k is the sum of
    the s*I^k, spanned by the products s*u over the basis matrices u of
    I^k.  No product needs a spin, and a zero one is not absorbed: over
    nilpotent generators each power has more of them than the last.
    """
    if i.parent != a:
        raise ValueError("ideal does not belong to the algebra")
    chain = [i.span]
    if i.is_zero():
        return chain, 1
    current = i.matrices
    while True:
        span = RowSpan(a.field, a.matrix_size ** 2)
        for s in i.generators:
            for u in current:
                prod = s * u
                if not prod.is_zero():
                    span.absorb(flat(prod))
        space = span.to_subspace()
        chain.append(space)
        if space.is_zero():
            return chain, len(chain)
        if space == chain[-2]:
            return chain, None
        current = _matrices(space, a.matrix_size)


def trace_radical(a: AlgebraBasis) -> Ideal:
    """Largest nilpotent ideal, via the kernel of the trace form.

    Valid in characteristic 0 or p > matrix size; smaller prime fields
    are rejected because the trace criterion is unsound there.  The
    Gram matrix is one product, as Tr(xy) = flat(x) . flat(y transposed).
    No check runs: Tr(axy) = Tr(xya) makes the kernel a two-sided ideal,
    and Tr(x^k) = 0 for all k makes each x in it nilpotent when p = 0 or
    p > n, so the kernel is a nilpotent ideal.
    """
    p = a.field.characteristic()
    if 0 < p <= a.matrix_size:
        raise CharacteristicTooSmallError(
            f"characteristic {p} <= matrix size {a.matrix_size}: trace form cannot see the radical"
        )
    n, fb = a.matrix_size, a.span.basis
    swapped = Matrix.from_ints(a.field, [[r[(c % n) * n + c // n] for c in range(n * n)]
                                         for r in fb.ints], fb.den, n * n)
    flat_rows = kernel(fb * swapped.transpose()).basis * fb
    span = Subspace._spanned(a.field, n * n, flat_rows.ints)
    return Ideal(a, span, _matrices(span, n))


def standard_identity_eval(k: int, mats: Sequence[Matrix],
                           budget: list[int] | None = None) -> Matrix:
    """Alternating sum over all orderings of a k-fold matrix product.

    ``budget`` is a one-item list of the scalar multiplications left to
    the sweep this evaluation belongs to, so that its evaluations share
    one; each n x n product takes n^3, and SweepCapExceeded is raised
    when too few are left.  Without one, the evaluation alone may take
    ``SWEEP_WORK_CAP``."""
    if len(mats) != k:
        raise ValueError(f"expected {k} matrices, got {len(mats)}")
    n = mats[0].nrows
    field = mats[0].field
    for m in mats:
        if m.nrows != n or m.ncols != n or m.field != field:
            raise ValueError("matrices must be square of one size over one field")
    if budget is None:
        budget = [SWEEP_WORK_CAP]
    cost = n ** 3
    total = Matrix.zero(field, n, n)
    # depth-first over ordered selections, sharing prefix products;
    # zero prefixes cannot contribute and are pruned
    identity = Matrix.identity(field, n)

    def walk(prefix: Matrix, used: int, inversions: int, acc: Matrix) -> Matrix:
        depth = bin(used).count("1")
        if depth == k:
            return acc - prefix if inversions & 1 else acc + prefix
        for idx in range(k):
            bit = 1 << idx
            if used & bit:
                continue
            if budget[0] < cost:
                raise SweepCapExceeded(k, n)
            budget[0] -= cost
            prod = prefix * mats[idx]
            if prod.is_zero():
                continue
            above = bin(used >> (idx + 1)).count("1")  # chosen indices larger than idx
            acc = walk(prod, used | bit, inversions + above, acc)
        return acc

    return walk(identity, 0, 0, total)


def standard_identity_sweep(basis: Sequence[Matrix], k: int):
    """First k-subset of ``basis``, as increasing indices, where the
    degree-k standard identity fails, or None when it holds on all of
    them.  The evaluations share one budget of ``SWEEP_WORK_CAP``, past
    which SweepCapExceeded is raised."""
    budget = [SWEEP_WORK_CAP]
    for combo in combinations(range(len(basis)), k):
        if not standard_identity_eval(k, [basis[i] for i in combo], budget).is_zero():
            return combo
    return None


def standard_identity_witness(a: AlgebraBasis, k: int):
    """First basis tuple (lexicographic) where the degree-k alternating
    identity fails, or None when the sweep verifies it.

    Multilinearity plus alternation make the injective-tuple sweep over
    basis elements complete: repeats vanish identically, and the value
    on any ordering is a sign times the value on the sorted tuple.
    Raises SweepCapExceeded past ``SWEEP_WORK_CAP``.
    """
    if k < 1:
        raise ValueError("identity degree must be at least 1")
    return standard_identity_sweep(a.basis, k)


def minimal_standard_degree(a: AlgebraBasis, max_k: int):
    """(witnesses, k): the smallest k in 2..max_k whose standard identity
    the algebra satisfies, or None, and the first failing basis tuple of
    each degree below it.  Every subalgebra of M_n satisfies S_2n
    (Amitsur-Levitzki), so degree 2n needs no sweep.  A sweep past
    ``SWEEP_WORK_CAP`` raises SweepCapExceeded."""
    if max_k < 2:
        raise ValueError("max_k must be at least 2")
    witnesses = {}
    for k in range(2, max_k + 1):
        combo = None if k == 2 * a.matrix_size else standard_identity_witness(a, k)
        if combo is None:
            return witnesses, k
        witnesses[k] = combo
    return witnesses, None


def _unit_algebra(field: Field, n: int, units) -> AlgebraBasis:
    # the span closure of the unit matrices E_ij, (i, j) in units
    return span_closure(field, [Matrix(field, [[int((r, c) == ij) for c in range(n)]
                                               for r in range(n)]) for ij in units])


def matrix_algebra(field: Field, n: int) -> AlgebraBasis:
    """The full algebra M_n over the field, basis in row-major unit order."""
    return _unit_algebra(field, n, [(i, j) for i in range(n) for j in range(n)])


def upper_triangular_algebra(field: Field, n: int) -> AlgebraBasis:
    """All upper-triangular n x n matrices, unit basis in row-major order."""
    return _unit_algebra(field, n, [(i, j) for i in range(n) for j in range(i, n)])
