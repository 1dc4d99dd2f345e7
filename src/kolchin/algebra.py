"""Finite-dimensional unital matrix algebras.

Span closures of matrix sets, two-sided ideals with their power chains,
the nilpotent radical via the trace form, and exhaustive sweeps for the
standard alternating identities.

Algebras and ideals are stored the same way: as the span of their
matrices flattened row-major into F^(n^2), in reduced echelon form.
Every membership test is then one integer residual of ``flat(m)``
against an echelon span, and the coordinates of a member in the
algebra basis are its entries at the span's pivots.

An algebra records its ``generators``, the spun matrices or else its
basis.  Closures multiply by them only, since the words in them span
the algebra: d*k products instead of d*d.  Their loops prove what they
build, so only what a constructor is given gets checked.

Every closure is a right spin (``_spin``): each kept matrix is
multiplied on the right by each generator, and the products that grow
the span are kept in turn.  An ideal records its ``generators`` too:
matrices s with I = sum of the s*A, a right ideal that the seeds
generate.  Only they are multiplied on the left, because g*I is the sum
of the (g*s)*A: once each g*s lies in I, so does g*I.  The power chain
multiplies them on the left too: I^(k+1) = I*I^k is the sum of the
s*I^k, since A*I^k = I^k.
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


def _unflatten(field: Field, row: Sequence[int], den: int, n: int) -> Matrix:
    return Matrix.from_ints(field, [row[i * n:(i + 1) * n] for i in range(n)], den, n)


def _matrices(span: Subspace, n: int) -> tuple[Matrix, ...]:
    # the n x n matrices whose flattenings are the basis rows of span
    b = span.basis
    return tuple(_unflatten(span.field, row, b.den, n) for row in b.ints)


class AlgebraBasis:
    """Basis of a unital subalgebra of the n x n matrices.

    The algebra is its ``span``: the canonical reduced echelon span of
    its matrices flattened into F^(n^2).  ``basis`` is that span's rows
    reshaped into matrices, so it is the same for every spanning input
    and ``==`` is span equality.  ``contains`` reduces ``flat(m)``
    against the span; ``coordinates`` reads the entries of a member at
    the pivots, since each basis matrix is 1 at its own pivot and 0 at
    the others.

    ``generators`` is the basis when built here, and the constructor
    checks 1 and each product of two basis matrices; ``span_closure``
    keeps the spun matrices, and its loop proves the closure.
    """

    __slots__ = ("field", "matrix_size", "basis", "span", "generators")

    def __init__(self, field: Field, matrix_size: int, basis: Sequence[Matrix]):
        mats = tuple(basis)
        if not mats:
            raise ValueError("an algebra basis cannot be empty")
        for b in mats:
            if b.nrows != matrix_size or b.ncols != matrix_size or b.field != field:
                raise ValueError("basis matrices must be square of the stated size")
        self.field = field
        self.matrix_size = matrix_size
        self.span = Subspace._spanned(field, matrix_size ** 2, [flat(b) for b in mats])
        if self.span.dim != len(mats):
            raise ValueError("basis matrices are linearly dependent")
        self.basis = self.generators = _matrices(self.span, matrix_size)
        self._check_closure()

    @classmethod
    def _spun(cls, span: Subspace, matrix_size: int, generators: Sequence[Matrix]):
        a = object.__new__(cls)
        a.field, a.matrix_size, a.span = span.field, matrix_size, span
        a.basis, a.generators = _matrices(span, matrix_size), tuple(generators)
        return a

    def _check_closure(self):
        if not self.contains(Matrix.identity(self.field, self.matrix_size)):
            raise ValueError("algebra span does not contain the identity")
        for g in self.generators:
            if not self.contains(g) or not all(self.contains(b * g) for b in self.basis):
                raise ValueError("span is not closed under the generators")

    @property
    def dim(self) -> int:
        return len(self.basis)

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
    A the unital algebra the generators make.  Returns the kept seeds."""
    work = [s for s in seeds if span.absorb(flat(s))]
    kept = work[:]
    for m in work:  # grows while it is walked
        for g in generators:
            prod = m * g
            if span.absorb(flat(prod)):
                work.append(prod)
    return kept


def span_closure(field: Field, generators: Sequence[Matrix]) -> AlgebraBasis:
    """Smallest unital subalgebra of M_n containing the generators.

    Spin closure: the algebra is spanned by the words in the generators,
    so it is enough to spin the identity on the right.  The returned
    basis is the canonical one: the reduced echelon rows of the span,
    reshaped into matrices, so it does not depend on generator order.
    The kept words, 1 first, are a basis, and each was multiplied by
    every generator: the span is closed.
    """
    if not generators:
        raise ValueError("need at least one generator")
    n = generators[0].nrows
    for g in generators:
        if g.nrows != n or g.ncols != n or g.field != field:
            raise ValueError("generators must be square of one size over the field")
    span = RowSpan(field, n * n)
    _spin(span, [Matrix.identity(field, n)], generators)
    return AlgebraBasis._spun(span.to_subspace(), n, generators)


class Ideal:
    """Two-sided ideal of an AlgebraBasis.

    Stored as ``span``, the canonical echelon span of its matrices
    flattened into F^(n^2), the space the parent's ``span`` lives in.
    The constructor takes a subspace of the parent's coordinate space
    and maps it to matrices once; ``matrices`` are the canonical
    representatives, the reshaped basis rows of ``span``.

    ``generators`` generate the ideal as a right ideal, I = sum of the
    s*A: the kept seeds of ``ideal_closure``, or the basis when the
    constructor built the ideal (each b*A lies in I and holds b).  The
    power chain multiplies by them.
    ``nilpotency_index`` is kept by the first power chain that reaches
    zero, so later readers need not run one; None until then.
    """

    __slots__ = ("parent", "span", "generators", "nilpotency_index")

    def __init__(self, parent: AlgebraBasis, space: Subspace):
        if space.ambient_dim != parent.dim or space.field != parent.field:
            raise ValueError("ideal coordinates do not match the parent algebra")
        flat_rows = space.basis * parent.span.basis
        self.parent, self.nilpotency_index = parent, None
        self.span = Subspace._spanned(parent.field, parent.matrix_size ** 2, flat_rows.ints)
        self.generators = self.matrices
        self._check_ideal()

    @classmethod
    def _of_span(cls, parent: AlgebraBasis, span: Subspace, generators: Sequence[Matrix]) -> "Ideal":
        # an ideal from its canonical flattened span and its right-ideal generators
        i = object.__new__(cls)
        i.parent, i.span, i.generators, i.nilpotency_index = parent, span, tuple(generators), None
        return i

    @property
    def matrices(self) -> tuple[Matrix, ...]:
        return _matrices(self.span, self.parent.matrix_size)

    def _check_ideal(self):
        inside, residual = self.parent.span._residual, self.span._residual
        for u in self.matrices:
            if any(inside(flat(u))):
                raise ValueError("ideal matrix lies outside the algebra")
            for g in self.parent.generators:
                for prod in (g * u, u * g):
                    if any(residual(flat(prod))):
                        raise ValueError("subspace is not closed under algebra multiplication")

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

    The seeds are checked to lie in ``a`` and spun on the right to the
    end; then only the kept seeds are multiplied on the left by each
    generator of ``a``, and a left product that grows the span is kept
    as a new seed and spun in turn.  Proof: every kept element is s*w
    for a kept seed s and a word w, so I = sum of the s*A is closed on
    the right; each g*s lies in I, so g*I = sum of the (g*s)*A lies in I.

    For augmentation seeds h - 1 every left product already lies in the
    right ideal, as g(h - 1) = (g - 1)h + (h - 1) - (g - 1): the closure
    takes k*dim I + k*(kept seeds) products for k generators.
    """
    for s in seeds:
        if not a.contains(s):
            raise ValueError("seed matrix lies outside the algebra")
    span = RowSpan(a.field, a.matrix_size ** 2)
    kept = _spin(span, seeds, a.generators)
    for s in kept:  # grows while it is walked
        for g in a.generators:
            kept += _spin(span, [g * s], a.generators)
    return Ideal._of_span(a, span.to_subspace(), kept)


def ideal_power_chain(a: AlgebraBasis, i: Ideal):
    """Descending chain I, I^2, ... until zero or stabilisation.

    Returns (chain, nilpotency_index): the chain holds the spans of the
    powers in F^(n^2), as ``Ideal.span`` does; the index is None when
    the chain stabilises at a nonzero space.  The zero ideal has index 1.
    An index found is kept on ``i.nilpotency_index``.

    Each step multiplies the generators s of I on the left: I is the
    sum of the s*A, and A*I^k = I^k, so I^(k+1) = I * I^k is the sum of
    the s*I^k, spanned by the products s*u over the basis matrices u of
    I^k.  No product needs a spin.
    """
    if i.parent != a:
        raise ValueError("ideal does not belong to the algebra")
    chain = [i.span]
    if i.is_zero():
        i.nilpotency_index = 1
        return chain, 1
    current = i.matrices
    while True:
        span = RowSpan(a.field, a.matrix_size ** 2)
        for s in i.generators:
            for u in current:
                span.absorb(flat(s * u))
        space = span.to_subspace()
        chain.append(space)
        if space.is_zero():
            i.nilpotency_index = len(chain)
            return chain, len(chain)
        if space == chain[-2]:
            return chain, None
        current = _matrices(space, a.matrix_size)


def trace_radical(a: AlgebraBasis) -> Ideal:
    """Largest nilpotent ideal, via the kernel of the trace form.

    Valid in characteristic 0 or p > matrix size; smaller prime fields
    are rejected because the trace criterion is unsound there.  The
    Gram matrix is one product, as Tr(xy) = flat(x) . flat(y transposed).
    The kernel is nilpotent (Tr(x^k) = 0); its power chain keeps the index.
    """
    p = a.field.characteristic()
    if 0 < p <= a.matrix_size:
        raise CharacteristicTooSmallError(
            f"characteristic {p} <= matrix size {a.matrix_size}: trace form cannot see the radical"
        )
    n, fb = a.matrix_size, a.span.basis
    swapped = Matrix.from_ints(a.field, [[r[(c % n) * n + c // n] for c in range(n * n)]
                                         for r in fb.ints], fb.den, n * n)
    space = kernel(fb * swapped.transpose())
    rad = Ideal(a, space)
    ideal_power_chain(a, rad)
    return rad


def standard_identity_eval(k: int, mats: Sequence[Matrix]) -> Matrix:
    """Alternating sum over all orderings of a k-fold matrix product."""
    if len(mats) != k:
        raise ValueError(f"expected {k} matrices, got {len(mats)}")
    n = mats[0].nrows
    field = mats[0].field
    for m in mats:
        if m.nrows != n or m.ncols != n or m.field != field:
            raise ValueError("matrices must be square of one size over one field")
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
            prod = prefix * mats[idx]
            if prod.is_zero():
                continue
            above = bin(used >> (idx + 1)).count("1")  # chosen indices larger than idx
            acc = walk(prod, used | bit, inversions + above, acc)
        return acc

    return walk(identity, 0, 0, total)


def standard_identity_witness(a: AlgebraBasis, k: int):
    """First basis tuple (lexicographic) where the degree-k alternating
    identity fails, or None when the sweep verifies it.

    Multilinearity plus alternation make the injective-tuple sweep over
    basis elements complete: repeats vanish identically, and the value
    on any ordering is a sign times the value on the sorted tuple.
    """
    if k < 1:
        raise ValueError("identity degree must be at least 1")
    for combo in combinations(range(a.dim), k):
        value = standard_identity_eval(k, [a.basis[i] for i in combo])
        if not value.is_zero():
            return combo
    return None


def minimal_standard_degree(a: AlgebraBasis, max_k: int):
    """(witnesses, k): the smallest k in 2..max_k whose standard identity
    the algebra satisfies, or None, and the first failing basis tuple of
    each degree below it.  Every subalgebra of M_n satisfies S_2n
    (Amitsur-Levitzki), so degree 2n needs no sweep."""
    if max_k < 2:
        raise ValueError("max_k must be at least 2")
    witnesses = {}
    for k in range(2, max_k + 1):
        combo = None if k == 2 * a.matrix_size else standard_identity_witness(a, k)
        if combo is None:
            return witnesses, k
        witnesses[k] = combo
    return witnesses, None


def matrix_algebra(field: Field, n: int) -> AlgebraBasis:
    """The full algebra M_n over the field, basis in row-major unit order."""
    basis = []
    for i in range(n):
        for j in range(n):
            rows = [[1 if (r, c) == (i, j) else 0 for c in range(n)] for r in range(n)]
            basis.append(Matrix(field, rows))
    return AlgebraBasis(field, n, basis)


def upper_triangular_algebra(field: Field, n: int) -> AlgebraBasis:
    """All upper-triangular n x n matrices, unit basis in row-major order."""
    basis = []
    for i in range(n):
        for j in range(i, n):
            rows = [[1 if (r, c) == (i, j) else 0 for c in range(n)] for r in range(n)]
            basis.append(Matrix(field, rows))
    return AlgebraBasis(field, n, basis)
