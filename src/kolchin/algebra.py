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
basis.  Closures and their self-checks multiply by them only, since the
words in them span the algebra: d*k products instead of d*d.
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

    ``generators`` is the basis when built here, the spun matrices in
    ``span_closure``; the closure check puts 1, each generator and each
    basis matrix times a generator in the span.
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
        a._check_closure()
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

    def from_coordinates(self, coords: Sequence) -> Matrix:
        if len(coords) != self.dim:
            raise ValueError("coordinate length mismatch")
        row = Matrix(self.field, [coords]) * self.span.basis
        return _unflatten(self.field, row.ints[0], row.den, self.matrix_size)

    def __eq__(self, other) -> bool:
        return isinstance(other, AlgebraBasis) and self.span == other.span

    def __hash__(self) -> int:
        return hash(self.span)

    def __repr__(self) -> str:
        return f"AlgebraBasis(dim {self.dim} in M_{self.matrix_size}({self.field}))"


def span_closure(field: Field, generators: Sequence[Matrix]) -> AlgebraBasis:
    """Smallest unital subalgebra of M_n containing the generators.

    Spin closure: the algebra is spanned by the words in the generators,
    so it is enough to multiply every kept element, starting from the
    identity, on the right by each generator, and to keep the products
    that grow the span.  The returned basis is the canonical one: the
    reduced echelon rows of the span, reshaped into matrices, so it does
    not depend on generator order.  The spin makes the span one of
    words in the generators, so the closure check multiplies by them.
    """
    if not generators:
        raise ValueError("need at least one generator")
    n = generators[0].nrows
    for g in generators:
        if g.nrows != n or g.ncols != n or g.field != field:
            raise ValueError("generators must be square of one size over the field")
    one = Matrix.identity(field, n)
    span = RowSpan(field, n * n)
    span.absorb(flat(one))
    work = [one]
    for m in work:  # grows while it is walked
        for g in generators:
            prod = m * g
            if span.absorb(flat(prod)):
                work.append(prod)
    return AlgebraBasis._spun(span.to_subspace(), n, generators)


class Ideal:
    """Two-sided ideal of an AlgebraBasis.

    Stored as ``span``, the canonical echelon span of its matrices
    flattened into F^(n^2), the space the parent's ``span`` lives in.
    The constructor takes a subspace of the parent's coordinate space
    and maps it to matrices once; ``matrices`` are the canonical
    representatives, the reshaped basis rows of ``span``.
    """

    __slots__ = ("parent", "span")

    def __init__(self, parent: AlgebraBasis, space: Subspace):
        if space.ambient_dim != parent.dim or space.field != parent.field:
            raise ValueError("ideal coordinates do not match the parent algebra")
        flat_rows = space.basis * parent.span.basis
        self.parent = parent
        self.span = Subspace._spanned(parent.field, parent.matrix_size ** 2, flat_rows.ints)
        self._check_ideal()

    @classmethod
    def _of_span(cls, parent: AlgebraBasis, span: Subspace) -> "Ideal":
        # an ideal from its canonical flattened span
        i = object.__new__(cls)
        i.parent, i.span = parent, span
        i._check_ideal()
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
    """Smallest two-sided ideal of ``a`` containing the seeds: their span
    closed under multiplication by the generators of ``a`` on both sides."""
    for s in seeds:
        if not a.contains(s):
            raise ValueError("seed matrix lies outside the algebra")
    span = RowSpan(a.field, a.matrix_size ** 2)
    elems = [s for s in seeds if span.absorb(flat(s))]
    for u in elems:  # grows while it is walked
        for g in a.generators:
            for prod in (g * u, u * g):
                if span.absorb(flat(prod)):
                    elems.append(prod)
    return Ideal._of_span(a, span.to_subspace())


def ideal_power_chain(a: AlgebraBasis, i: Ideal):
    """Descending chain I, I^2, ... until zero or stabilisation.

    Returns (chain, nilpotency_index): the chain holds the spans of the
    powers in F^(n^2), as ``Ideal.span`` does; the index is None when
    the chain stabilises at a nonzero space.  The zero ideal has index 1.
    """
    if i.parent != a:
        raise ValueError("ideal does not belong to the algebra")
    chain = [i.span]
    if i.is_zero():
        return chain, 1
    gens = current = i.matrices
    while True:
        span = RowSpan(a.field, a.matrix_size ** 2)
        for u in current:
            for v in gens:
                span.absorb(flat(u * v))
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
    The result is re-verified nilpotent before it is returned.
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
    _, index = ideal_power_chain(a, rad)
    if index is None:
        raise InternalInconsistencyError("trace-form kernel failed nilpotency verification")
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
    if k > a.dim:
        return None  # no injective k-tuples exist; identity holds trivially
    for combo in combinations(range(a.dim), k):
        value = standard_identity_eval(k, [a.basis[i] for i in combo])
        if not value.is_zero():
            return combo
    return None


def satisfies_standard_identity(a: AlgebraBasis, k: int) -> bool:
    return standard_identity_witness(a, k) is None


def minimal_standard_degree(a: AlgebraBasis, max_k: int):
    """Smallest k in 2..max_k whose standard identity the algebra
    satisfies, or None when none is found up to the bound."""
    if max_k < 2:
        raise ValueError("max_k must be at least 2")
    for k in range(2, max_k + 1):
        if standard_identity_witness(a, k) is None:
            return k
    return None


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
