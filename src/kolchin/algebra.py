"""Finite-dimensional unital matrix algebras.

Span closures of matrix sets, two-sided ideals with their power chains,
the nilpotent radical via the trace form, and exhaustive sweeps for the
standard alternating identities.
"""

from __future__ import annotations

from itertools import combinations
from typing import Sequence

from .fields import Field
from .linalg import Matrix, RowSpan, Subspace, express_in_rows, flat, kernel, rref


class CharacteristicTooSmallError(ValueError):
    """Trace-form radical needs characteristic 0 or p > matrix size."""


class InternalInconsistencyError(RuntimeError):
    """A structural self-check failed; indicates a bug, not bad input."""


def _flatten(m: Matrix) -> Matrix:
    # the 1 x n^2 matrix of the entries of m in row-major order
    return Matrix.from_ints(m.field, (flat(m),), m.den, m.nrows * m.ncols)


def _unflatten(field: Field, row: Sequence[int], den: int, n: int) -> Matrix:
    return Matrix.from_ints(field, [row[i * n:(i + 1) * n] for i in range(n)], den, n)


class AlgebraBasis:
    """Basis of a unital subalgebra of the n x n matrices.

    The basis is product-closed as a span and contains the identity in
    its span; ``coordinates`` expresses arbitrary matrices in the basis
    or reports non-membership.
    """

    __slots__ = ("field", "matrix_size", "basis", "_ech", "_flat_matrix")

    def __init__(self, field: Field, matrix_size: int, basis: Sequence[Matrix]):
        self.field = field
        self.matrix_size = matrix_size
        self.basis = tuple(basis)
        if not self.basis:
            raise ValueError("an algebra basis cannot be empty")
        for b in self.basis:
            if b.nrows != matrix_size or b.ncols != matrix_size or b.field != field:
                raise ValueError("basis matrices must be square of the stated size")
        self._flat_matrix = Matrix.vstack([_flatten(b) for b in self.basis])
        # for a basis already in echelon form (span_closure's), rref
        # returns the flat matrix itself as ``reduced``
        self._ech = rref(self._flat_matrix)
        if self._ech.rank != len(self.basis):
            raise ValueError("basis matrices are linearly dependent")
        self._check_closure()

    def _check_closure(self):
        if not self.contains(Matrix.identity(self.field, self.matrix_size)):
            raise ValueError("algebra span does not contain the identity")
        for a in self.basis:
            for b in self.basis:
                if not self.contains(a * b):
                    raise ValueError("basis is not product-closed as a span")

    @property
    def dim(self) -> int:
        return len(self.basis)

    def coordinates(self, m: Matrix):
        """Coefficients of ``m`` in the basis, or None if m lies outside."""
        if m.nrows != self.matrix_size or m.ncols != self.matrix_size or m.field != self.field:
            raise ValueError("matrix has the wrong size or field for this algebra")
        return express_in_rows(self._flat_matrix, _flatten(m), self._ech)

    def contains(self, m: Matrix) -> bool:
        return self.coordinates(m) is not None

    def from_coordinates(self, coords: Sequence) -> Matrix:
        if len(coords) != self.dim:
            raise ValueError("coordinate length mismatch")
        return self._members(Matrix(self.field, [coords]))[0]

    def _members(self, coords: Matrix) -> tuple[Matrix, ...]:
        # the matrices whose coordinates are the rows of ``coords``
        flat_rows = coords * self._flat_matrix
        return tuple(_unflatten(self.field, row, flat_rows.den, self.matrix_size)
                     for row in flat_rows.ints)

    def __eq__(self, other) -> bool:
        # bases are canonical, so value equality is span equality
        return (
            isinstance(other, AlgebraBasis)
            and self.field == other.field
            and self.matrix_size == other.matrix_size
            and self.basis == other.basis
        )

    def __hash__(self) -> int:
        return hash((self.field, self.matrix_size, self.basis))

    def __repr__(self) -> str:
        return f"AlgebraBasis(dim {self.dim} in M_{self.matrix_size}({self.field}))"


def span_closure(field: Field, generators: Sequence[Matrix],
                 include_identity: bool = True) -> AlgebraBasis:
    """Smallest subalgebra of M_n spanning the generators.

    Fixpoint iteration: pairwise products of the working elements are
    absorbed until the dimension stabilises.  The returned basis is the
    canonical one: the reduced echelon rows of the span, reshaped into
    matrices, so it does not depend on generator order.
    """
    if not generators:
        raise ValueError("need at least one generator")
    n = generators[0].nrows
    for g in generators:
        if g.nrows != n or g.ncols != n or g.field != field:
            raise ValueError("generators must be square of one size over the field")
    span = RowSpan(field, n * n)
    work: list[Matrix] = []
    seed = ([Matrix.identity(field, n)] if include_identity else []) + list(generators)
    for m in seed:
        if span.absorb(flat(m)):
            work.append(m)
    k = 0
    while k < len(work):
        wk = work[k]
        for j in range(k + 1):
            for prod in (wk * work[j], work[j] * wk):
                if span.absorb(flat(prod)):
                    work.append(prod)
        k += 1
    flat_basis = span.to_subspace().basis
    basis = [_unflatten(field, row, flat_basis.den, n) for row in flat_basis.ints]
    return AlgebraBasis(field, n, basis)


class Ideal:
    """Two-sided ideal of an AlgebraBasis, as a subspace of coordinates.

    ``space`` lives in the parent's coordinate space; ``matrices`` are
    the corresponding canonical matrix representatives.
    """

    __slots__ = ("parent", "space")

    def __init__(self, parent: AlgebraBasis, space: Subspace):
        if space.ambient_dim != parent.dim or space.field != parent.field:
            raise ValueError("ideal coordinates do not match the parent algebra")
        self.parent = parent
        self.space = space
        self._check_ideal()

    @property
    def matrices(self) -> tuple[Matrix, ...]:
        # computed on access: an algebra's ideals are cached with it, and
        # the coordinate rows in ``space`` already hold the same information
        return self.parent._members(self.space.basis)

    def _check_ideal(self):
        for u in self.matrices:
            for b in self.parent.basis:
                for prod in (b * u, u * b):
                    coords = self.parent.coordinates(prod)
                    if coords is None or not self.space.contains_vector(coords):
                        raise ValueError("subspace is not closed under algebra multiplication")

    @property
    def dim(self) -> int:
        return self.space.dim

    def is_zero(self) -> bool:
        return self.space.is_zero()

    def contains(self, m: Matrix) -> bool:
        coords = self.parent.coordinates(m)
        return coords is not None and self.space.contains_vector(coords)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Ideal)
            and self.parent == other.parent
            and self.space == other.space
        )

    def __hash__(self) -> int:
        return hash(self.space)

    def __repr__(self) -> str:
        return f"Ideal(dim {self.dim} of {self.parent!r})"


def ideal_closure(a: AlgebraBasis, seeds: Sequence[Matrix]) -> Ideal:
    """Smallest two-sided ideal of ``a`` containing the seed matrices."""
    coords_of = []
    for s in seeds:
        c = a.coordinates(s)
        if c is None:
            raise ValueError("seed matrix lies outside the algebra")
        coords_of.append(c)
    span = RowSpan(a.field, a.matrix_size ** 2)
    elems: list[Matrix] = []
    for s in seeds:
        if span.absorb(flat(s)):
            elems.append(s)
    k = 0
    while k < len(elems):
        u = elems[k]
        for b in a.basis:
            for prod in (b * u, u * b):
                if span.absorb(flat(prod)):
                    elems.append(prod)
        k += 1
    rows = [a.coordinates(m) for m in elems]
    space = Subspace(a.field, a.dim, rows)
    return Ideal(a, space)


def ideal_power_chain(a: AlgebraBasis, i: Ideal):
    """Descending chain I, I^2, ... until zero or stabilisation.

    Returns (chain, nilpotency_index); the index is None when the chain
    stabilises at a nonzero space.  The zero ideal has index 1.
    """
    if i.parent != a:
        raise ValueError("ideal does not belong to the algebra")
    chain = [i.space]
    if i.is_zero():
        return chain, 1
    gens = current = i.matrices
    while True:
        span = RowSpan(a.field, a.matrix_size ** 2)
        mats: list[Matrix] = []
        for u in current:
            for v in gens:
                prod = u * v
                if span.absorb(flat(prod)):
                    mats.append(prod)
        space = Subspace(a.field, a.dim, [a.coordinates(m) for m in mats])
        chain.append(space)
        if space.is_zero():
            return chain, len(chain)
        if space == chain[-2]:
            return chain, None
        current = a._members(space.basis)


def trace_radical(a: AlgebraBasis) -> Ideal:
    """Largest nilpotent ideal, via the kernel of the trace form.

    Valid in characteristic 0 or p > matrix size; smaller prime fields
    are rejected because the trace criterion is unsound there.  The
    result is re-verified nilpotent before it is returned.
    """
    p = a.field.characteristic()
    if 0 < p <= a.matrix_size:
        raise CharacteristicTooSmallError(
            f"characteristic {p} <= matrix size {a.matrix_size}: trace form cannot see the radical"
        )
    k = a.dim
    gram = Matrix(
        a.field,
        [[(a.basis[i] * a.basis[j]).trace() for j in range(k)] for i in range(k)],
        ncols=k,
    )
    space = kernel(gram)
    rad = Ideal(a, space)
    _, index = ideal_power_chain(a, rad)
    if index is None:
        raise InternalInconsistencyError("trace-form kernel failed nilpotency verification")
    return rad


def _permutation_sign(perm: Sequence[int]) -> int:
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


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
