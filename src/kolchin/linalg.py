"""Exact dense linear algebra over Q and F_p.

Conventions used everywhere in this package: vectors are rows and
matrices act on the right (v -> v * m), so every kernel and fixed space
below is a left kernel.  Subspaces are stored with a reduced
row-echelon basis, which makes set equality structural equality.

A matrix is integer rows over one positive common denominator,
reduced by their gcd (over F_p: residues over 1), so products, sums
and eliminations run on ``int`` only.  Rows read in (by ``Subspace``
and the certificate checker too) go through ``Matrix``, which owns
their rules: each entry through ``Field.of``, each row ``ncols`` long.
What differs between the fields lives in one kernel object per field,
chosen when a matrix is built.
A square product is one call: ``Matrix.__mul__`` and the commutator
walks alike read the product for its size from the field kernel's table
(built the first time that size is multiplied over that field, never
at import) and get the canonical rows and denominator back.  Up to
8 x 8 it is a straight-line kernel; larger squares, and rectangular
and empty products, take a generic comprehension.
Row reduction over Q is fraction-free (Bareiss) Gauss-Jordan; over F_p
it is plain Gauss-Jordan.

Every vector-times-rows sum, and so every residual of a vector against
echelon rows (membership, coset representatives, closures), runs row by
row in ``_combination``: one comprehension per row whose coefficient is
nonzero, rows with a zero coefficient skipped, and nothing transposed.

A preimage {v : v * m in w for every m} is one left kernel: that of the
rows of every m reduced modulo w, placed side by side.  Fixed spaces
(the preimage of 0 under every m - 1) and each step of the obstruction
for a group that is not unipotent (the preimage of the step below under
every g - 1) are computed so; a unipotent group's Kolchin flag is its
span series, reversed, and takes no preimage.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import chain
from math import gcd, lcm
from operator import add, mul, neg, sub
from typing import Iterable, Sequence

from .fields import Field, Scalar


class NotInvariantError(ValueError):
    """Raised when a subspace is not invariant under a requested action."""

    def __init__(self, vector, image):
        self.vector = tuple(vector)
        self.image = tuple(image)
        super().__init__(
            f"subspace is not invariant: basis vector {self.vector} maps to {self.image}"
        )


def _combination(coeffs: Sequence[int], rows: Sequence[Sequence[int]], acc: Sequence[int]):
    """``acc + sum(coeffs[k] * rows[k])`` over the integers, row by row:
    one comprehension per row with a nonzero coefficient, none for a
    zero one, and no row transposed.  Every residual, ``flag_drops``,
    ``quotient_action`` and ``express_in_rows`` run on it."""
    for f, r in zip(coeffs, rows):
        if f:
            acc = [x + f * y for x, y in zip(acc, r)]
    return acc


# largest n with a straight-line n x n product; its source grows as n^3
# and compiling one size takes up to a few ms, so rarer sizes share
# the generic comprehension
SQUARE_PRODUCT_MAX = 8


def _columns(rows, ncols: int) -> tuple:
    return tuple(zip(*rows)) or ((),) * ncols


def _square_product(n: int, p: int | None):
    """The straight-line product of two n x n integer row tuples over Q
    (``p`` None) or F_p, as ``product(A, B, den)`` returning the
    canonical ``(ints, den)`` of ``A * B / den``: both operands are
    unpacked into locals and each entry is one sum of n products.  Over
    Q the entries are divided by their gcd with ``den`` (den > 0); over
    F_p each is reduced mod p and den is 1."""
    a = [[f"a{i}_{k}" for k in range(n)] for i in range(n)]
    b = [[f"b{k}_{j}" for j in range(n)] for k in range(n)]
    c = [[f"c{i}_{j}" for j in range(n)] for i in range(n)]

    def tuples(rows, suffix=""):
        return ", ".join(f"({', '.join(x + suffix for x in r)},)" for r in rows)

    lines = [f"    {tuples(a)}, = A", f"    {tuples(b)}, = B"]
    for i in range(n):
        for j in range(n):
            s = " + ".join(f"{a[i][k]}*{b[k][j]}" for k in range(n))
            lines.append(f"    {c[i][j]} = " + (s if p is None else f"({s}) % {p}"))
    if p is None:
        lines += ["    if den != 1:",
                  f"        g = gcd(den, {', '.join(chain.from_iterable(c))})",
                  "        if g != 1:",
                  f"            return ({tuples(c, ' // g')},), den // g"]
    lines.append(f"    return ({tuples(c)},), den")
    namespace = {"gcd": gcd}
    exec("def product(A, B, den):\n" + "\n".join(lines) + "\n", namespace)
    return namespace["product"]


class _SquareProducts(dict):
    """Size n -> the n x n product ``product(A, B, den)`` of one field
    kernel, built at the first product of that size and never at
    import: ``_square_product(n, p)`` up to ``SQUARE_PRODUCT_MAX``, the
    kernel's generic comprehension above it (and at n = 0)."""

    def __init__(self, kernel: "_Kernel"):
        self.kernel = kernel

    def __missing__(self, n: int):
        if 0 < n <= SQUARE_PRODUCT_MAX:
            f = _square_product(n, self.kernel.p)
        else:
            generic = self.kernel.product

            def f(A, B, den):
                return generic(A, B, n, den)
        self[n] = f
        return f


class _Kernel:
    """Integer-row arithmetic for one field, on matrices ``ints / den``.
    Subclasses fix ``canon`` (the canonical form), ``scalar`` (an entry
    read back) and the elimination step (``pivot_row``, ``eliminate``)."""

    def __init__(self, field: Field):
        self.field, self.p = field, field.p
        self.squares = _SquareProducts(self)

    def coerce(self, rows):
        """Canonical (ints, den) of rows of field scalars."""
        den = lcm(*[x.denominator for r in rows for x in r])
        if den != 1:
            rows = [[x.numerator * (den // x.denominator) for x in r] for r in rows]
        return self.canon(rows, den)

    def product(self, a, b, ncols: int, den: int):
        """Canonical (ints, den) of the integer rows ``a * b``, over ``den``."""
        cols = _columns(b, ncols)
        rows = tuple([tuple([sum(map(mul, r, c)) for c in cols]) for r in a])
        return self.canon(rows, den) if den != 1 else (rows, 1)

    def residual(self, v, rows, den: int, pivots) -> tuple:
        """``den * v`` minus its pivot coordinates times the rows.  For
        reduced echelon rows over ``den`` this is ``den`` times the
        canonical coset representative of v: zero iff v is in their span.
        One row-wise accumulation from ``den * v`` (``v`` when den is 1),
        skipping the rows whose pivot coordinate in v is zero, then one
        canonical form."""
        acc = v if den == 1 else [den * x for x in v]
        return self.canon((_combination([-v[c] for c in pivots], rows, acc),), 1)[0][0]

    def echelon(self, rows: list, w: int):
        """Gauss-Jordan elimination of the integer rows, in place, on their
        first ``w`` columns.  Returns (pivots, den): the first rank rows,
        over den, are the reduced echelon rows."""
        n = len(rows)
        pivots: list[int] = []
        prev = 1
        for c in range(w):
            r = len(pivots)
            piv = next((i for i in range(r, n) if rows[i][c]), None)
            if piv is None:
                continue
            rows[r], rows[piv] = rows[piv], rows[r]
            top = rows[r] = self.pivot_row(rows[r], c)
            pc = top[c]
            for i in range(n):
                f = rows[i][c]
                if i != r and (f or pc != prev):
                    rows[i] = self.eliminate(rows[i], top, f, pc, prev)
            prev = pc
            pivots.append(c)
        return pivots, prev


class _Rationals(_Kernel):
    """Q: ``den > 0`` and gcd(den, every entry) = 1.  Elimination is
    fraction-free (Bareiss), carried above the pivot too, so every
    pivot ends equal to the last one, the common denominator."""

    @staticmethod
    def canon(rows, den: int):
        if den < 0:
            rows = [list(map(neg, r)) for r in rows]
            den = -den
        if den != 1:
            g = gcd(den, *chain.from_iterable(rows))
            if g != 1:
                return tuple([tuple([x // g for x in r]) for r in rows]), den // g
        return tuple(map(tuple, rows)), den

    @staticmethod
    def scalar(x: int, den: int) -> Scalar:
        if den == 1 or not x:
            return x
        f = Fraction(x, den)
        return f.numerator if f.denominator == 1 else f

    @staticmethod
    def pivot_row(row, c: int):
        return row

    @staticmethod
    def eliminate(row, top, f: int, pc: int, prev: int) -> list:
        # Bareiss: every entry is a minor of the input, so the division is exact
        if prev == 1:
            return [pc * x - f * y for x, y in zip(row, top)]
        return [(pc * x - f * y) // prev for x, y in zip(row, top)]


class _Residues(_Kernel):
    """F_p: the entries are residues in [0, p) and ``den`` is 1.
    Elimination scales each pivot to 1."""

    def canon(self, rows, den: int):
        p = self.p
        if den == 1:
            return tuple([tuple([x % p for x in r]) for r in rows]), 1
        s = pow(den, -1, p)
        return tuple([tuple([x * s % p for x in r]) for r in rows]), 1

    @staticmethod
    def coerce(rows):
        return tuple(map(tuple, rows)), 1  # Field.of already gives residues

    def scalar(self, x: int, den: int) -> Scalar:
        return x % self.p  # den is always 1 over F_p

    def product(self, a, b, ncols: int, den: int):
        p = self.p
        cols = _columns(b, ncols)
        return tuple([tuple([sum(map(mul, r, c)) % p for c in cols]) for r in a]), 1

    def pivot_row(self, row, c: int) -> list:
        s, p = pow(row[c], -1, self.p), self.p
        return [x * s % p for x in row]

    def eliminate(self, row, top, f: int, pc: int, prev: int) -> list:
        p = self.p
        return [(x - f * y) % p for x, y in zip(row, top)]


@cache
def _kernel(p: int | None) -> _Kernel:
    return _Rationals(Field()) if p is None else _Residues(Field(p))


def square_product(field: Field, n: int):
    """The n x n product over ``field`` on canonical row pairs, the one
    ``Matrix.__mul__`` calls: ``product(A, B, den)`` returns the
    canonical ``(ints, den)`` of ``A * B / den``, for A and B the
    ``ints`` of two n x n matrices and den the product of their ``den``."""
    return _kernel(field.p).squares[n]


@cache
def _identity_rows(n: int) -> tuple:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


class Matrix:
    """Immutable dense matrix with exact entries over a fixed field.

    The entries are ``ints[i][j] / den``: ``ints`` holds integer row
    tuples and ``den`` is a positive integer sharing no factor with all
    of them; over F_p, ``den`` is 1 and the entries are residues.  The
    form is unique, so ``==`` and ``hash`` are structural.  Every row
    given must have ``ncols`` entries (the first row's count if None).
    """

    __slots__ = ("_k", "ints", "den", "nrows", "ncols")

    def __init__(self, field: Field, rows: Iterable[Sequence], ncols: int | None = None):
        data = [[field.of(x) for x in row] for row in rows]
        if ncols is None:
            if not data:
                raise ValueError("empty matrix needs an explicit column count")
            ncols = len(data[0])
        if any(len(r) != ncols for r in data):
            raise ValueError(f"rows must all have {ncols} entries")
        self._k, self.nrows, self.ncols = _kernel(field.p), len(data), ncols
        self.ints, self.den = self._k.coerce(data)

    @classmethod
    def _new(cls, k, ints: tuple, den: int, ncols: int) -> "Matrix":
        # trusted constructor: (ints, den) already canonical for kernel k
        m = object.__new__(cls)
        m._k, m.ints, m.den, m.nrows, m.ncols = k, ints, den, len(ints), ncols
        return m

    @classmethod
    def _of_scalars(cls, field: Field, rows: Sequence[Sequence[Scalar]], ncols: int) -> "Matrix":
        # trusted constructor: equal-length rows of values Field.of returned
        k = _kernel(field.p)
        return cls._new(k, *k.coerce(rows), ncols)

    @classmethod
    def from_ints(cls, field: Field, ints: Sequence[Sequence[int]], den: int,
                  ncols: int) -> "Matrix":
        """The matrix ``ints / den`` for integer rows and a nonzero integer ``den``."""
        k = _kernel(field.p)
        return cls._new(k, *k.canon(ints, den), ncols)

    @classmethod
    def from_canonical(cls, field: Field, ints: tuple, den: int) -> "Matrix":
        """Trusted: the square matrix ``ints / den`` for a pair already in
        canonical form, as a ``square_product`` returns it."""
        return cls._new(_kernel(field.p), ints, den, len(ints))

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        return cls._new(_kernel(field.p), _identity_rows(n), 1, n)

    @classmethod
    def zero(cls, field: Field, nrows: int, ncols: int) -> "Matrix":
        return cls._new(_kernel(field.p), ((0,) * ncols,) * nrows, 1, ncols)

    @property
    def field(self) -> Field:
        return self._k.field

    @property
    def rows(self) -> tuple:
        """The entries as field scalars, row by row.  A view: when
        ``den`` is 1 it is ``ints`` itself, else it is computed on access."""
        den = self.den
        if den == 1:
            return self.ints
        scalar = self._k.scalar
        return tuple(tuple(scalar(x, den) for x in r) for r in self.ints)

    def __mul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        k, n = self._k, self.ncols
        if k is not other._k or n != other.nrows:
            raise ValueError("shape or field mismatch in product")
        if self.nrows == n == other.ncols:
            # Matrix._new inlined: products are the hottest constructor
            m = object.__new__(Matrix)
            m._k, m.nrows, m.ncols = k, n, n
            m.ints, m.den = k.squares[n](self.ints, other.ints, self.den * other.den)
            return m
        ints, den = k.product(self.ints, other.ints, other.ncols, self.den * other.den)
        return Matrix._new(k, ints, den, other.ncols)

    def _combine(self, other: "Matrix", op) -> "Matrix":
        if self._k is not other._k or self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError("shape or field mismatch")
        a, b, den = self.ints, other.ints, lcm(self.den, other.den)
        if self.den != other.den:
            a = [map((den // self.den).__mul__, r) for r in a]
            b = [map((den // other.den).__mul__, r) for r in b]
        return Matrix._new(self._k, *self._k.canon([list(map(op, r1, r2)) for r1, r2 in zip(a, b)],
                                                    den), self.ncols)

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, add)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, sub)

    def scale(self, s) -> "Matrix":
        s = self.field.of(s)
        return Matrix.from_ints(self.field, [[s.numerator * x for x in r] for r in self.ints],
                                self.den * s.denominator, self.ncols)

    def transpose(self) -> "Matrix":
        return Matrix._new(self._k, _columns(self.ints, self.ncols), self.den, self.nrows)

    def trace(self) -> Scalar:
        if self.nrows != self.ncols:
            raise ValueError("trace of a non-square matrix")
        return self._k.scalar(sum(r[i] for i, r in enumerate(self.ints)), self.den)

    def inverse(self) -> "Matrix":
        if self.nrows != self.ncols:
            raise ValueError("inverse of a non-square matrix")
        ech = rref(self)
        if ech.rank != self.nrows:
            raise ValueError("matrix is singular")
        return ech.transform

    def is_zero(self) -> bool:
        return not any(map(any, self.ints))

    def is_identity(self) -> bool:
        return self.den == 1 and self.nrows == self.ncols and \
            self.ints == _identity_rows(self.nrows)

    def __getitem__(self, ij) -> Scalar:
        i, j = ij
        return self._k.scalar(self.ints[i][j], self.den)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self._k is other._k
            and self.ncols == other.ncols
            and self.den == other.den
            and self.ints == other.ints
        )

    def __hash__(self) -> int:
        return hash((self.ncols, self.den, self.ints))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self.rows)
        return f"Matrix({self.field}, [{body}])"


def flat(m: Matrix) -> tuple:
    """``m.ints`` in row-major order: ``den`` times the flattened matrix,
    so the same line, which is all a RowSpan needs."""
    return tuple(chain.from_iterable(m.ints))


@dataclass(frozen=True)
class Echelon:
    """Reduced row-echelon form with the witnessing row transform.

    ``transform`` is invertible and ``transform * input == reduced``;
    its rows below ``rank`` span the left kernel of the input.
    """

    reduced: Matrix
    pivots: tuple[int, ...]
    rank: int
    transform: Matrix


def rref(m: Matrix) -> Echelon:
    """Unique reduced row-echelon form of ``m``, with transform."""
    n, w = m.nrows, m.ncols
    k = m._k
    # eliminate [ints | I]; transform * ints == reduced * den, and
    # m = ints / m.den, so the transform of m is m.den times that one
    aug = [list(r) + [0] * n for r in m.ints]
    for i in range(n):
        aug[i][w + i] = 1
    pivots, den = k.echelon(aug, w)
    reduced = Matrix._new(k, *k.canon([r[:w] for r in aug], den), w)
    transform = Matrix._new(k, *k.canon([[m.den * x for x in r[w:]] for r in aug], den), n)
    # share stored rows where the result is the input or the identity
    return Echelon(m if reduced == m else reduced, tuple(pivots), len(pivots),
                   Matrix.identity(k.field, n) if transform.is_identity() else transform)


def express_in_rows(m: Matrix, target: Matrix, ech: Echelon | None = None):
    """Coefficients x with x * m == target for a one-row matrix ``target``,
    or None if target is not in the row span."""
    if ech is None:
        ech = rref(m)
    if target._k is not m._k or target.nrows != 1 or target.ncols != m.ncols:
        raise ValueError("length mismatch")
    k = m._k
    t = target.ints[0]
    red = ech.reduced
    if any(k.residual(t, red.ints, red.den, ech.pivots)):
        return None
    # target = sum_k t[c_k] / target.den * (reduced row k), and reduced
    # row k = (transform row k) * m
    tr = ech.transform
    den = target.den * tr.den
    coeffs = _combination([t[c] for c in ech.pivots], tr.ints, (0,) * m.nrows)
    return tuple(k.scalar(x, den) for x in coeffs)


class RowSpan:
    """Growing row space for closures, kept as reduced echelon integer
    rows over one common denominator (the form a Subspace basis has).

    Vectors go in as integer sequences.  A vector stands for the line it
    spans, so over Q any nonzero multiple, such as ``flat(m)``, will do.
    """

    __slots__ = ("field", "width", "rows", "pivots", "den", "_k")

    def __init__(self, field: Field, width: int):
        self.field, self.width, self._k = field, width, _kernel(field.p)
        self.rows: list[tuple] = []
        self.pivots: list[int] = []
        self.den = 1

    def contains(self, vec: Sequence[int]) -> bool:
        return not any(self._k.residual(vec, self.rows, self.den, self.pivots))

    def absorb(self, vec: Sequence[int]) -> bool:
        """Add ``vec`` to the span; True iff the dimension grew."""
        k = self._k
        v = k.residual(vec, self.rows, self.den, self.pivots)
        if not any(v):  # most absorbs are rejected: one C-level scan decides them
            return False
        lead = next(j for j, x in enumerate(v) if x)
        # rows R_i / den and new row v / v[lead]: clearing column lead leaves all over den * a
        a, den = v[lead], self.den
        rows = [[a * x - r[lead] * y for x, y in zip(r, v)] if r[lead] else
                [a * x for x in r] for r in self.rows]
        at = bisect(self.pivots, lead)
        rows.insert(at, [den * x for x in v])
        rows, self.den = k.canon(rows, den * a)
        self.rows = list(rows)
        self.pivots.insert(at, lead)
        return True

    def to_subspace(self) -> "Subspace":
        basis = Matrix._new(self._k, tuple(self.rows), self.den, self.width)
        return Subspace._raw(self.field, self.width, basis, tuple(self.pivots))


class Subspace:
    """Subspace of row vectors, stored as a canonical RREF basis.

    Two subspaces are equal as sets iff their stored bases are equal,
    so ``==`` decides subspace equality.
    """

    __slots__ = ("field", "ambient_dim", "basis", "pivots")

    def __init__(self, field: Field, ambient_dim: int, rows: Iterable[Sequence]):
        m = Matrix(field, rows, ncols=ambient_dim)
        s = Subspace._spanned(field, ambient_dim, m.ints)
        self.field, self.ambient_dim, self.basis, self.pivots = field, ambient_dim, s.basis, s.pivots

    @classmethod
    def _raw(cls, field, ambient_dim, basis, pivots) -> "Subspace":
        s = object.__new__(cls)
        s.field, s.ambient_dim, s.basis, s.pivots = field, ambient_dim, basis, pivots
        return s

    @classmethod
    def _spanned(cls, field: Field, ambient_dim: int, rows) -> "Subspace":
        # span of integer rows, each standing for its line
        k = _kernel(field.p)
        rows = list(k.canon(rows, 1)[0])
        pivots, den = k.echelon(rows, ambient_dim)
        basis = Matrix._new(k, *k.canon(rows[:len(pivots)], den), ambient_dim)
        return cls._raw(field, ambient_dim, basis, tuple(pivots))

    @classmethod
    def zero(cls, field: Field, ambient_dim: int) -> "Subspace":
        return cls._raw(field, ambient_dim, Matrix.zero(field, 0, ambient_dim), ())

    @classmethod
    def full(cls, field: Field, ambient_dim: int) -> "Subspace":
        n = ambient_dim
        return cls._raw(field, n, Matrix.identity(field, n), tuple(range(n)))

    @property
    def dim(self) -> int:
        return self.basis.nrows

    def is_zero(self) -> bool:
        return self.basis.nrows == 0

    def is_full(self) -> bool:
        return self.basis.nrows == self.ambient_dim

    def complement_coordinates(self) -> tuple[int, ...]:
        """Non-pivot standard coordinates: a deterministic complement basis."""
        pivset = set(self.pivots)
        return tuple(j for j in range(self.ambient_dim) if j not in pivset)

    def _residual(self, ints: Sequence[int]) -> list:
        # basis.den times the coset representative of the integer vector
        b = self.basis
        return b._k.residual(ints, b.ints, b.den, self.pivots)

    def reduce(self, vec: Sequence[Scalar]) -> tuple:
        """Canonical coset representative: pivot coordinates eliminated."""
        k = self.basis._k
        (v,), den = k.coerce([[self.field.of(x) for x in vec]])
        den *= self.basis.den
        return tuple(k.scalar(x, den) for x in self._residual(v))

    def contains(self, other: "Subspace") -> bool:
        if self.field != other.field or self.ambient_dim != other.ambient_dim:
            raise ValueError("subspaces live in different ambient spaces")
        return not any(any(self._residual(r)) for r in other.basis.ints)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self.basis))

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of {self.field}^{self.ambient_dim})"


def kernel(m: Matrix) -> Subspace:
    """Left kernel {v : v * m = 0}, canonical."""
    ech = rref(m)
    return Subspace._spanned(m.field, m.nrows, ech.transform.ints[ech.rank:])


def preimage(w: Subspace, mats: Sequence[Matrix]) -> Subspace:
    """{v : v * m in w for every m in ``mats``}, canonical.

    One left kernel: v * m lies in w iff its residual modulo w vanishes,
    and that residual is v times the rows of m each reduced modulo w, so
    the preimage is the left kernel of those reduced rows of every m
    placed side by side.
    """
    if not mats:
        raise ValueError("need at least one matrix")
    n = mats[0].nrows
    if any(m.nrows != n or m.ncols != w.ambient_dim or m.field != w.field for m in mats):
        raise ValueError("matrices must map one space into the subspace's ambient space")
    rows = [list(chain.from_iterable(map(w._residual, rs))) for rs in zip(*(m.ints for m in mats))]
    return kernel(Matrix.from_ints(w.field, rows, 1, len(mats) * w.ambient_dim))


def fixed_space(mats: Sequence[Matrix]) -> Subspace:
    """Common fixed vectors {v : v * m = v for every m}: the preimage of
    the zero space under every m - 1."""
    if not mats:
        raise ValueError("need at least one matrix")
    field, n = mats[0].field, mats[0].nrows
    one = Matrix.identity(field, n)
    return preimage(Subspace.zero(field, n), [m - one for m in mats])


def quotient_action(m: Matrix, w: Subspace) -> Matrix:
    """Matrix of the action induced by ``m`` on V/w.

    The quotient carries the deterministic basis given by the non-pivot
    standard coordinates of ``w``.  Raises NotInvariantError when some
    basis vector of ``w`` leaves ``w`` under ``m``.
    """
    if m.nrows != m.ncols or m.nrows != w.ambient_dim or m.field != w.field:
        raise ValueError("matrix does not act on the subspace's ambient space")
    for i, ints in enumerate(w.basis.ints):
        image = _combination(ints, m.ints, (0,) * m.ncols)
        if any(w._residual(image)):
            den = w.basis.den * m.den
            raise NotInvariantError(w.basis.rows[i], [m._k.scalar(x, den) for x in image])
    free = w.complement_coordinates()
    # e_j * m is row j of m
    rows = [[red[c] for c in free] for red in (w._residual(m.ints[j]) for j in free)]
    return Matrix.from_ints(m.field, rows, w.basis.den * m.den, len(free))


def flag_drops(mats: Sequence[Matrix], steps: Sequence[Subspace]) -> bool:
    """True iff every m - 1, for m in ``mats``, maps each step into the
    one below (v * (m - 1) in W_{i-1} for every basis vector v of W_i):
    every matrix acts trivially on each factor of the chain."""
    for m in mats:
        d = m - Matrix.identity(m.field, m.nrows)
        for below, step in zip(steps, steps[1:]):
            for v in step.basis.ints:
                if any(below._residual(_combination(v, d.ints, (0,) * d.ncols))):
                    return False
    return True


class Flag:
    """Strictly ascending chain of subspaces 0 = W_0 < W_1 < ... < W_k = V."""

    __slots__ = ("field", "ambient_dim", "steps")

    def __init__(self, steps: Sequence[Subspace]):
        if not steps:
            raise ValueError("empty flag")
        field = steps[0].field
        n = steps[0].ambient_dim
        if any(s.field != field or s.ambient_dim != n for s in steps):
            raise ValueError("flag steps live in different spaces")
        if not steps[0].is_zero():
            raise ValueError("flag must start at the zero subspace")
        if not steps[-1].is_full():
            raise ValueError("flag must end at the full space")
        for a, b in zip(steps, steps[1:]):
            if not (b.contains(a) and b.dim > a.dim):
                raise ValueError("flag steps must be strictly ascending")
        self.field = field
        self.ambient_dim = n
        self.steps = tuple(steps)

    @classmethod
    def _ascending(cls, steps: Sequence[Subspace]) -> "Flag":
        # trusted constructor: steps of one space, strictly ascending from 0 to V
        f = object.__new__(cls)
        f.field, f.ambient_dim, f.steps = steps[0].field, steps[0].ambient_dim, tuple(steps)
        return f

    @property
    def degree(self) -> int:
        """Number of strict inclusions in the chain."""
        return len(self.steps) - 1

    def __eq__(self, other) -> bool:
        return isinstance(other, Flag) and self.steps == other.steps

    def __hash__(self) -> int:
        return hash(self.steps)

    def __repr__(self) -> str:
        dims = " < ".join(str(s.dim) for s in self.steps)
        return f"Flag(dims {dims} in {self.field}^{self.ambient_dim})"


def assemble_flag_basis(f: Flag) -> Matrix:
    """Invertible base change adapted to the flag.

    Rows list a basis of W_1 first, then extend step by step; with the
    right action v -> v * g, conjugating by this matrix puts any flag-
    compatible generator into triangular form.  It is invertible with
    no further test: each picked row grew the span, so the rows are
    independent, and they span the last step, which ``Flag`` requires
    to be V.  The picked integer rows are brought over the lcm of their
    steps' denominators and make one ``Matrix.from_ints``.
    """
    span = RowSpan(f.field, f.ambient_dim)
    picked = [(ints, step.basis.den) for step in f.steps[1:] for ints in step.basis.ints
              if span.absorb(ints)]
    den = lcm(*(d for _, d in picked))  # 1 when V = 0 picks no rows
    return Matrix.from_ints(f.field, [[x * (den // d) for x in ints] for ints, d in picked],
                            den, f.ambient_dim)
