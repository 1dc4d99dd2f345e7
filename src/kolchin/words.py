"""Word-level computations in finitely generated matrix groups.

Breadth-first element enumeration with shortest witness words,
commutator machinery for nil/Engel/algebraic probes, and the
brute-force oracle used to validate the unipotent radical on finite
groups: an index Cayley table built from the witness words, conjugacy
classes read from it, and a walk over the lattice of normal subgroups
(joins of conjugacy classes) with no cap on the number of classes.

Commutator convention, used everywhere: [x, g] = x^-1 g^-1 x g, and
left-normed iteration [[x, g], g], ...  Probes return None rather than
guessing when a cap is exhausted.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .linalg import Matrix

if TYPE_CHECKING:
    from .reps import Representation

DEFAULT_DEPTH_CAP = 10
DEFAULT_ELEMENT_CAP = 100_000
DEFAULT_WORD_LENGTH_CAP = 8


class NotFiniteError(ValueError):
    """Element enumeration hit a cap before the group closed."""


@dataclass(frozen=True)
class Word:
    """Sequence of (generator name, exponent +-1); empty word = identity."""

    letters: tuple[tuple[str, int], ...] = ()

    @classmethod
    def parse(cls, text: str) -> "Word":
        """Parse words like ``"a b^-1 a"``; ``"1"`` tokens mean identity.

        An integer exponent ``name^k`` expands into |k| letters.
        """
        letters: list[tuple[str, int]] = []
        for token in text.split():
            if token == "1":
                continue
            name, _, exp = token.partition("^")
            if not name:
                raise ValueError(f"malformed word token {token!r}")
            k = 1
            if exp:
                try:
                    k = int(exp)
                except ValueError:
                    raise ValueError(f"malformed exponent in token {token!r}") from None
            sign = 1 if k >= 0 else -1
            letters.extend((name, sign) for _ in range(abs(k)))
        return cls(tuple(letters))

    def inverse(self) -> "Word":
        return Word(tuple((name, -e) for name, e in reversed(self.letters)))

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        if not self.letters:
            return "1"
        return " ".join(name if e == 1 else f"{name}^-1" for name, e in self.letters)


def evaluate_word(rep: "Representation", w: Word) -> Matrix:
    """Product of generator matrices and inverses in word order."""
    acc = rep.identity()
    for name, e in w.letters:
        acc = acc * (rep.generator(name) if e == 1 else rep.inverse(name))
    return acc


def random_word(rng: random.Random, names: Sequence[str], max_len: int) -> Word:
    """Uniform length in 1..max_len, letters uniform over names x {+1,-1}."""
    length = rng.randint(1, max_len)
    return Word(tuple((rng.choice(names), rng.choice((1, -1))) for _ in range(length)))


@dataclass
class ElementTable:
    """Element -> shortest witness word, in BFS discovery order.

    ``closed`` tables are product- and inverse-closed: the enumeration
    stopped because nothing new appeared, not because a cap was hit.
    """

    elements: dict[Matrix, Word]
    closed: bool

    def __len__(self) -> int:
        return len(self.elements)

    def witness(self, m: Matrix) -> Word:
        return self.elements[m]

    def __contains__(self, m: Matrix) -> bool:
        return m in self.elements


def enumerate_elements(
    rep: "Representation",
    element_cap: int = DEFAULT_ELEMENT_CAP,
    length_cap: int | None = None,
) -> ElementTable:
    """BFS over words by length until the group closes or a cap is hit."""
    if element_cap < 1 or (length_cap is not None and length_cap < 1):
        raise ValueError("caps must be at least 1")
    letters = [(name, 1, rep.generator(name)) for name in rep.names]
    letters += [(name, -1, rep.inverse(name)) for name in rep.names]
    one = rep.identity()
    table: dict[Matrix, Word] = {one: Word()}
    frontier = [one]
    length = 0
    while True:
        length += 1
        if length_cap is not None and length > length_cap:
            return ElementTable(table, False)
        new: list[Matrix] = []
        for m in frontier:
            base = table[m].letters
            for name, e, mat in letters:
                prod = m * mat
                if prod not in table:
                    if len(table) >= element_cap:
                        return ElementTable(table, False)
                    table[prod] = Word(base + ((name, e),))
                    new.append(prod)
        if not new:
            return ElementTable(table, True)
        frontier = new


def commutator(x: Matrix, g: Matrix) -> Matrix:
    """[x, g] = x^-1 g^-1 x g."""
    return x.inverse() * g.inverse() * x * g


def left_normed_commutator(x: Matrix, g: Matrix, n: int) -> Matrix:
    """[[x, g], ..., g] with n commutations."""
    if n < 1:
        raise ValueError("depth must be at least 1")
    c = x
    gi = g.inverse()
    for _ in range(n):
        c = c.inverse() * gi * c * g
    return c


def nil_index_probe(g: Matrix, x: Matrix, depth_cap: int = DEFAULT_DEPTH_CAP) -> int | None:
    """First depth where the iterated commutator with g reaches 1, or None."""
    if depth_cap < 1:
        raise ValueError("depth cap must be at least 1")
    c = x
    gi = g.inverse()
    for n in range(1, depth_cap + 1):
        c = c.inverse() * gi * c * g
        if c.is_identity():
            return n
    return None


def engel_probe(
    rep: "Representation",
    n: int,
    sample_budget: int = 1000,
    length_cap: int = DEFAULT_WORD_LENGTH_CAP,
    seed: int = 0,
) -> tuple[Word, Word] | None:
    """Sample word pairs (x, y) and test [[x, y], ..., y] = 1 at depth n.

    None is consistency evidence, not a proof; a pair is a genuine
    counterexample.
    """
    if n < 1:
        raise ValueError("depth must be at least 1")
    rng = random.Random(seed)
    for _ in range(sample_budget):
        wx = random_word(rng, rep.names, length_cap)
        wy = random_word(rng, rep.names, length_cap)
        x = evaluate_word(rep, wx)
        y = evaluate_word(rep, wy)
        yi = evaluate_word(rep, wy.inverse())
        c = x
        for _ in range(n):
            if c.is_identity():
                break
            c = c.inverse() * yi * c * y
        if not c.is_identity():
            return (wx, wy)
    return None


def algebraic_element_probe(
    g: Matrix,
    x: Matrix,
    depth_cap: int = DEFAULT_DEPTH_CAP,
    element_cap: int = DEFAULT_ELEMENT_CAP,
) -> int | None:
    """Smallest depth k whose commutator already lies in the subgroup
    generated by the shallower ones; None when the caps ran out first.

    Positive membership found in a truncated closure is still sound,
    so stabilisation can be reported even when the subgroup is infinite.
    """
    from .reps import Representation

    if depth_cap < 1 or element_cap < 1:
        raise ValueError("caps must be at least 1")
    field = g.field
    table: set[Matrix] = {Matrix.identity(field, g.nrows)}
    sub_gens: list[Matrix] = []
    c = x
    gi = g.inverse()
    for k in range(1, depth_cap + 1):
        c = c.inverse() * gi * c * g
        if c in table:
            return k
        sub_gens.append(c)
        rep = Representation(field, [(f"c{i}", m) for i, m in enumerate(sub_gens)])
        enum = enumerate_elements(rep, element_cap)
        table = set(enum.elements)
    return None


def cayley_table(rep: "Representation", table: ElementTable) -> list[list[int]]:
    """Right multiplication on a closed table, as index permutations:
    ``right[b][a]`` is the index of ``elems[a] * elems[b]`` in
    enumeration order.

    Each element b other than 1 is its witness word's parent times one
    letter, and BFS puts the parent first, so column b is the letter's
    column read through the parent's.  Only the letter columns take
    matrix products: order * 2k of them for k generators.
    """
    elems = list(table.elements)
    words = [w.letters for w in table.elements.values()]
    index = {m: i for i, m in enumerate(elems)}
    position = {w: i for i, w in enumerate(words)}
    letters = {}
    for name in rep.names:
        for e, mat in ((1, rep.generator(name)), (-1, rep.inverse(name))):
            letters[name, e] = [index[m * mat] for m in elems]
    right = [list(range(len(elems)))]
    for w in words[1:]:
        column = letters[w[-1]]
        right.append([column[x] for x in right[position[w[:-1]]]])
    return right


def conjugacy_classes(right: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Partition of element indices into conjugacy classes (identity
    first), from the right-multiplication table of ``cayley_table``."""
    inverses = [column.index(0) for column in right]
    seen = [False] * len(right)
    classes = []
    for i in range(len(right)):
        if seen[i]:
            continue
        cls = {right[right[h][i]][inverses[h]] for h in range(len(right))}
        for k in cls:
            seen[k] = True
        classes.append(tuple(sorted(cls)))
    return classes


def _extend(
    right: Sequence[Sequence[int]], group: frozenset[int], gens: Sequence[int]
) -> frozenset[int]:
    """The subgroup generated by the subgroup ``group`` together with
    ``gens`` (which must include generators of ``group``): the right
    cosets of ``group`` reached from 1 by right multiplication with the
    generators (Dimino's method)."""
    members = set(group)
    reps = [0]
    for r in reps:
        for s in gens:
            x = right[s][r]
            if x not in members:
                members.update(right[x][h] for h in group)
                reps.append(x)
    return frozenset(members)


def brute_force_unipotent_radical(
    rep: "Representation",
    element_cap: int = DEFAULT_ELEMENT_CAP,
    length_cap: int | None = None,
    elements: ElementTable | None = None,
) -> tuple[Matrix, ...]:
    """Oracle: largest normal subgroup acting unitriangularly, by an
    exhaustive walk over the lattice of normal subgroups.

    The walk starts at {1} and joins each unitriangular normal subgroup
    with every conjugacy class outside it.  Supergroups of a subgroup
    that does not act unitriangularly are never unitriangular, so it is
    not extended; every unitriangular normal subgroup M is still reached,
    by joining the classes of M one at a time.  Each subgroup is tested
    on a greedy generating set (an element joins only if the closure
    does not contain it yet), at most log2 of its order in size.
    The test works in V: a subgroup acts unitriangularly iff its span
    V (h_1-1)...(h_n-1), n = dim V, is zero, so the oracle runs none of
    the algebra code behind the radical it cross-checks.

    Requires the group to be finite (NotFiniteError otherwise); asserts
    that the maximal qualifying subgroup is unique before returning its
    elements in enumeration order.  ``elements``, a closed enumeration
    of ``rep`` already at hand, saves enumerating again.
    """
    from .reps import _difference_product_spans

    table = elements if elements is not None else enumerate_elements(rep, element_cap, length_cap)
    if not table.closed:
        raise NotFiniteError("group enumeration hit a cap; the group may be infinite")
    elems = list(table.elements)
    right = cayley_table(rep, table)
    classes = conjugacy_classes(right)

    trivial = frozenset((0,))  # BFS starts at the identity
    seen = {trivial}
    todo: list[tuple[frozenset[int], list[int]]] = [(trivial, [])]
    unitriangular: list[frozenset[int]] = []
    while todo:
        group, gens = todo.pop()
        sub = [elems[i] for i in gens or [0]]
        if not _difference_product_spans(rep.field, rep.dim, sub, rep.dim)[-1].is_zero():
            continue
        unitriangular.append(group)
        for cls in classes:
            if cls[0] in group:
                continue
            join, join_gens = group, gens
            for c in cls:
                if c not in join:
                    join_gens = join_gens + [c]
                    join = _extend(right, join, join_gens)
            if join not in seen:
                seen.add(join)
                todo.append((join, join_gens))

    best = max(unitriangular, key=len)
    for cand in unitriangular:
        if not cand <= best:
            raise AssertionError("maximal unitriangular normal subgroup is not unique")
    return tuple(elems[i] for i in sorted(best))
