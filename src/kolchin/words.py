"""Word-level computations in finitely generated matrix groups.

Breadth-first element enumeration kept as its BFS tree, commutator
machinery for nil/Engel/algebraic probes, and the brute-force oracle
used to validate the unipotent radical on finite groups: conjugacy
classes read from the tree's letter columns, and one span test per
class, so its memory is linear in the order.

Commutator convention, used everywhere: [x, g] = x^-1 g^-1 x g, and
left-normed iteration [[x, g], g], ...  Probes return None rather than
guessing when a cap is exhausted.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import reduce
from operator import mul
from typing import TYPE_CHECKING, Callable, Sequence

from .linalg import Matrix

if TYPE_CHECKING:
    from .reps import Representation

DEFAULT_DEPTH_CAP = 10
DEFAULT_ELEMENT_CAP = 100_000
DEFAULT_WORD_LENGTH_CAP = 8
MAX_WORD_LETTERS = 10_000  # letters of one parsed word, name^k counting |k|


class NotFiniteError(ValueError):
    """Element enumeration hit a cap before the group closed."""


@dataclass(frozen=True)
class Word:
    """Sequence of (generator name, exponent +-1); empty word = identity."""

    letters: tuple[tuple[str, int], ...] = ()

    @classmethod
    def parse(cls, text: str) -> "Word":
        """Parse words like ``"a b^-1 a"``; ``"1"`` tokens mean identity.

        ``name^k`` expands into |k| letters, up to ``MAX_WORD_LETTERS`` in all.
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
            if len(letters) + abs(k) > MAX_WORD_LETTERS:
                raise ValueError(f"word has more than {MAX_WORD_LETTERS} letters")
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
    """Product of generator matrices and inverses in word order: k - 1
    products for k letters, and the identity for the empty word."""
    if not w.letters:
        return rep.identity()
    mats = [rep.generator(name) if e == 1 else rep.inverse(name) for name, e in w.letters]
    return reduce(mul, mats)


def random_word(rng: random.Random, names: Sequence[str], max_len: int) -> Word:
    """Uniform length in 1..max_len, letters uniform over names x {+1,-1}."""
    length = rng.randint(1, max_len)
    return Word(tuple((rng.choice(names), rng.choice((1, -1))) for _ in range(length)))


@dataclass
class ElementTable:
    """The BFS tree of an enumeration: ``elements`` maps each element
    to its index in discovery order, and element i > 0 is element
    ``parents[i]`` times the letter ``last_letters[i]`` (a generator
    name and exponent +-1), so the parents spell shortest words; the
    identity, element 0, has None for both.  ``columns[letter][i]`` is
    the index of element i times that letter.

    ``closed`` tables are product- and inverse-closed: the enumeration
    stopped because nothing new appeared, not because a cap was hit.
    Only their columns cover every element.
    """

    elements: dict[Matrix, int]
    parents: list[int | None]
    last_letters: list[tuple[str, int] | None]
    columns: dict[tuple[str, int], list[int]]
    closed: bool

    def __len__(self) -> int:
        return len(self.elements)


def enumerate_elements(
    rep: "Representation",
    element_cap: int = DEFAULT_ELEMENT_CAP,
    length_cap: int | None = None,
) -> ElementTable:
    """BFS over words by length until the group closes or a cap is hit;
    memory is linear in the number of elements."""
    if element_cap < 1 or (length_cap is not None and length_cap < 1):
        raise ValueError("caps must be at least 1")
    letters = [((name, 1), rep.generator(name)) for name in rep.names]
    letters += [((name, -1), rep.inverse(name)) for name in rep.names]
    one = rep.identity()
    table = ElementTable({one: 0}, [None], [None], {letter: [] for letter, _ in letters}, False)
    index = table.elements
    frontier = [(0, one)]
    length = 0
    while frontier:
        length += 1
        if length_cap is not None and length > length_cap:
            return table
        new: list[tuple[int, Matrix]] = []
        for i, m in frontier:
            for letter, mat in letters:
                prod = m * mat
                j = index.get(prod)
                if j is None:
                    if len(index) >= element_cap:
                        return table
                    j = index[prod] = len(index)
                    table.parents.append(i)
                    table.last_letters.append(letter)
                    new.append((j, prod))
                table.columns[letter].append(j)
        frontier = new
    table.closed = True
    return table


def _commutator_step(
    c: Matrix, c_inverse: Callable[[], Matrix], g: Matrix, g_inverse: Matrix
) -> tuple[Matrix, Callable[[], Matrix]] | None:
    """One step c <- [c, g] of a left-normed walk, in conjugate form:
    None when [c, g] = 1, else [c, g] and a function that builds its
    inverse.

    h = g^-1 (c g) is a conjugate of c, and [c, g] = c^-1 h, so the
    step is trivial iff h == c: two products and no identity test.
    Otherwise [c, g] is one product more, and only then is
    ``c_inverse`` (a function returning c^-1) called.  The inverse
    [c, g]^-1 = g^-1 c^-1 g c costs three products, and the function
    returned builds it when called: by the next step, and only if that
    step is not trivial.
    """
    h = g_inverse * (c * g)
    if h == c:
        return None
    ci = c_inverse()
    return ci * h, lambda: g_inverse * ci * g * c


def _first_trivial_step(
    c: Matrix, c_inverse: Callable[[], Matrix], steps: Sequence[tuple[Matrix, Matrix | None]]
) -> int | None:
    """The first k at which the left-normed walk c <- [c, g_k] reaches
    1, for ``steps`` the pairs (g_k, g_k^-1); None if it never does.

    Every step but the last is a conjugate-form ``_commutator_step``.
    The last step is read only for whether it is trivial, so it is the
    plain test c g == g c: two products, and neither inverse is read
    (the last g^-1 may be None).
    """
    if not steps:
        return None
    for k, (g, g_inverse) in enumerate(steps[:-1], 1):
        step = _commutator_step(c, c_inverse, g, g_inverse)
        if step is None:
            return k
        c, c_inverse = step
    g = steps[-1][0]
    return len(steps) if c * g == g * c else None


def nil_index_probe(g: Matrix, x: Matrix, depth_cap: int = DEFAULT_DEPTH_CAP) -> int | None:
    """First depth where the iterated commutator with g reaches 1, or None."""
    if depth_cap < 1:
        raise ValueError("depth cap must be at least 1")
    return _first_trivial_step(x, x.inverse, [(g, g.inverse())] * depth_cap)


def engel_probe(
    rep: "Representation",
    n: int,
    sample_budget: int = 1000,
    length_cap: int = DEFAULT_WORD_LENGTH_CAP,
    seed: int = 0,
) -> tuple[Word, Word] | None:
    """Sample word pairs (x, y) and test [[x, y], ..., y] = 1 at depth n.

    The walk inverts no matrix: y^-1 is evaluated from the inverse word
    when n > 1, and x^-1 only when the first step is not trivial, since
    that step alone reads it.  At depth 1 the walk is one commute test
    and evaluates neither inverse.  None is consistency evidence, not a
    proof; a pair is a genuine counterexample.
    """
    if n < 1 or sample_budget < 1 or length_cap < 1:
        raise ValueError("depth, sample budget and word length cap must be at least 1")
    rng = random.Random(seed)
    for _ in range(sample_budget):
        wx = random_word(rng, rep.names, length_cap)
        wy = random_word(rng, rep.names, length_cap)
        y = evaluate_word(rep, wy)
        steps = [(y, evaluate_word(rep, wy.inverse()) if n > 1 else None)] * n
        if _first_trivial_step(evaluate_word(rep, wx), lambda: evaluate_word(rep, wx.inverse()),
                               steps) is None:
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
    A trivial commutator lies in every subgroup.
    """
    from .reps import Representation

    if depth_cap < 1 or element_cap < 1:
        raise ValueError("caps must be at least 1")
    field = g.field
    table = {Matrix.identity(field, g.nrows)}
    sub_gens: list[Matrix] = []
    c, c_inverse, g_inverse = x, x.inverse, g.inverse()
    for k in range(1, depth_cap + 1):
        step = _commutator_step(c, c_inverse, g, g_inverse)
        if step is None or step[0] in table:
            return k
        c, c_inverse = step
        sub_gens.append(c)
        rep = Representation(field, [(f"c{i}", m) for i, m in enumerate(sub_gens)])
        table = enumerate_elements(rep, element_cap).elements
    return None


def conjugacy_classes(table: ElementTable) -> list[tuple[int, ...]]:
    """Partition of element indices into conjugacy classes of a closed
    table: each class sorted, in the order of their smallest members
    (so the identity's class comes first).

    For a generator s, left multiplication by s^-1 is one pass over the
    tree: element 0 goes to s^-1, and element i to the image of its
    parent times its last letter; BFS puts each parent first.
    Conjugation by s, x -> s^-1 x s, is then the letter s's column read
    through that pass.  The classes are the orbits of these maps, one
    per generator, so memory is linear in the order and no matrix
    product is taken.
    """
    if not table.closed:
        raise NotFiniteError("group enumeration hit a cap; the group may be infinite")
    conjugations = []
    for (name, e), column in table.columns.items():
        if e == 1:
            left = [table.columns[(name, -1)][0]]
            for parent, letter in zip(table.parents[1:], table.last_letters[1:]):
                left.append(table.columns[letter][left[parent]])
            conjugations.append([column[j] for j in left])
    seen = [False] * len(table)
    classes = []
    for i in range(len(table)):
        if seen[i]:
            continue
        seen[i] = True
        orbit = [i]
        for x in orbit:
            for conj in conjugations:
                y = conj[x]
                if not seen[y]:
                    seen[y] = True
                    orbit.append(y)
        classes.append(tuple(sorted(orbit)))
    return classes


def brute_force_unipotent_radical(
    rep: "Representation",
    element_cap: int = DEFAULT_ELEMENT_CAP,
    elements: ElementTable | None = None,
) -> tuple[Matrix, ...]:
    """Oracle: largest normal subgroup acting unitriangularly, decided
    one conjugacy class at a time.

    The subgroup <C> generated by a conjugacy class C is normal, so C
    lies in the largest unitriangular normal subgroup N iff <C> acts
    unitriangularly; N is the union of the classes that do.  A class is
    tested on its representative first (an element that is not unipotent
    lies in no unitriangular subgroup), then on all of its members.
    Each test works in V: a subgroup acts unitriangularly iff its span
    V (h_1-1)...(h_n-1), n = dim V, is zero, so the oracle runs none of
    the algebra code behind the radical it cross-checks.

    A last span test on the union itself asserts that it acts
    unitriangularly, which makes it the unique maximum: any
    unitriangular normal subgroup is a union of classes C with <C> in
    it, each of which passed.  Requires the group to be finite
    (NotFiniteError otherwise); returns the elements in enumeration
    order.  ``elements``, a closed enumeration of ``rep`` already at
    hand, saves enumerating again.
    """
    from .reps import difference_product_spans, unipotency_index

    table = elements if elements is not None else enumerate_elements(rep, element_cap)
    elems = list(table.elements)

    def unitriangular(members: Sequence[int]) -> bool:
        return difference_product_spans([elems[i] for i in members], rep.dim)[-1].is_zero()

    radical = [i for cls in conjugacy_classes(table)
               if unipotency_index(rep, elems[cls[0]]) is not None and unitriangular(cls)
               for i in cls]
    if not unitriangular(radical):
        raise AssertionError("maximal unitriangular normal subgroup is not unique")
    return tuple(elems[i] for i in sorted(radical))
