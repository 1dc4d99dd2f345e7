"""Seeded input generator for the three benchmark workloads.

Every instance is written as a representation file (the repository's
JSON format) and carries the answers it must produce, derived from how
it was built rather than from the package under test:

* ``structure-q``: g_i = P D_i U_i P^-1 over Q.  U_i is upper
  unitriangular with support on the diagonals j - i >= s, and U_0 has
  every entry of the s-th diagonal nonzero, so the group is
  unitriangular of degree exactly ceil(n / s) when every D_i is the
  identity.  A D_i other than the identity puts an eigenvalue other
  than 1 on g_i, so the group is not unipotent and g_i is outside the
  unipotent radical, while g_i with D_i = 1 lies inside it.
* ``sampling-q``: the same unipotent construction, whose degree bounds
  every weight-``degree`` commutator, plus a non-unipotent slice.
* ``finite-fp-cli``: 1-2 generator subgroups of GL(2,3), GL(2,5) and
  the upper-triangular 3x3 matrices over F_5 with diagonal +-1, none
  with more than 16 non-identity conjugacy classes.  A subgroup of
  GL(n,p) is unipotent iff it is a p-group, so the group order, found
  by breadth-first search here, decides the answer.

The instance plan (size, kind, generator count; group order and class
count over F_p) is fixed by the index so that seeds only change matrix
entries; this keeps the work per run close across seeds.  Same seed,
byte-identical files.
"""

from __future__ import annotations

import json
import os
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

import exact

STRUCTURE_SIZE = 130
SAMPLING_SIZE = 220
FINITE_SIZE = 144

WHY = {
    "structure-q": "elimination, span and ideal closures and the trace-form radical over Q; "
                   "a heavy n = 6 tail",
    "sampling-q": "rational Matrix products in the Kaloujnine and Engel samplers, "
                  "almost no elimination",
    "finite-fp-cli": "F_p kernels, Matrix hashing in enumeration, the brute-force oracle, "
                     "and the cli, repfile and certificate layers",
}


@dataclass
class Instance:
    name: str
    path: str
    p: int | None
    n: int
    gens: dict[str, tuple]
    expect: dict = field(default_factory=dict)


def _rep_text(p: int | None, n: int, gens: dict[str, tuple]) -> str:
    def entry(x):
        return x if isinstance(x, int) else f"{x.numerator}/{x.denominator}"

    doc = {
        "field": "Q" if p is None else {"Fp": p},
        "dim": n,
        "generators": {k: [[entry(x) for x in row] for row in m] for k, m in gens.items()},
    }
    return json.dumps(doc, indent=1) + "\n"


def _unimodular(rng: random.Random, n: int, coeff_bound: int = 3) -> tuple:
    """Product of 3n integer transvections: invertible over Z."""
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        c = rng.randint(-coeff_bound, coeff_bound)
        if i == j or not c:
            continue
        for k in range(n):
            m[i][k] += c * m[j][k]
    return tuple(tuple(r) for r in m)


def _unitriangular(rng: random.Random, n: int, step: int, regular: bool,
                   rational: bool) -> tuple:
    """I + N with N supported on diagonals j - i >= step, entries in [-9, 9].

    ``regular`` makes every entry of the step-th diagonal nonzero, and
    ``rational`` replaces one supported entry by a proper fraction.
    """
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    support = [(i, j) for i in range(n) for j in range(i + step, n)]
    for i, j in support:
        rows[i][j] = rng.randint(-9, 9)
        if regular and j - i == step and not rows[i][j]:
            rows[i][j] = rng.choice((-1, 1)) * rng.randint(1, 9)
    if rational and support:
        i, j = rng.choice(support)
        den = rng.randint(2, 9)
        num = den
        while num % den == 0:
            num = rng.choice((-1, 1)) * rng.randint(1, 9)
        rows[i][j] = Fraction(num, den)
    return tuple(tuple(r) for r in rows)


def _diagonal(rng: random.Random, n: int) -> tuple:
    """Diagonal with entries in {1, 2, 3}, not the identity."""
    while True:
        d = [rng.choice((1, 2, 3)) for _ in range(n)]
        if any(x != 1 for x in d):
            return tuple(tuple(d[i] if i == j else 0 for j in range(n)) for i in range(n))


def _rational_group(rng, n, k, unipotent, rational, step):
    """Generators P D_i U_i P^-1 and, per generator, whether D_i = 1."""
    p = _unimodular(rng, n)
    pinv = exact.inverse(p)
    gens, trivial_d = {}, {}
    for t in range(k):
        u = _unitriangular(rng, n, step, regular=(t == 0), rational=rational and t == 0)
        if unipotent or (t > 0 and rng.random() < 0.5):
            core, trivial_d[f"g{t}"] = u, True
        else:
            core, trivial_d[f"g{t}"] = exact.mul(_diagonal(rng, n), u), False
        gens[f"g{t}"] = exact.mul(exact.mul(p, core), pinv)
    return gens, trivial_d


# The instance plans repeat every 20 instances: (n, generators, unipotent,
# step) per slot.  A group's cost varies with its entries by a coefficient
# of variation of 0.25-0.5 even at fixed n, and the seeds change the
# entries, so each plan puts many instances of like cost where the p50
# and p90 fall.  In structure-q the middle is 11 cheap n = 3-4 slots and
# the top fifth is n = 6 with three generators and step 2 (degree 3), the
# steadiest dear slot; non-unipotent and dense (step 1) groups at n = 6
# cost 1.5-7 s each with a variation near 0.5, so they are left out.
_STRUCTURE_PLAN = (
    (3, 3, True, 2), (3, 3, True, 2),
    (3, 2, True, 1), (3, 2, True, 1), (3, 3, True, 1), (3, 3, True, 1),
    (3, 4, False, 1), (3, 2, False, 1), (3, 3, False, 1),
    (4, 2, True, 2), (4, 2, True, 2), (4, 3, True, 2), (4, 3, True, 2),
    (4, 2, True, 1), (4, 2, False, 1), (5, 3, True, 2),
    (6, 3, True, 2), (6, 3, True, 2), (6, 3, True, 2), (6, 3, True, 2),
)
# In sampling-q the middle is eight slots of (4, 2, unipotent, step 1).
_CORE = (4, 2, True, 1)
_SAMPLING_PLAN = (
    (3, 2, True, 1), (3, 3, True, 1), (3, 2, False, 1), (3, 3, True, 2),
    _CORE, _CORE, _CORE, _CORE, _CORE, _CORE, _CORE, _CORE,
    (4, 3, False, 1),
    (5, 2, True, 1), (5, 2, True, 1), (5, 2, True, 1), (5, 3, True, 2),
    (6, 2, True, 2), (6, 2, True, 1), (6, 3, True, 1),
)


def _rational(i: int, n: int) -> bool:
    """Every 5th instance with n <= 4 gets a fraction entry; at larger n
    fractions in long words make single instances 5-10x dearer."""
    return n <= 4 and i % 5 == 3


def structure_q(seed: int) -> list[Instance]:
    rng = random.Random(f"structure-q/{seed}")
    out = []
    for i in range(STRUCTURE_SIZE):
        n, k, unipotent, step = _STRUCTURE_PLAN[i % len(_STRUCTURE_PLAN)]
        gens, trivial_d = _rational_group(rng, n, k, unipotent, _rational(i, n), step)
        expect = {
            "unipotent": unipotent,
            "degree": -(-n // step) if unipotent else None,
            "members": trivial_d,
        }
        out.append(Instance(f"structure-q-{i:03d}", "", None, n, gens, expect))
    return out


def sampling_q(seed: int) -> list[Instance]:
    rng = random.Random(f"sampling-q/{seed}")
    out = []
    for i in range(SAMPLING_SIZE):
        n, k, unipotent, step = _SAMPLING_PLAN[i % len(_SAMPLING_PLAN)]
        gens, _ = _rational_group(rng, n, k, unipotent, _rational(i, n), step)
        expect = {
            "unipotent": unipotent,
            "degree": -(-n // step) if unipotent else n,
            "inverses": {name: exact.inverse(m) for name, m in gens.items()},
            "sample_seed": rng.randrange(2 ** 31),
        }
        out.append(Instance(f"sampling-q-{i:03d}", "", None, n, gens, expect))
    return out


def _group_elements(gens: list[tuple], p: int) -> set:
    one = exact.identity(len(gens[0]))
    seen = {one}
    frontier = [one]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = exact.mul(x, g, p)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def _nontrivial_classes(elems: set, gens: list[tuple], p: int) -> int:
    """Orbits of conjugation by the generators, identity excluded."""
    invs = [exact.inverse(g, p) for g in gens]
    left = set(elems) - {exact.identity(len(gens[0]))}
    count = 0
    while left:
        count += 1
        orbit = [left.pop()]
        for x in orbit:
            for g, gi in zip(gens, invs):
                y = exact.mul(exact.mul(gi, x, p), g, p)
                if y in left:
                    left.remove(y)
                    orbit.append(y)
    return count


def _is_power_of(order: int, p: int) -> bool:
    while order % p == 0:
        order //= p
    return order == 1


def _random_element(rng: random.Random, family: str) -> tuple:
    if family == "GL(2,3)" or family == "GL(2,5)":
        p = 3 if family == "GL(2,3)" else 5
        while True:
            m = tuple(tuple(rng.randrange(p) for _ in range(2)) for _ in range(2))
            if (m[0][0] * m[1][1] - m[0][1] * m[1][0]) % p:
                return m
    diag = [rng.choice((1, 4)) for _ in range(3)]
    return tuple(tuple(diag[i] if i == j else (rng.randrange(5) if j > i else 0)
                       for j in range(3)) for i in range(3))


_PRIMES = {"GL(2,3)": 3, "GL(2,5)": 5, "UT(3,5)+-": 5}

# (family, generators, group order, non-identity conjugacy classes).  The
# exhaustive oracle's cost grows with 2^classes and with the order
# squared (groups of 20-22 classes took 3-21 s there), so fixing both per
# slot keeps the work per run close across seeds; a slot is redrawn
# until both match.  Orders 3 and 5 are the
# p-groups; a second generator there is the square of the first, since
# two independent ones give too many classes to keep.
_FINITE_PLAN = (
    ("GL(2,3)", 1, 3, 2), ("GL(2,3)", 2, 48, 7), ("GL(2,3)", 2, 24, 6), ("GL(2,3)", 1, 8, 7),
    ("GL(2,5)", 1, 5, 4), ("GL(2,5)", 2, 5, 4), ("GL(2,5)", 1, 12, 11),
    ("GL(2,5)", 2, 96, 15), ("GL(2,5)", 2, 20, 4),
    ("UT(3,5)+-", 1, 5, 4), ("UT(3,5)+-", 1, 10, 9), ("UT(3,5)+-", 2, 100, 15),
)


def finite_fp(seed: int) -> list[Instance]:
    rng = random.Random(f"finite-fp-cli/{seed}")
    out = []
    for i in range(FINITE_SIZE):
        family, k, order, classes = _FINITE_PLAN[i % len(_FINITE_PLAN)]
        p = _PRIMES[family]
        p_group = _is_power_of(order, p)
        while True:
            gens = [_random_element(rng, family) for _ in range(1 if p_group else k)]
            if p_group and k == 2:
                gens.append(exact.mul(gens[0], gens[0], p))
            elems = _group_elements(gens, p)
            if len(elems) == order and _nontrivial_classes(elems, gens, p) == classes:
                break
        expect = {"order": order, "p_group": p_group, "classes": classes, "family": family}
        out.append(Instance(f"finite-fp-cli-{i:03d}", "", p, len(gens[0]),
                            {f"g{t}": g for t, g in enumerate(gens)}, expect))
    return out


GENERATORS = {"structure-q": structure_q, "sampling-q": sampling_q, "finite-fp-cli": finite_fp}


def generate(workload: str, seed: int, directory: str) -> list[Instance]:
    """Build the instances and write one rep file per instance."""
    instances = GENERATORS[workload](seed)
    os.makedirs(directory, exist_ok=True)
    for inst in instances:
        inst.path = os.path.join(directory, inst.name + ".json")
        with open(inst.path, "w", encoding="utf-8") as fh:
            fh.write(_rep_text(inst.p, inst.n, inst.gens))
    return instances


def properties(workload: str, instances: list[Instance]) -> dict:
    """Input properties the workload's cost depends on."""
    total = len(instances)
    fraction = sum(any(isinstance(x, Fraction) for m in inst.gens.values() for row in m
                       for x in row) for inst in instances)
    props = {
        "why": WHY[workload],
        "instances": total,
        "n_histogram": dict(sorted(Counter(inst.n for inst in instances).items())),
        "fields": dict(Counter("Q" if inst.p is None else f"F_{inst.p}" for inst in instances)),
        "fraction_share": round(fraction / total, 4),
        "max_entry_bits": max(exact.max_entry_bits(inst.gens.values()) for inst in instances),
        "generators_histogram": dict(sorted(Counter(len(inst.gens) for inst in instances).items())),
    }
    if workload == "finite-fp-cli":
        props["p_group_share"] = round(sum(i.expect["p_group"] for i in instances) / total, 4)
        props["nontrivial_class_histogram"] = dict(
            sorted(Counter(i.expect["classes"] for i in instances).items()))
        props["order_max"] = max(i.expect["order"] for i in instances)
        props["families"] = dict(Counter(i.expect["family"] for i in instances))
    else:
        props["unipotent_share"] = round(sum(i.expect["unipotent"] for i in instances) / total, 4)
    return props
