"""Machine-checkable certificates and their independent checker.

A certificate records the command, a digest of the input
representation, the result kind, and a payload rich enough that
``check_certificate`` can re-verify every claim from scratch with
exact row reduction and matrix products, without re-running the
algorithm that made it:

- an identity series: it ascends from 0 to V, and every generator
  difference drops each step;
- a unitriangular kolchin certificate, on its base change P alone: P
  is n x n and each of its rows grows the span of the rows above it;
  each flag step is the span of the first dim W_i rows of P; the
  step dimensions rise strictly from 0 to n, and the degree is
  their count less 1.  The steps nest, being prefixes, and W_i is
  W_(i-1) plus rows dim W_(i-1) + 1 to dim W_i of P, so every g - 1
  drops each step iff those rows of the one product P (g - 1) lie in
  W_(i-1);
- an identity verified at length (or lifted bound) n: the span of all
  vectors x (h_1-1)...(h_n-1) in V is zero;
- an identity witness of length n: exactly n generator names whose
  difference product is nonzero, and outside the trace-form radical
  when the identity was checked modulo the radical; past
  ``ENGEL_CHECK_STEPS`` names the check is inconclusive;
- a not-unipotent obstruction: the checker rebuilds the chain of
  common fixed spaces on the quotient matrices, not in V as the flag
  algorithm works; the chain must stop short of V, at the claimed
  stage (a positive integer) and the claimed reached subspace;
- pi-check: the embedded basis spans exactly the enveloping algebra,
  which the checker spins itself; each witness has increasing indices,
  a degree below 2n (M_n satisfies S_2n), a key ``str(k)`` for a k from
  2 to the max degree (the degrees pi-check sweeps) and a nonzero value;
  the claimed degree k is at most the max degree, the degree below it
  has a witness, and S_k vanishes on every k-subset of the basis, as the
  checker sweeps itself, unless k = 2n, where S_k holds by
  Amitsur-Levitzki.  The re-sweep, and each witness, may take
  ``algebra.SWEEP_WORK_CAP``; past it the check is inconclusive;
- unipotent-radical: the embedded radical is exactly the kernel of the
  trace form Tr(xy) on that algebra (characteristic 0 or p > n), and
  the membership verdicts follow.  That kernel is an ideal, Tr being
  associative, so the group (inverses lie in the algebra) conjugates it
  to itself; and Tr(x^k) = 0 for all k with n < p makes it nilpotent.
  The payload holds the radical basis and the verdicts and nothing
  else: the oracle's group and radical orders are printed, not written;
- an Engel counterexample: exactly two words x and y, each of at most
  the length cap's letters (probe samples no longer word), and the walk
  c <- [c, y] from x, computed from the definition, does not reach 1
  within the depth.  The walk stops early once c repeats; past
  ``ENGEL_CHECK_STEPS`` steps without a repeat the check is
  inconclusive (``CheckInconclusive``);
- a nil index k: a positive integer no larger than the depth cap, with
  the walk c <- [c, g] from x, computed from the definition, nontrivial
  at every step before k and 1 at step k; with no index, the walk is
  nontrivial at every step up to the depth cap.  Past
  ``ENGEL_CHECK_STEPS`` steps either check is inconclusive.

Every integer field of a payload must be a JSON integer (never a bool,
nor a float such as 2.0) of at least its least value (``_int``; 2 for
both pi-check degrees), and a membership verdict a JSON boolean.  Only
the result kinds the commands write are accepted: ``report`` for a
unipotent-radical certificate, and for a probe only the proved kinds
above and, as evidence whose envelope alone is checked, an Engel
``consistent`` and an algebraic ``stabilized`` or ``inconclusive``.
Every certificate has exactly the seven top-level keys that
``make_certificate`` writes, a string ``version``, and a null ``seed``
unless it is a probe report.  The probe envelope is what probe writes:
on every report a seed, one JSON integer in the payload and the
certificate; for Engel a positive depth, sample budget and length cap;
for algebraic a positive depth cap and element cap, and a stabilisation
depth from 1 to the depth cap (null when inconclusive).

Identical inputs and seeds produce byte-identical certificates; no
timestamps or environment data are embedded.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from operator import lt

from . import __version__
from .algebra import SweepCapExceeded, standard_identity_eval, standard_identity_sweep
from .linalg import (Flag, Matrix, RowSpan, Subspace, fixed_space, flag_drops, flat, kernel,
                     quotient_action, square_product)
from .repfile import matrix_to_rows, representation_to_dict
from .reps import Representation, difference_product_spans, unipotency_index
from .words import Word, evaluate_word

CERT_FORMAT = "kolchin.certificate/1"
ENVELOPE_KEYS = frozenset({"format", "version", "command", "inputs_digest", "result", "seed",
                           "payload"})
FLAG_DROP_FAILS = "flag drop fails: a generator difference leaves a step boundary"
# steps of an Engel or nil walk, or factors of an identity witness, the
# checker takes at most; over Q the entries of a walk that never repeats
# grow by a few bits a step, and 1,000 steps take about 0.3 s at n = 3
ENGEL_CHECK_STEPS = 1000


class CertificateError(ValueError):
    """A certificate failed independent verification."""


class CheckInconclusive(Exception):
    """The checker reached one of its caps before it could decide."""


def within_step_cap(what: str, steps: int) -> None:
    """The one owner of the step cap: the checker takes at most
    ENGEL_CHECK_STEPS steps, so it and the CLI refuse more."""
    if steps > ENGEL_CHECK_STEPS:
        raise CheckInconclusive(f"{what} {steps} is above the cap of {ENGEL_CHECK_STEPS} steps")


def representation_digest(rep: Representation) -> str:
    canonical = json.dumps(representation_to_dict(rep), sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def make_certificate(command: str, rep: Representation, result: str,
                     payload: dict, seed: int | None = None) -> dict:
    return {
        "format": CERT_FORMAT,
        "version": __version__,
        "command": command,
        "inputs_digest": representation_digest(rep),
        "result": result,
        "seed": seed,
        "payload": payload,
    }


def write_certificate(path: str, cert: dict):
    """Atomic write: the file appears complete or not at all."""
    text = json.dumps(cert, indent=2) + "\n"
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".cert-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_certificate(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def subspace_to_rows(s: Subspace) -> list[list]:
    return matrix_to_rows(s.basis)


def flag_to_payload(flag: Flag) -> list[list[list]]:
    return [subspace_to_rows(s) for s in flag.steps]


def _require(cond: bool, message: str):
    if not cond:
        raise CertificateError(message)


def _int(value, least: int, message: str) -> int:
    _require(type(value) is int and value >= least, message)
    return value


def _checked_flag(rep: Representation, payload_steps) -> Flag:
    # the payload's steps: they must ascend from 0 to V, and each g - 1 drop them
    flag = Flag([Subspace(rep.field, rep.dim, rows) for rows in payload_steps])
    _require(flag_drops(rep.generators, flag.steps), FLAG_DROP_FAILS)
    return flag


def _enveloping_span(rep: Representation) -> Subspace:
    """The enveloping algebra as the span of its matrices flattened into
    F^(n^2), spun here from the identity by right multiplication with
    the generators."""
    one = rep.identity()
    span = RowSpan(rep.field, rep.dim ** 2)
    span.absorb(flat(one))
    work = [one]
    for m in work:  # grows while it is walked
        for g in rep.generators:
            prod = m * g
            if span.absorb(flat(prod)):
                work.append(prod)
    return span.to_subspace()


def _embedded_span(rep: Representation, mats: list[Matrix]) -> RowSpan:
    span = RowSpan(rep.field, rep.dim ** 2)
    for m in mats:
        _require(span.absorb(flat(m)), "embedded basis is linearly dependent")
    return span


def check_certificate(rep: Representation, cert: dict) -> str:
    """Re-verify a certificate against the representation it claims to
    describe.  Raises CertificateError on any mismatch; returns a short
    human-readable summary on success."""
    _require(isinstance(cert, dict) and cert.get("format") == CERT_FORMAT,
             "unrecognised certificate format")
    _require(cert.keys() == ENVELOPE_KEYS,
             f"certificate keys must be exactly {sorted(ENVELOPE_KEYS)}")
    _require(type(cert["version"]) is str, "certificate version must be a string")
    _require(cert.get("inputs_digest") == representation_digest(rep),
             "stale certificate: input digest does not match the representation")
    command = cert.get("command")
    result = cert.get("result")
    payload = cert.get("payload") or {}
    checker = _CHECKERS.get(command)
    _require(checker is not None, f"no checker for command {command!r}")
    if command == "probe":  # probe writes its --seed twice
        seeds = payload.get("seed"), cert.get("seed")
        _require(all(type(s) is int for s in seeds) and seeds[0] == seeds[1],
                 "probe seeds must be one JSON integer: payload %r, certificate %r" % seeds)
    else:
        _require(cert["seed"] is None, f"a {command} certificate has no seed")
    try:
        return checker(rep, result, payload)
    except CertificateError:
        raise
    except SweepCapExceeded as e:
        raise CheckInconclusive(str(e)) from None
    except (AttributeError, LookupError, TypeError, ValueError, ArithmeticError) as e:
        raise CertificateError(f"malformed certificate payload: {e}") from e


def _check_kolchin(rep: Representation, result: str, payload: dict) -> str:
    if result == "unitriangular":
        field, n = rep.field, rep.dim
        base = Matrix(field, payload["base_change"], n)
        _require(base.nrows == n, f"base change does not have {n} rows")
        # prefixes[d] is the span of the first d base-change rows
        span = RowSpan(field, n)
        prefixes = [span.to_subspace()]
        for v in base.ints:
            _require(span.absorb(v), "base change is not invertible")
            prefixes.append(span.to_subspace())
        # each step must be the prefix of its dimension
        dims = []
        for rows in payload["flag"]:
            step = Subspace._spanned(field, n, Matrix(field, rows, n).ints)
            _require(step == prefixes[step.dim], "base change rows do not follow the flag")
            dims.append(step.dim)
        _require(dims[:1] == [0] and dims[-1] == n, "flag must run from the zero subspace to V")
        _require(all(map(lt, dims, dims[1:])), "flag steps must be strictly ascending")
        degree = _int(payload["degree"], 0, "degree must be a nonnegative integer")
        _require(len(dims) - 1 == degree, "degree does not match the flag")
        # W_i is W_(i-1) plus base rows lo:hi (lo, hi = dim W_(i-1), dim
        # W_i), so by induction each g - 1 drops W_i into W_(i-1) iff it
        # drops those rows there; rows lo:hi of the one product P (g - 1)
        # are their images, each standing for its line, so den 1 will do
        one, product = rep.identity(), square_product(field, n)
        for g in rep.generators:
            images, _ = product(base.ints, (g - one).ints, 1)
            for lo, hi in zip(dims, dims[1:]):
                below = prefixes[lo]
                _require(not any(any(below._residual(v)) for v in images[lo:hi]), FLAG_DROP_FAILS)
        return f"unitriangular certificate of degree {degree} verified"
    if result == "not-unipotent":
        stage = _int(payload["stage"], 1, "obstruction stage must be a positive integer")
        reached = Subspace(rep.field, rep.dim, payload["reached"])
        own_stage, own_reached = _quotient_chain(rep)
        _require(own_reached is not None, "the group is unipotent: the fixed-space chain reaches V")
        _require(stage == own_stage, f"obstruction stage {stage} is not the chain's stage {own_stage}")
        _require(reached == own_reached,
                 "claimed obstruction is not where the fixed-space chain stops")
        return f"non-unipotency obstruction at stage {stage} verified"
    raise CertificateError(f"unknown result kind {result!r}")


def _quotient_chain(rep: Representation) -> tuple[int, Subspace | None]:
    """(stage, reached): the chain W_i = W_(i-1) + the fixed space of the
    action on V/W_(i-1), built on the quotient matrices, not in V as the
    flag algorithm works.  Stage i is the first whose fixed space is
    zero; reached is None when the chain reaches V instead."""
    w = Subspace.zero(rep.field, rep.dim)
    stage = 1
    while not w.is_full():
        fix = fixed_space([quotient_action(g, w) for g in rep.generators])
        if fix.is_zero():
            return stage, w
        # quotient coordinate k is the k-th non-pivot standard coordinate
        # of w; each integer row of fix stands for its line, as w's rows do
        at = {c: k for k, c in enumerate(w.complement_coordinates())}
        lifted = [[q[at[c]] if c in at else 0 for c in range(rep.dim)] for q in fix.basis.ints]
        w = Subspace._spanned(rep.field, rep.dim, [*w.basis.ints, *lifted])
        stage += 1
    return stage, None


def _check_check_unipotent(rep: Representation, result: str, payload: dict) -> str:
    indices = payload["indices"]
    _require(all(name in indices for name in rep.names),
             "a generator has no unipotency index")
    for label, claimed in indices.items():
        if claimed is not None:
            _int(claimed, 1, f"unipotency index of {label!r} must be a positive integer or null")
        if label.startswith("word:"):
            m = evaluate_word(rep, Word.parse(label[5:]))
        else:
            m = rep.generator(label)
        _require(unipotency_index(rep, m) == claimed,
                 f"unipotency index mismatch for {label!r}")
    derived = "unipotent" if None not in indices.values() else "not-unipotent"
    _require(result == derived, f"result {result!r} contradicts the indices")
    return f"unipotency indices verified for {len(indices)} elements"


def _check_identity(rep: Representation, result: str, payload: dict) -> str:
    n = _int(payload["length"], 1, "identity length must be a positive integer")
    one = rep.identity()
    if result == "witness":
        names = payload["witness"]
        _require(isinstance(names, list) and len(names) == n
                 and all(name in rep.names for name in names),
                 f"witness must list exactly {n} generator names")
        within_step_cap("identity length", n)
        prod = one
        for name in names:
            prod = prod * (rep.generator(name) - one)
        _require(not prod.is_zero(), "claimed witness product vanishes")
        if payload.get("modulo_radical"):
            _require(any(_trace_radical(rep)._residual(flat(prod))),
                     "claimed witness product lies in the radical")
        return f"identity witness of length {n} verified"
    if result == "verified":
        # all length-n generator products vanish iff V (h_1-1)...(h_n-1) = 0
        lifted = payload.get("modulo_radical")
        bound = (_int(payload["lifted_bound"], 1, "lifted bound must be a positive integer")
                 if lifted else n)
        diffs = [g - one for g in rep.generators]
        _require(difference_product_spans(diffs, bound)[-1].is_zero(),
                 f"difference products of length {bound} do not all vanish")
        if "series" in payload:
            _checked_flag(rep, payload["series"])
        if lifted:
            return f"lifted identity bound {bound} verified"
        return f"length-{n} identity verified"
    raise CertificateError(f"unknown result kind {result!r}")


def _check_pi(rep: Representation, result: str, payload: dict) -> str:
    basis = [Matrix(rep.field, rows, rep.dim) for rows in payload["algebra_basis"]]
    _require(_embedded_span(rep, basis).to_subspace() == _enveloping_span(rep),
             "embedded basis does not span the enveloping algebra")
    minimal = payload.get("minimal_degree")
    # pi-check sweeps from degree 2 to its max degree, and writes no other
    message = "pi-check degrees must be integers of at least 2"
    top = _int(payload["max_degree"], 2, message)
    # S_j holding implies S_(j+1) holds, so a witness one below the claimed
    # degree, or at the top of a sweep that found none, shows all below fail
    below = top if minimal is None else _int(minimal, 2, message) - 1
    _require(minimal is None or below < top,
             f"minimal degree {minimal} is above the max degree {top}")
    witnesses = payload.get("witnesses", {})
    for k_str, combo in witnesses.items():
        k = int(k_str)
        # S_2n holds on M_n (Amitsur-Levitzki); a repeated index makes S_k vanish
        _require(k < 2 * rep.dim, f"degree-{k_str} witness is not below 2n")
        _require(all(type(j) is int and i < j for i, j in zip([-1] + combo, combo)),
                 f"degree-{k_str} witness indices must strictly increase")
        _require(k_str == str(k) and 2 <= k <= top,
                 f"degree-{k_str} witness is not at a degree from 2 to the max degree {top}")
        value = standard_identity_eval(k, [basis[i] for i in combo])
        _require(not value.is_zero(), f"degree-{k_str} witness evaluates to zero")
    _require(result == ("not-found" if minimal is None else "degree-found"),
             f"result {result!r} contradicts the minimal degree")
    _require(below < 2 or str(below) in witnesses, f"no degree-{below} witness")
    if minimal is None:
        return "standard identity witnesses verified"
    # every subalgebra of M_n satisfies S_2n (Amitsur-Levitzki); below it,
    # S_k is multilinear and alternating, so the basis subsets decide it
    if minimal != 2 * rep.dim:
        _require(standard_identity_sweep(basis, minimal) is None,
                 "claimed minimal degree fails a re-sweep")
    return f"standard identity of degree {minimal} verified"


def _trace_radical(rep: Representation) -> Subspace:
    """The radical of the enveloping algebra, flattened into F^(n^2): the
    kernel of the trace form Tr(xy), refused in characteristic 0 < p <= n,
    where that kernel can be larger than the radical."""
    n, p = rep.dim, rep.field.characteristic()
    _require(not 0 < p <= n, f"no trace-form radical in characteristic {p} <= {n}")
    # Tr(xy) is flat(x) dotted with flat(y transposed)
    alg = _enveloping_span(rep).basis
    swapped = Matrix.from_ints(rep.field, [[r[(c % n) * n + c // n] for c in range(n * n)]
                                           for r in alg.ints], alg.den, n * n)
    radical = kernel(alg * swapped.transpose()).basis * alg
    return Subspace._spanned(rep.field, n * n, radical.ints)


def _check_radical(rep: Representation, result: str, payload: dict) -> str:
    _require(result == "report", f"unknown result kind {result!r}")
    extra = sorted(set(payload) - {"radical_basis", "tests"})
    _require(not extra, f"unknown radical payload keys {extra}")
    radical = _trace_radical(rep)
    basis = [Matrix(rep.field, rows, rep.dim) for rows in payload["radical_basis"]]
    span = _embedded_span(rep, basis)
    _require(span.to_subspace() == radical,
             "embedded radical is not the trace-form kernel of the enveloping algebra")
    one = rep.identity()
    for word_text, verdict in payload.get("tests", {}).items():
        _require(type(verdict) is bool, f"membership verdict for word {word_text!r} is not a bool")
        m = evaluate_word(rep, Word.parse(word_text))
        inside = span.contains(flat(m - one))
        _require(inside == verdict, f"membership verdict mismatch for word {word_text!r}")
    return "radical membership certificate verified"


def _check_probe(rep: Representation, result: str, payload: dict) -> str:
    kind = payload["kind"]
    if kind == "engel":  # the envelope probe writes on every Engel report
        depth, _, length_cap = (_int(payload[key], 1, f"Engel {key} must be a positive integer")
                                for key in ("depth", "sample_budget", "length_cap"))
    if result == "counterexample":
        if kind == "engel":
            pair = payload["counterexample"]
            _require(type(pair) is list and len(pair) == 2, "Engel counterexample is not two words")
            words = [Word.parse(text) for text in pair]
            _require(all(len(w) <= length_cap for w in words),
                     f"an Engel counterexample word is longer than the length cap {length_cap}")
            x, y = (evaluate_word(rep, w) for w in words)
            # once c repeats, the walk cycles through values already seen, none of them 1
            seen = {x}
            for c in _commutator_walk(x, y, min(depth, ENGEL_CHECK_STEPS)):
                _require(not c.is_identity(), "claimed Engel counterexample is trivial")
                if c in seen:
                    break
                seen.add(c)
            else:
                if depth > ENGEL_CHECK_STEPS:
                    raise CheckInconclusive(f"the Engel walk neither reaches 1 nor repeats "
                                            f"within {ENGEL_CHECK_STEPS} steps")
            return "Engel counterexample verified"
        raise CertificateError(f"no counterexample checker for probe kind {kind!r}")
    if result == "index-found":
        _require(kind == "nil", f"no index checker for probe kind {kind!r}")
        message = "nil index must be a positive integer no larger than the depth cap"
        index = _int(payload["index"], 1, message)
        _require(index <= _int(payload["depth_cap"], 1, message), message)
        within_step_cap("nil index", index)
        first = _first_trivial_nil_step(rep, payload, index)
        _require(first is not None, f"the nil walk does not reach 1 at the claimed index {index}")
        _require(first == index, f"the nil walk reaches 1 at step {first}, "
                                 f"before the claimed index {index}")
        return f"nil index {index} verified"
    if kind == "nil" and result == "inconclusive":
        message = "an inconclusive nil probe has no index and a positive integer depth cap"
        _require(payload["index"] is None, message)
        cap = _int(payload["depth_cap"], 1, message)
        first = _first_trivial_nil_step(rep, payload, min(cap, ENGEL_CHECK_STEPS))
        _require(first is None, f"the nil walk reaches 1 at step {first}, within the depth cap {cap}")
        if cap > ENGEL_CHECK_STEPS:
            raise CheckInconclusive(f"the nil walk does not reach 1 within {ENGEL_CHECK_STEPS} "
                                    f"steps, below the depth cap {cap}")
        return f"no nil index up to the depth cap {cap} verified"
    # Consistent and stabilised outcomes, and an algebraic probe that ran out
    # of caps, are evidence; only the envelope, the values probe writes, is
    # checkable.
    evidence = {("engel", "consistent"), ("algebraic", "stabilized"), ("algebraic", "inconclusive")}
    _require((kind, result) in evidence, f"unknown result kind {result!r} for probe kind {kind!r}")
    if kind == "algebraic":
        message = "algebraic caps must be positive integers"
        cap = _int(payload["depth_cap"], 1, message)
        _int(payload["element_cap"], 1, message)
        if result == "stabilized":
            message = "a stabilised algebraic probe stops at a depth from 1 to its depth cap"
            _require(_int(payload["stabilized_at"], 1, message) <= cap, message)
        else:
            _require(payload["stabilized_at"] is None,
                     "an inconclusive algebraic probe has no stabilisation depth")
    return f"probe report accepted (evidence only, kind {kind})"


def _commutator_walk(x: Matrix, y: Matrix, steps: int):
    """The values of the first ``steps`` steps of the walk
    c <- [c, y] = c^-1 y^-1 c y from x, computed from the definition."""
    yi, c = y.inverse(), x
    for _ in range(steps):
        c = c.inverse() * yi * c * y
        yield c


def _first_trivial_nil_step(rep: Representation, payload: dict, steps: int) -> int | None:
    """The first of ``steps`` steps at which the walk c <- [c, g] from x
    reaches 1; None if none does."""
    g, x = (evaluate_word(rep, Word.parse(payload[key])) for key in ("g", "x"))
    for step, c in enumerate(_commutator_walk(x, g, steps), 1):
        if c.is_identity():
            return step
    return None


_CHECKERS = {
    "kolchin": _check_kolchin,
    "check-unipotent": _check_check_unipotent,
    "identity-check": _check_identity,
    "pi-check": _check_pi,
    "unipotent-radical": _check_radical,
    "probe": _check_probe,
}
