"""Machine-checkable certificates and their independent checker.

A certificate records the command, a digest of the input
representation, the result kind, and a payload rich enough that
``check_certificate`` can re-verify every claim from scratch with
exact row reduction and matrix products: flag drops, product
vanishing, radical membership, nilpotency of embedded spans.

Identical inputs and seeds produce byte-identical certificates; no
timestamps or environment data are embedded.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile

from . import __version__
from .algebra import standard_identity_eval
from .linalg import Flag, Matrix, RowSpan, Subspace, flag_drops, flat, rref
from .repfile import matrix_from_rows, matrix_to_rows, representation_to_dict
from .reps import Representation
from .words import Word, evaluate_word

CERT_FORMAT = "kolchin.certificate/1"
FLAG_DROP_FAILS = "flag drop fails: a generator difference leaves a step boundary"


class CertificateError(ValueError):
    """A certificate failed independent verification."""


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


def _subspace_from_rows(rep: Representation, rows: list) -> Subspace:
    return Subspace(rep.field, rep.dim, [[rep.field.of(x) for x in r] for r in rows])


def _require(cond: bool, message: str):
    if not cond:
        raise CertificateError(message)


def _span_is_nilpotent(mats: list[Matrix]) -> bool:
    """The span of ``mats`` has some vanishing power.

    A nilpotent span of n x n matrices generates a nil algebra, which
    is strictly triangularizable, so its n-th power already vanishes;
    computing powers up to n decides either way.
    """
    mats = [m for m in mats if not m.is_zero()]
    if not mats:
        return True
    n = mats[0].nrows
    current = mats
    for _ in range(2, n + 1):
        span = RowSpan(mats[0].field, n * n)
        nxt = []
        for u in current:
            for v in mats:
                prod = u * v
                if span.absorb(flat(prod)):
                    nxt.append(prod)
        if not nxt:
            return True
        current = nxt
    return False


def check_certificate(rep: Representation, cert: dict) -> str:
    """Re-verify a certificate against the representation it claims to
    describe.  Raises CertificateError on any mismatch; returns a short
    human-readable summary on success."""
    _require(isinstance(cert, dict) and cert.get("format") == CERT_FORMAT,
             "unrecognised certificate format")
    _require(cert.get("inputs_digest") == representation_digest(rep),
             "stale certificate: input digest does not match the representation")
    command = cert.get("command")
    result = cert.get("result")
    payload = cert.get("payload") or {}
    checker = _CHECKERS.get(command)
    _require(checker is not None, f"no checker for command {command!r}")
    try:
        return checker(rep, result, payload)
    except CertificateError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError, ArithmeticError) as e:
        raise CertificateError(f"malformed certificate payload: {e}") from e


def _check_kolchin(rep: Representation, result: str, payload: dict) -> str:
    if result == "unitriangular":
        steps = [_subspace_from_rows(rep, rows) for rows in payload["flag"]]
        flag = Flag(steps)  # validates ascent from 0 to V
        _require(flag.degree == payload["degree"], "degree does not match the flag")
        _require(flag_drops(rep.generators, steps), FLAG_DROP_FAILS)
        base = matrix_from_rows(rep.field, payload["base_change"], rep.dim)
        _require(rref(base).rank == rep.dim, "base change is not invertible")
        # base-change rows fill the flag from the bottom up
        for step in steps[1:]:
            for v in base.rows[: step.dim]:
                _require(step.contains_vector(v), "base change rows do not follow the flag")
        return f"unitriangular certificate of degree {payload['degree']} verified"
    if result == "not-unipotent":
        reached = _subspace_from_rows(rep, payload["reached"])
        from .linalg import fixed_space, quotient_action

        qmats = [quotient_action(g, reached) for g in rep.generators]
        _require(fixed_space(qmats).is_zero(),
                 "claimed obstruction has a nonzero fixed space")
        return f"non-unipotency obstruction at stage {payload['stage']} verified"
    raise CertificateError(f"unknown result kind {result!r}")


def _check_check_unipotent(rep: Representation, result: str, payload: dict) -> str:
    from .reps import unipotency_index

    indices = payload["indices"]
    _require(all(name in indices for name in rep.names),
             "a generator has no unipotency index")
    for label, claimed in indices.items():
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
    n = payload["length"]
    one = rep.identity()
    if result == "witness":
        names = payload["witness"]
        prod = one
        for name in names:
            prod = prod * (rep.generator(name) - one)
        _require(not prod.is_zero(), "claimed witness product vanishes")
        return f"identity witness of length {n} verified"
    if result == "verified":
        if payload.get("modulo_radical"):
            # the checkable claim is the lifted bound itself
            from .reps import difference_product_spans

            bound = payload["lifted_bound"]
            _require(difference_product_spans(rep, bound)[-1].is_zero(),
                     "lifted bound fails at matrix level")
            return f"lifted identity bound {bound} verified"
        from .reps import generator_identity_witness

        _require(generator_identity_witness(rep, n) is None,
                 "re-sweep found a violating generator tuple")
        if "series" in payload:
            steps = [_subspace_from_rows(rep, rows) for rows in payload["series"]]
            Flag(steps)
            _require(flag_drops(rep.generators, steps), FLAG_DROP_FAILS)
        return f"length-{n} identity verified"
    raise CertificateError(f"unknown result kind {result!r}")


def _check_pi(rep: Representation, result: str, payload: dict) -> str:
    basis = [matrix_from_rows(rep.field, rows, rep.dim) for rows in payload["algebra_basis"]]
    span = RowSpan(rep.field, rep.dim * rep.dim)
    for b in basis:
        _require(span.absorb(flat(b)),
                 "embedded algebra basis is linearly dependent")
    for g in rep.generators:
        _require(span.contains(flat(g)),
                 "embedded algebra does not contain a generator")
    for k_str, combo in payload.get("witnesses", {}).items():
        value = standard_identity_eval(int(k_str), [basis[i] for i in combo])
        _require(not value.is_zero(), f"degree-{k_str} witness evaluates to zero")
    minimal = payload.get("minimal_degree")
    if minimal is not None:
        from .algebra import AlgebraBasis, standard_identity_witness

        alg = AlgebraBasis(rep.field, rep.dim, basis)
        _require(standard_identity_witness(alg, minimal) is None,
                 "claimed minimal degree fails a re-sweep")
        return f"standard identity of degree {minimal} verified"
    return "standard identity witnesses verified"


def _check_radical(rep: Representation, result: str, payload: dict) -> str:
    basis = [matrix_from_rows(rep.field, rows, rep.dim) for rows in payload["radical_basis"]]
    span = RowSpan(rep.field, rep.dim * rep.dim)
    for b in basis:
        span.absorb(flat(b))
    _require(_span_is_nilpotent(basis), "embedded radical basis is not nilpotent")
    for name in rep.names:
        g, gi = rep.generator(name), rep.inverse(name)
        for r in basis:
            _require(span.contains(flat(gi * r * g)),
                     "embedded radical is not conjugation-stable")
    one = rep.identity()
    for word_text, verdict in payload.get("tests", {}).items():
        m = evaluate_word(rep, Word.parse(word_text))
        inside = span.contains(flat(m - one))
        _require(inside == verdict, f"membership verdict mismatch for word {word_text!r}")
    return "radical membership certificate verified"


def _check_probe(rep: Representation, result: str, payload: dict) -> str:
    kind = payload["kind"]
    if result == "counterexample":
        if kind == "engel":
            wx = Word.parse(payload["counterexample"][0])
            wy = Word.parse(payload["counterexample"][1])
            x = evaluate_word(rep, wx)
            y = evaluate_word(rep, wy)
            c = x
            for _ in range(payload["depth"]):
                c = c.inverse() * y.inverse() * c * y
            _require(not c.is_identity(), "claimed Engel counterexample is trivial")
            return "Engel counterexample verified"
        raise CertificateError(f"no counterexample checker for probe kind {kind!r}")
    # Consistent / stabilised outcomes are sampling evidence; only the
    # envelope is checkable.
    return f"probe report accepted (evidence only, kind {kind})"


_CHECKERS = {
    "kolchin": _check_kolchin,
    "check-unipotent": _check_check_unipotent,
    "identity-check": _check_identity,
    "pi-check": _check_pi,
    "unipotent-radical": _check_radical,
    "probe": _check_probe,
}
