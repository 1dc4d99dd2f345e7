"""Command-line front end.

Commands read a representation file, print a human-readable report,
and optionally emit a machine-checkable certificate with --cert.

Exit codes: 0 the property holds, 1 usage, parse, arithmetic or file
error, 2 the property fails (a witness is printed), 3 inconclusive (a
cap, a characteristic restriction or the recursion limit got in the
way).

Default caps honour the environment variables KOLCHIN_DEPTH_CAP,
KOLCHIN_ELEMENT_CAP, KOLCHIN_WORD_LENGTH_CAP and KOLCHIN_SAMPLE_BUDGET,
read on every call; a value that is not an integer is an error (exit 1).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .algebra import CharacteristicTooSmallError, standard_identity_witness
from .certificates import (
    CertificateError,
    check_certificate,
    flag_to_payload,
    load_certificate,
    make_certificate,
    matrix_to_rows,
    subspace_to_rows,
    write_certificate,
)
from .repfile import load_representation
from .reps import (
    LiftHypothesisError,
    NotUnipotent,
    generator_identity_witness,
    invariant_series_from_identity,
    kolchin_flag,
    lift_identity_through_nilpotent_ideal,
    unipotency_index,
    unipotent_radical,
)
from .words import (
    DEFAULT_DEPTH_CAP,
    DEFAULT_ELEMENT_CAP,
    DEFAULT_WORD_LENGTH_CAP,
    NotFiniteError,
    Word,
    algebraic_element_probe,
    brute_force_unipotent_radical,
    engel_probe,
    enumerate_elements,
    evaluate_word,
    nil_index_probe,
)

OK, USAGE_ERROR, PROPERTY_FAILS, INCONCLUSIVE = 0, 1, 2, 3


# option dest -> (environment variable, default when it is unset)
_ENV_DEFAULTS = {
    "depth_cap": ("KOLCHIN_DEPTH_CAP", DEFAULT_DEPTH_CAP),
    "element_cap": ("KOLCHIN_ELEMENT_CAP", DEFAULT_ELEMENT_CAP),
    "sample_budget": ("KOLCHIN_SAMPLE_BUDGET", 1000),
    "length_cap": ("KOLCHIN_WORD_LENGTH_CAP", DEFAULT_WORD_LENGTH_CAP),
}


def _env_int(name: str, default: int) -> int:
    value = os.environ.get(name)
    if value is None:
        return default
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _resolve_env_defaults(args) -> None:
    """Fill the cap options left unset from the environment."""
    for dest, (name, default) in _ENV_DEFAULTS.items():
        value = _env_int(name, default)
        if getattr(args, dest, 0) is None:
            setattr(args, dest, value)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # usage errors must exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.  Cap options default
    to None and are resolved from the environment by ``main``."""
    parser = _Parser(prog="kolchin", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("repfile", help="representation file (JSON)")
        return p

    p = add("check-unipotent", "unipotency indices of generators or words")
    p.add_argument("--element", action="append", default=[], metavar="WORD",
                   help="additionally test this word (repeatable)")
    p.add_argument("--cert", help="write a certificate here")

    p = add("kolchin", "build an invariant flag that unitriangularizes the group")
    p.add_argument("--cert", help="write the flag certificate here")

    p = add("identity-check", "sweep generator tuples for the difference-product identity")
    p.add_argument("--length", type=int, required=True, metavar="N")
    p.add_argument("--lift-through-radical", action="store_true",
                   help="check the identity modulo the radical and lift the bound")
    p.add_argument("--cert", help="write a certificate here")

    p = add("pi-check", "minimal standard polynomial identity of the enveloping algebra")
    p.add_argument("--max-degree", type=int, required=True, metavar="K")
    p.add_argument("--cert", help="write a certificate here")

    p = add("unipotent-radical", "membership in the largest normal unitriangular subgroup")
    p.add_argument("--test", action="append", default=[], metavar="WORD",
                   help="test this word for membership (repeatable)")
    p.add_argument("--oracle", action="store_true",
                   help="on finite groups, cross-check against brute force")
    p.add_argument("--element-cap", type=int)
    p.add_argument("--cert", help="write a certificate here")

    p = add("probe", "sampling probes for nil / Engel / algebraic behaviour")
    p.add_argument("--kind", choices=("nil", "engel", "algebraic"), required=True)
    p.add_argument("--g", metavar="WORD", help="probe element (word; '1' is the identity)")
    p.add_argument("--x", metavar="WORD", help="companion element (default: first generator)")
    p.add_argument("--n", type=int, default=2, help="Engel depth")
    p.add_argument("--depth-cap", type=int)
    p.add_argument("--element-cap", type=int)
    p.add_argument("--sample-budget", type=int)
    p.add_argument("--length-cap", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cert", help="write a certificate here")

    p = sub.add_parser("check-cert", help="independently verify a certificate")
    p.add_argument("repfile", help="representation file (JSON)")
    p.add_argument("certfile", help="certificate file (JSON)")

    return parser


def _emit(args, rep, command, result, payload, seed=None):
    if getattr(args, "cert", None):
        cert = make_certificate(command, rep, result, payload, seed=seed)
        write_certificate(args.cert, cert)
        print(f"certificate written to {args.cert}")


def cmd_check_unipotent(rep, args) -> int:
    indices = {}
    all_unipotent = True
    for name in rep.names:
        idx = unipotency_index(rep, rep.generator(name))
        indices[name] = idx
        print(f"{name}: " + (f"unipotent, index {idx}" if idx else "not unipotent"))
        all_unipotent &= idx is not None
    for text in args.element:
        m = evaluate_word(rep, Word.parse(text))
        idx = unipotency_index(rep, m)
        indices[f"word:{text}"] = idx
        print(f"word '{text}': " + (f"unipotent, index {idx}" if idx else "not unipotent"))
        all_unipotent &= idx is not None
    result = "unipotent" if all_unipotent else "not-unipotent"
    _emit(args, rep, "check-unipotent", result, {"indices": indices})
    return OK if all_unipotent else PROPERTY_FAILS


def cmd_kolchin(rep, args) -> int:
    res = kolchin_flag(rep)
    if isinstance(res, NotUnipotent):
        print(f"not unipotent: stage {res.stage} has no nonzero fixed vectors")
        print(f"invariant subspace reached so far has dimension {res.reached.dim}")
        _emit(args, rep, "kolchin", "not-unipotent",
              {"stage": res.stage, "reached": subspace_to_rows(res.reached)})
        return PROPERTY_FAILS
    print(f"unitriangular of degree {res.degree}")
    print("flag dimensions:", " < ".join(str(s.dim) for s in res.flag.steps))
    _emit(args, rep, "kolchin", "unitriangular", {
        "degree": res.degree,
        "flag": flag_to_payload(res.flag),
        "base_change": matrix_to_rows(res.base_change),
        "convention": "rows act on the right; base change rows list the flag basis bottom-up",
    })
    return OK


def cmd_identity_check(rep, args) -> int:
    n = args.length
    if n < 1:
        print("--length must be at least 1", file=sys.stderr)
        return USAGE_ERROR
    if args.lift_through_radical:
        try:
            env = rep.enveloping()
            bound = lift_identity_through_nilpotent_ideal(rep, env.radical, n)
        except CharacteristicTooSmallError as e:
            print(f"inconclusive: {e}", file=sys.stderr)
            return INCONCLUSIVE
        except LiftHypothesisError as e:
            print(f"hypothesis fails: generator tuple {e.witness} is not in the radical")
            _emit(args, rep, "identity-check", "witness",
                  {"length": n, "witness": list(e.witness), "modulo_radical": True})
            return PROPERTY_FAILS
        print(f"identity of length {n} holds modulo the radical; lifted bound {bound}, verified")
        _emit(args, rep, "identity-check", "verified",
              {"length": n, "lifted_bound": bound, "modulo_radical": True})
        return OK
    witness = generator_identity_witness(rep, n)
    if witness is not None:
        print(f"witness: ({' , '.join(witness)}) gives a nonzero product")
        _emit(args, rep, "identity-check", "witness", {"length": n, "witness": list(witness)})
        return PROPERTY_FAILS
    series = invariant_series_from_identity(rep, n)
    print(f"identity of length {n} verified on all generator tuples")
    print("invariant series dimensions:", " < ".join(str(s.dim) for s in series.steps))
    _emit(args, rep, "identity-check", "verified",
          {"length": n, "series": flag_to_payload(series)})
    return OK


def cmd_pi_check(rep, args) -> int:
    if args.max_degree < 2:
        print("--max-degree must be at least 2", file=sys.stderr)
        return USAGE_ERROR
    alg = rep.enveloping().algebra
    print(f"enveloping algebra dimension: {alg.dim}")
    witnesses = {}
    minimal = None
    for k in range(2, args.max_degree + 1):
        combo = standard_identity_witness(alg, k)
        if combo is None:
            minimal = k
            print(f"standard identity of degree {k}: verified")
            break
        witnesses[str(k)] = list(combo)
        print(f"standard identity of degree {k}: witness at basis tuple {combo}")
    payload = {
        "algebra_basis": [matrix_to_rows(b) for b in alg.basis],
        "witnesses": witnesses,
        "minimal_degree": minimal,
        "max_degree": args.max_degree,
    }
    if minimal is None:
        print(f"no standard identity of degree <= {args.max_degree}")
        _emit(args, rep, "pi-check", "not-found", payload)
        return INCONCLUSIVE
    print(f"minimal standard identity degree: {minimal}")
    _emit(args, rep, "pi-check", "degree-found", payload)
    return OK


def cmd_unipotent_radical(rep, args) -> int:
    try:
        rad = unipotent_radical(rep)
    except CharacteristicTooSmallError as e:
        print(f"inconclusive: {e}", file=sys.stderr)
        return INCONCLUSIVE
    print(f"radical ideal dimension: {rad.ideal.dim}")
    tests = {}
    all_members = True
    for text in args.test:
        member = rad.contains(evaluate_word(rep, Word.parse(text)))
        tests[text] = member
        print(f"word '{text}': " + ("member" if member else "not a member"))
        all_members &= member
    exit_code = OK if all_members else PROPERTY_FAILS
    payload = {
        "radical_basis": [matrix_to_rows(m) for m in rad.ideal.matrices],
        "tests": tests,
    }
    if args.oracle:
        try:
            table = enumerate_elements(rep, args.element_cap)
            if not table.closed:
                raise NotFiniteError("enumeration hit the element cap")
            members = {m for m in table.elements if rad.contains(m)}
            brute = set(brute_force_unipotent_radical(rep, elements=table))
            agree = members == brute
            print(f"group order {len(table)}; radical subgroup order {len(brute)}; "
                  + ("oracle agrees" if agree else "ORACLE DISAGREES"))
            payload["oracle_order"] = len(brute)
            if not agree:
                exit_code = PROPERTY_FAILS
        except NotFiniteError as e:
            print(f"inconclusive oracle: {e}", file=sys.stderr)
            exit_code = INCONCLUSIVE
    _emit(args, rep, "unipotent-radical", "report", payload)
    return exit_code


def cmd_probe(rep, args) -> int:
    kind = args.kind
    x_text = args.x if args.x is not None else rep.names[0]
    x = evaluate_word(rep, Word.parse(x_text))
    payload = {"kind": kind, "seed": args.seed}
    if kind == "nil":
        if args.g is None:
            print("--g is required for --kind nil", file=sys.stderr)
            return USAGE_ERROR
        g = evaluate_word(rep, Word.parse(args.g))
        idx = nil_index_probe(g, x, args.depth_cap)
        payload.update({"g": args.g, "x": x_text, "depth_cap": args.depth_cap, "index": idx})
        if idx is None:
            print(f"no vanishing depth up to {args.depth_cap} (inconclusive)")
            _emit(args, rep, "probe", "inconclusive", payload, seed=args.seed)
            return INCONCLUSIVE
        print(f"nil index {idx}")
        _emit(args, rep, "probe", "index-found", payload, seed=args.seed)
        return OK
    if kind == "engel":
        pair = engel_probe(rep, args.n, args.sample_budget, args.length_cap, args.seed)
        payload.update({"depth": args.n, "sample_budget": args.sample_budget,
                        "length_cap": args.length_cap})
        if pair is None:
            print(f"consistent with the depth-{args.n} Engel identity "
                  f"({args.sample_budget} samples; evidence, not proof)")
            _emit(args, rep, "probe", "consistent", payload, seed=args.seed)
            return OK
        payload["counterexample"] = [str(pair[0]), str(pair[1])]
        print(f"counterexample pair: x = '{pair[0]}', y = '{pair[1]}'")
        _emit(args, rep, "probe", "counterexample", payload, seed=args.seed)
        return PROPERTY_FAILS
    # algebraic
    if args.g is None:
        print("--g is required for --kind algebraic", file=sys.stderr)
        return USAGE_ERROR
    g = evaluate_word(rep, Word.parse(args.g))
    k = algebraic_element_probe(g, x, args.depth_cap, args.element_cap)
    payload.update({"g": args.g, "x": x_text, "depth_cap": args.depth_cap,
                    "element_cap": args.element_cap, "stabilized_at": k})
    if k is None:
        print("no stabilisation within the caps (inconclusive)")
        _emit(args, rep, "probe", "inconclusive", payload, seed=args.seed)
        return INCONCLUSIVE
    print(f"commutator subgroup generators stabilise at depth {k} (evidence, not proof)")
    _emit(args, rep, "probe", "stabilized", payload, seed=args.seed)
    return OK


def cmd_check_cert(args) -> int:
    rep = load_representation(args.repfile)
    cert = load_certificate(args.certfile)
    try:
        summary = check_certificate(rep, cert)
    except CertificateError as e:
        print(f"certificate verification FAILED: {e}", file=sys.stderr)
        return PROPERTY_FAILS
    print(summary)
    return OK


_HANDLERS = {
    "check-unipotent": cmd_check_unipotent,
    "kolchin": cmd_kolchin,
    "identity-check": cmd_identity_check,
    "pi-check": cmd_pi_check,
    "unipotent-radical": cmd_unipotent_radical,
    "probe": cmd_probe,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_ERROR
    try:
        _resolve_env_defaults(args)
        if args.command == "check-cert":
            return cmd_check_cert(args)
        rep = load_representation(args.repfile)
        return _HANDLERS[args.command](rep, args)
    except RecursionError:
        print("inconclusive: recursion limit exceeded", file=sys.stderr)
        return INCONCLUSIVE
    except (ValueError, ArithmeticError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
