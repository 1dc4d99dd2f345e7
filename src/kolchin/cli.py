"""Command-line front end.

Commands read a representation file, print a human-readable report,
and, all but check-cert, optionally emit a machine-checkable
certificate with --cert.  A certificate's command is the parsed
command, and its seed is probe's --seed (null for every other command).

Exit codes: 0 the property holds, 1 usage, parse, arithmetic or file
error, 2 the property fails (a witness is printed), 3 inconclusive (a
cap, a characteristic restriction or the recursion limit got in the
way; ``main`` maps each of these to 3 in one place, check-cert's too).
A standard-identity sweep that would take more than
algebra.SWEEP_WORK_CAP scalar multiplications (n^3 per n x n product)
is cut: pi-check and check-cert then exit 3, and pi-check writes no
certificate.  certificates.within_step_cap refuses a step count above
ENGEL_CHECK_STEPS = 1,000 (identity --length, Engel --n, nil
--depth-cap) before any walk or sweep, as check-cert does.

Caps come only from their flags (--depth-cap, --element-cap,
--sample-budget, --length-cap), which default to the words.DEFAULT_*
constants.  Words have at most MAX_WORD_LETTERS = 10,000 letters
(name^k counts |k|): a longer one is exit 1 (2 in a certificate), as
is a larger --length-cap.
"""

from __future__ import annotations

import argparse
import functools
import sys
from itertools import chain

from .algebra import CharacteristicTooSmallError, SweepCapExceeded, minimal_standard_degree
from .certificates import (
    CertificateError,
    CheckInconclusive,
    check_certificate,
    flag_to_payload,
    load_certificate,
    make_certificate,
    matrix_to_rows,
    subspace_to_rows,
    within_step_cap,
    write_certificate,
)
from .repfile import load_representation
from .reps import (
    IdentityFailsError,
    LiftHypothesisError,
    NotUnipotent,
    invariant_series_from_identity,
    kolchin_flag,
    lift_identity_through_nilpotent_ideal,
    unipotency_index,
    unipotent_radical,
)
from .words import (
    DEFAULT_DEPTH_CAP,
    DEFAULT_ELEMENT_CAP,
    DEFAULT_SAMPLE_BUDGET,
    DEFAULT_WORD_LENGTH_CAP,
    MAX_WORD_LETTERS,
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


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # usage errors must exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = _Parser(prog="kolchin", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, handler):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("repfile", help="representation file (JSON)")
        return p

    p = add("check-unipotent", "unipotency indices of generators or words", cmd_check_unipotent)
    p.add_argument("--element", action="append", default=[], metavar="WORD",
                   help="additionally test this word (repeatable)")

    add("kolchin", "build an invariant flag that unitriangularizes the group", cmd_kolchin)

    p = add("identity-check", "sweep generator tuples for the difference-product identity",
            cmd_identity_check)
    p.add_argument("--length", type=int, required=True, metavar="N")
    p.add_argument("--lift-through-radical", action="store_true",
                   help="check the identity modulo the radical and lift the bound")

    p = add("pi-check", "minimal standard polynomial identity of the enveloping algebra",
            cmd_pi_check)
    p.add_argument("--max-degree", type=int, required=True, metavar="K")

    p = add("unipotent-radical", "membership in the largest normal unitriangular subgroup",
            cmd_unipotent_radical)
    p.add_argument("--test", action="append", default=[], metavar="WORD",
                   help="test this word for membership (repeatable)")
    p.add_argument("--oracle", action="store_true",
                   help="on finite groups, cross-check against brute force")
    p.add_argument("--element-cap", type=int, default=DEFAULT_ELEMENT_CAP)

    p = add("probe", "sampling probes for nil / Engel / algebraic behaviour", cmd_probe)
    p.add_argument("--kind", choices=("nil", "engel", "algebraic"), required=True)
    p.add_argument("--g", metavar="WORD", help="probe element (word; '1' is the identity)")
    p.add_argument("--x", metavar="WORD", help="companion element (default: first generator)")
    p.add_argument("--n", type=int, default=2, help="Engel depth")
    p.add_argument("--depth-cap", type=int, default=DEFAULT_DEPTH_CAP)
    p.add_argument("--element-cap", type=int, default=DEFAULT_ELEMENT_CAP)
    p.add_argument("--sample-budget", type=int, default=DEFAULT_SAMPLE_BUDGET)
    p.add_argument("--length-cap", type=int, default=DEFAULT_WORD_LENGTH_CAP)
    p.add_argument("--seed", type=int, default=0)

    # every command above writes a certificate; --cert ends each usage line
    for p in sub.choices.values():
        p.add_argument("--cert", help="write a certificate here")

    add("check-cert", "independently verify a certificate", cmd_check_cert).add_argument(
        "certfile", help="certificate file (JSON)")
    return parser


def _emit(args, rep, result, payload):
    if args.cert:
        seed = args.seed if args.command == "probe" else None
        cert = make_certificate(args.command, rep, result, payload, seed=seed)
        write_certificate(args.cert, cert)
        print(f"certificate written to {args.cert}")


def cmd_check_unipotent(rep, args) -> int:
    indices = {}
    all_unipotent = True
    # (certificate key, printed label, matrix): the generators, then each word
    words = ((f"word:{t}", f"word '{t}'", evaluate_word(rep, Word.parse(t))) for t in args.element)
    for key, label, m in chain(((name, name, g) for name, g in rep.items()), words):
        idx = indices[key] = unipotency_index(rep, m)
        print(f"{label}: " + (f"unipotent, index {idx}" if idx else "not unipotent"))
        all_unipotent &= idx is not None
    result = "unipotent" if all_unipotent else "not-unipotent"
    _emit(args, rep, result, {"indices": indices})
    return OK if all_unipotent else PROPERTY_FAILS


def cmd_kolchin(rep, args) -> int:
    res = kolchin_flag(rep)
    if isinstance(res, NotUnipotent):
        print(f"not unipotent: stage {res.stage} has no nonzero fixed vectors")
        print(f"invariant subspace reached so far has dimension {res.reached.dim}")
        _emit(args, rep, "not-unipotent",
              {"stage": res.stage, "reached": subspace_to_rows(res.reached)})
        return PROPERTY_FAILS
    print(f"unitriangular of degree {res.degree}")
    print("flag dimensions:", " < ".join(str(s.dim) for s in res.flag.steps))
    _emit(args, rep, "unitriangular", {
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
    within_step_cap("identity length", n)
    if args.lift_through_radical:
        try:
            bound = lift_identity_through_nilpotent_ideal(rep, rep.radical, n)
        except LiftHypothesisError as e:
            print(f"hypothesis fails: generator tuple {e.witness} is not in the radical")
            _emit(args, rep, "witness",
                  {"length": n, "witness": list(e.witness), "modulo_radical": True})
            return PROPERTY_FAILS
        print(f"identity of length {n} holds modulo the radical; lifted bound {bound}, verified")
        _emit(args, rep, "verified", {"length": n, "lifted_bound": bound, "modulo_radical": True})
        return OK
    # the span series decides the identity; only a failing one sweeps, to name the witness
    try:
        series = invariant_series_from_identity(rep, n)
    except IdentityFailsError as e:
        print(f"witness: ({' , '.join(e.witness)}) gives a nonzero product")
        _emit(args, rep, "witness", {"length": n, "witness": list(e.witness)})
        return PROPERTY_FAILS
    print(f"identity of length {n} verified on all generator tuples")
    print("invariant series dimensions:", " < ".join(str(s.dim) for s in series.steps))
    _emit(args, rep, "verified", {"length": n, "series": flag_to_payload(series)})
    return OK


def cmd_pi_check(rep, args) -> int:
    if args.max_degree < 2:
        print("--max-degree must be at least 2", file=sys.stderr)
        return USAGE_ERROR
    alg = rep.algebra
    print(f"enveloping algebra dimension: {alg.dim}")
    witnesses, minimal = minimal_standard_degree(alg, args.max_degree)
    for k, combo in witnesses.items():
        print(f"standard identity of degree {k}: witness at basis tuple {combo}")
    payload = {
        "algebra_basis": [matrix_to_rows(b) for b in alg.basis],
        "witnesses": {str(k): list(combo) for k, combo in witnesses.items()},
        "minimal_degree": minimal,
        "max_degree": args.max_degree,
    }
    if minimal is None:
        print(f"no standard identity of degree <= {args.max_degree}")
        _emit(args, rep, "not-found", payload)
        return INCONCLUSIVE
    print(f"standard identity of degree {minimal}: verified")
    print(f"minimal standard identity degree: {minimal}")
    _emit(args, rep, "degree-found", payload)
    return OK


def cmd_unipotent_radical(rep, args) -> int:
    rad = unipotent_radical(rep)
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
            brute = set(brute_force_unipotent_radical(rep, elements=table))
            members = {m for m in table.elements if rad.contains(m)}
            agree = members == brute
            print(f"group order {len(table)}; radical subgroup order {len(brute)}; "
                  + ("oracle agrees" if agree else "ORACLE DISAGREES"))
            if not agree:
                exit_code = PROPERTY_FAILS
        except NotFiniteError as e:
            print(f"inconclusive oracle: {e}", file=sys.stderr)
            exit_code = INCONCLUSIVE
    _emit(args, rep, "report", payload)
    return exit_code


def cmd_probe(rep, args) -> int:
    kind = args.kind
    payload = {"kind": kind, "seed": args.seed}
    if kind == "engel":
        within_step_cap("Engel depth", args.n)
        if args.length_cap > MAX_WORD_LETTERS:  # check-cert could not parse the words
            raise ValueError(f"--length-cap is above the word cap of {MAX_WORD_LETTERS} letters")
        pair = engel_probe(rep, args.n, args.sample_budget, args.length_cap, args.seed)
        payload.update({"depth": args.n, "sample_budget": args.sample_budget,
                        "length_cap": args.length_cap})
        if pair is None:
            print(f"consistent with the depth-{args.n} Engel identity "
                  f"({args.sample_budget} samples; evidence, not proof)")
            _emit(args, rep, "consistent", payload)
            return OK
        payload["counterexample"] = [str(pair[0]), str(pair[1])]
        print(f"counterexample pair: x = '{pair[0]}', y = '{pair[1]}'")
        _emit(args, rep, "counterexample", payload)
        return PROPERTY_FAILS
    # only the nil and algebraic walks start from x: the first generator unless given
    x_text = args.x if args.x is not None else rep.names[0]
    x = evaluate_word(rep, Word.parse(x_text))
    if args.g is None:
        print(f"--g is required for --kind {kind}", file=sys.stderr)
        return USAGE_ERROR
    if kind == "nil":
        within_step_cap("depth cap", args.depth_cap)
        g = evaluate_word(rep, Word.parse(args.g))
        idx = nil_index_probe(g, x, args.depth_cap)
        payload.update({"g": args.g, "x": x_text, "depth_cap": args.depth_cap, "index": idx})
        if idx is None:
            print(f"no vanishing depth up to {args.depth_cap} (inconclusive)")
            _emit(args, rep, "inconclusive", payload)
            return INCONCLUSIVE
        print(f"nil index {idx}")
        _emit(args, rep, "index-found", payload)
        return OK
    # algebraic
    g = evaluate_word(rep, Word.parse(args.g))
    k = algebraic_element_probe(g, x, args.depth_cap, args.element_cap)
    payload.update({"g": args.g, "x": x_text, "depth_cap": args.depth_cap,
                    "element_cap": args.element_cap, "stabilized_at": k})
    if k is None:
        print("no stabilisation within the caps (inconclusive)")
        _emit(args, rep, "inconclusive", payload)
        return INCONCLUSIVE
    print(f"commutator subgroup generators stabilise at depth {k} (evidence, not proof)")
    _emit(args, rep, "stabilized", payload)
    return OK


def cmd_check_cert(rep, args) -> int:
    cert = load_certificate(args.certfile)
    try:
        summary = check_certificate(rep, cert)
    except CertificateError as e:
        print(f"certificate verification FAILED: {e}", file=sys.stderr)
        return PROPERTY_FAILS
    print(summary)
    return OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_ERROR
    try:
        rep = load_representation(args.repfile)
        return args.handler(rep, args)
    # before ValueError: CharacteristicTooSmallError is one
    except (CharacteristicTooSmallError, SweepCapExceeded, CheckInconclusive) as e:
        print(f"inconclusive: {e}", file=sys.stderr)
        return INCONCLUSIVE
    except RecursionError:
        print("inconclusive: recursion limit exceeded", file=sys.stderr)
        return INCONCLUSIVE
    except (ValueError, ArithmeticError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
