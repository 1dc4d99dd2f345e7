"""One timed instance of each workload, with its answer checks.

Each ``run_*`` function takes the imported package ``K``, the loaded
representation, the generated instance and a scratch directory, makes
the library or CLI calls the workload stands for, and returns None when
every answer matches the one the generator derived, else a short
reason.  Library functions are looked up on ``K`` at call time so that
the tracer's wrappers are used when tracing is on.
"""

from __future__ import annotations

import contextlib
import io
import os
import re

import exact

KALOUJNINE_BUDGET = 120
ENGEL_BUDGET = 12
WORD_LENGTH_CAP = 8


def _unitri_certificate(K, rep, res):
    """The certificate ``kolchin --cert`` writes for this result."""
    C = K.certificates
    if isinstance(res, K.NotUnipotent):
        return C.make_certificate("kolchin", rep, "not-unipotent", {
            "stage": res.stage, "reached": C.subspace_to_rows(res.reached)})
    return C.make_certificate("kolchin", rep, "unitriangular", {
        "degree": res.degree,
        "flag": C.flag_to_payload(res.flag),
        "base_change": C.matrix_to_rows(res.base_change),
    })


def run_structure(K, rep, inst, workdir):
    """The library calls behind ``kolchin``, ``identity-check`` and
    ``unipotent-radical``."""
    want = inst.expect
    res = K.kolchin_flag(rep)
    K.check_certificate(rep, _unitri_certificate(K, rep, res))
    if isinstance(res, K.NotUnipotent) == want["unipotent"]:
        return "kolchin_flag got unipotency wrong"
    degree = K.unitriangular_degree(rep)
    if degree != want["degree"]:
        return f"unitriangular_degree {degree}, expected {want['degree']}"
    if want["unipotent"]:
        if res.degree != degree:
            return f"flag degree {res.degree} != unitriangular_degree {degree}"
        if K.generator_identity_witness(rep, degree) is not None:
            return "identity witness at the unitriangular degree"
        K.invariant_series_from_identity(rep, degree)
    elif K.generator_identity_witness(rep, inst.n) is None:
        return "no identity witness on a non-unipotent group"
    rad = K.unipotent_radical(rep)
    for name, member in want["members"].items():
        if rad.contains(rep.generator(name)) != member:
            return f"radical membership of {name} wrong"
    return None


def _word_matrix(inst, letters):
    invs = inst.expect["inverses"]
    acc = exact.identity(inst.n)
    for name, e in letters:
        acc = exact.mul(acc, inst.gens[name] if e == 1 else invs[name])
    return acc


def _word_pair(inst, w):
    return _word_matrix(inst, w.letters), _word_matrix(inst, w.inverse().letters)


def _left_normed_is_trivial(pairs) -> bool:
    c, ci = pairs[0]
    for g, gi in pairs[1:]:
        c, ci = exact.commutator(c, ci, g, gi)
    return exact.is_identity(c)


def run_sampling(K, rep, inst, workdir):
    """Kaloujnine check at the known degree and the Engel probe at depth n."""
    want = inst.expect
    seed = want["sample_seed"]
    witness = K.kaloujnine_class_check(rep, want["degree"], sample_budget=KALOUJNINE_BUDGET,
                                       word_length_cap=WORD_LENGTH_CAP, seed=seed)
    pair = K.engel_probe(rep, inst.n, sample_budget=ENGEL_BUDGET,
                         length_cap=WORD_LENGTH_CAP, seed=seed)
    if want["unipotent"] and (witness is not None or pair is not None):
        return "sampler witness on a unipotent group"
    if witness is not None and _left_normed_is_trivial([_word_pair(inst, w) for w in witness]):
        return "Kaloujnine witness recomputes to the identity"
    if pair is not None:
        x, y = _word_pair(inst, pair[0]), _word_pair(inst, pair[1])
        if _left_normed_is_trivial([x] + [y] * inst.n):
            return "Engel witness recomputes to the identity"
    return None


def _cli(K, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = K.cli.main(argv)
    return code, out.getvalue()


_ORDER = re.compile(r"group order (\d+); radical subgroup order \d+; oracle agrees")


def run_finite_cli(K, rep, inst, workdir):
    """Four certified CLI commands, each followed by ``check-cert``."""
    want = inst.expect
    holds = 0 if want["p_group"] else 2
    cert = os.path.join(workdir, "cert.json")
    path = inst.path
    commands = (
        (["unipotent-radical", path, "--oracle"], 0),
        (["kolchin", path], holds),
        (["identity-check", path, "--length", "3"], holds),
        (["pi-check", path, "--max-degree", "6"], 0),
    )
    for argv, expected in commands:
        code, out = _cli(K, argv + ["--cert", cert])
        if code != expected:
            return f"{argv[0]} exited {code}, expected {expected}"
        if argv[0] == "unipotent-radical":
            m = _ORDER.search(out)
            if m is None or int(m.group(1)) != want["order"]:
                return f"oracle disagrees or group order is not {want['order']}"
        code, _ = _cli(K, ["check-cert", path, cert])
        if code != 0:
            return f"check-cert rejected the {argv[0]} certificate"
    return None


RUNNERS = {
    "structure-q": run_structure,
    "sampling-q": run_sampling,
    "finite-fp-cli": run_finite_cli,
}
