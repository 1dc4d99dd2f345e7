import copy
import json
import random
import time
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest

from kolchin import (
    GF,
    QQ,
    CertificateError,
    Matrix,
    Representation,
    RepFileError,
    check_certificate,
    dumps_representation,
    load_certificate,
    load_representation,
    loads_representation,
    make_certificate,
    representation_digest,
)
from kolchin import algebra, reps, words
from kolchin.cli import main
from kolchin.fields import Field
from kolchin.linalg import Subspace, flat
from kolchin.repfile import matrix_to_rows, representation_from_dict
from kolchin.words import MAX_WORD_LETTERS
from corpus import conjugated_unitriangular_rep, heisenberg

HEIS_DOC = {
    "field": "Q",
    "dim": 3,
    "generators": {
        "a": [[1, 1, 0], [0, 1, 0], [0, 0, 1]],
        "b": [[1, 0, 0], [0, 1, 1], [0, 0, 1]],
    },
}


@pytest.fixture
def heis_file(tmp_path):
    path = tmp_path / "heis.json"
    path.write_text(json.dumps(HEIS_DOC))
    return str(path)


def test_round_trip_bit_exact():
    rng = random.Random(2)
    for rational in (False, True):
        rep = conjugated_unitriangular_rep(rng, 4, 3, rational)
        assert loads_representation(dumps_representation(rep)) == rep
    rep = Representation(GF(7), {"g": Matrix(GF(7), [[1, 3], [0, 5]])})
    assert loads_representation(dumps_representation(rep)) == rep


def test_round_trip_serialisation_idempotent():
    rep = heisenberg()
    text = dumps_representation(rep)
    assert dumps_representation(loads_representation(text)) == text


def test_scalar_strings_and_flat_matrices():
    doc = {
        "field": "Q",
        "dim": 2,
        "generators": {"g": ["1", "-7/2", 0, "1"]},
    }
    rep = representation_from_dict(doc)
    assert rep.generator("g") == Matrix(QQ, [[1, "-7/2"], [0, 1]])


def test_prime_field_scalars_reduced():
    doc = {"field": {"Fp": 5}, "dim": 1, "generators": {"g": [[7]]}}
    rep = representation_from_dict(doc)
    assert rep.generator("g") == Matrix(GF(5), [[2]])


@pytest.mark.parametrize("mutate,message", [
    (lambda d: d.pop("dim"), "missing"),
    (lambda d: d.update(field="R"), "field"),
    (lambda d: d.update(field={"Fp": 4}), "prime"),
    (lambda d: d.update(dim=0), "dim"),
    (lambda d: d.update(generators={}), "generators"),
    (lambda d: d["generators"].update(a=[[1, "1/0", 0], [0, 1, 0], [0, 0, 1]]), "denominator"),
    (lambda d: d["generators"].update(a=[[1, 0], [0, 1]]), "3x3"),
    (lambda d: d["generators"].update(a=[[0, 0, 0], [0, 1, 0], [0, 0, 1]]), "invertible"),
    (lambda d: d.update(dim=True), "dim must be a positive integer, got True"),
    (lambda d: d.update(field={"Fp": True}), "field order must be an integer, got True"),
    (lambda d: d["generators"].update(a=[[1, True, 0], [0, 1, 0], [0, 0, 1]]), "bad scalar True"),
    (lambda d: d["generators"].update({"1": d["generators"]["a"]}), "cannot be spelled"),
    # check-unipotent keys the word a as word:a, next to the generators
    (lambda d: d["generators"].update({"word:a": d["generators"]["a"]}),
     "collide with a word's key"),
])
def test_parse_errors(mutate, message):
    doc = copy.deepcopy(HEIS_DOC)
    mutate(doc)
    with pytest.raises(RepFileError) as info:
        representation_from_dict(doc)
    assert message.lower() in str(info.value).lower()


def test_json_errors_report_position():
    with pytest.raises(RepFileError) as info:
        loads_representation('{"field": "Q",\n  bad}')
    assert "line 2" in str(info.value)


def test_cli_check_unipotent(heis_file, capsys):
    assert main(["check-unipotent", heis_file]) == 0
    out = capsys.readouterr().out
    assert "a: unipotent, index 2" in out
    assert main(["check-unipotent", heis_file, "--element", "a b a^-1 b^-1"]) == 0


def test_cli_check_unipotent_failure(tmp_path):
    path = tmp_path / "diag.json"
    path.write_text(json.dumps({"field": "Q", "dim": 2,
                                "generators": {"d": [[2, 0], [0, 1]]}}))
    assert main(["check-unipotent", str(path)]) == 2


def test_cli_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"field": "Q"')
    assert main(["check-unipotent", str(path)]) == 1
    path.write_text(json.dumps({"field": "Q", "dim": 2,
                                "generators": {"d": [["1/0", 0], [0, 1]]}}))
    assert main(["check-unipotent", str(path)]) == 1
    path.write_text(json.dumps({"field": "Q", "dim": True, "generators": {"d": [[1]]}}))
    assert main(["check-unipotent", str(path)]) == 1


def test_cli_usage_error_exit_code():
    assert main(["kolchin"]) == 1
    assert main(["probe", "whatever.json", "--kind", "nil"]) == 1  # missing file -> parse error


def test_cli_kolchin_certificate(heis_file, tmp_path, capsys):
    cert_path = str(tmp_path / "cert.json")
    assert main(["kolchin", heis_file, "--cert", cert_path]) == 0
    out = capsys.readouterr().out
    assert "degree 3" in out
    assert main(["check-cert", heis_file, cert_path]) == 0
    # identical runs produce byte-identical certificates
    cert_path2 = str(tmp_path / "cert2.json")
    assert main(["kolchin", heis_file, "--cert", cert_path2]) == 0
    with open(cert_path, "rb") as a, open(cert_path2, "rb") as b:
        assert a.read() == b.read()


def test_cli_kolchin_failure_stage(tmp_path, capsys):
    path = tmp_path / "diag.json"
    path.write_text(json.dumps({"field": "Q", "dim": 2,
                                "generators": {"d": [[2, 0], [0, 1]]}}))
    cert = str(tmp_path / "cert.json")
    assert main(["kolchin", str(path), "--cert", cert]) == 2
    assert "stage 2" in capsys.readouterr().out
    assert main(["check-cert", str(path), cert]) == 0


@pytest.mark.parametrize("stage", ["ninety-nine", 0, 99, 1, True])
def test_check_cert_kolchin_stage_must_match_the_chain(stage, tmp_path, capsys):
    path = tmp_path / "diag.json"
    path.write_text(json.dumps({"field": "Q", "dim": 2,
                                "generators": {"d": [[2, 0], [0, 1]]}}))
    cert = str(tmp_path / "cert.json")
    assert main(["kolchin", str(path), "--cert", cert]) == 2
    assert main(["check-cert", str(path), cert]) == 0
    assert "stage 2 verified" in capsys.readouterr().out
    bad = _edited(cert, tmp_path, lambda d: d["payload"].update(stage=stage))
    assert main(["check-cert", str(path), bad]) == 2
    assert "stage" in capsys.readouterr().err


def test_check_cert_kolchin_obstruction_on_a_unipotent_group_rejected(heis_file, tmp_path,
                                                                       capsys):
    # V itself has a zero-dimensional quotient, so it has no fixed vector there
    rep = load_representation(heis_file)
    forged = tmp_path / "forged.json"
    forged.write_text(json.dumps(make_certificate(
        "kolchin", rep, "not-unipotent",
        {"stage": 1, "reached": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]})))
    assert main(["check-cert", heis_file, str(forged)]) == 2
    assert "the group is unipotent" in capsys.readouterr().err


def test_cli_identity_check(heis_file, tmp_path, capsys):
    assert main(["identity-check", heis_file, "--length", "2"]) == 2
    assert "witness" in capsys.readouterr().out
    cert = str(tmp_path / "id.json")
    assert main(["identity-check", heis_file, "--length", "3", "--cert", cert]) == 0
    assert main(["check-cert", heis_file, cert]) == 0
    assert main(["identity-check", heis_file, "--length", "1",
                 "--lift-through-radical", "--cert", cert]) == 0
    assert "lifted bound 3" in capsys.readouterr().out
    assert main(["check-cert", heis_file, cert]) == 0


def test_cli_pi_check(heis_file, tmp_path, capsys):
    cert = str(tmp_path / "pi.json")
    assert main(["pi-check", heis_file, "--max-degree", "6", "--cert", cert]) == 0
    out = capsys.readouterr().out
    assert "dimension: 4" in out
    assert "minimal standard identity degree: 4" in out
    assert main(["check-cert", heis_file, cert]) == 0
    assert main(["pi-check", heis_file, "--max-degree", "2"]) == 3


def test_cli_unipotent_radical(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"field": {"Fp": 3}, "dim": 2, "generators": {
        "u": [[1, 1], [0, 1]], "d": [[-1, 0], [0, 1]]}}))
    cert = str(tmp_path / "rad.json")
    assert main(["unipotent-radical", str(path), "--test", "u", "--oracle",
                 "--cert", cert]) == 0
    out = capsys.readouterr().out
    assert "member" in out and "oracle agrees" in out
    assert main(["check-cert", str(path), cert]) == 0
    assert main(["unipotent-radical", str(path), "--test", "d"]) == 2


def test_cli_unipotent_radical_char_too_small(tmp_path):
    path = tmp_path / "f2.json"
    path.write_text(json.dumps({"field": {"Fp": 2}, "dim": 2,
                                "generators": {"u": [[1, 1], [0, 1]]}}))
    assert main(["unipotent-radical", str(path)]) == 3


@pytest.mark.parametrize("p, code", [(3, 3), (5, 0)])
def test_cli_unipotent_radical_characteristic_guard(p, code, tmp_path):
    # Heisenberg is unipotent for every p, so the augmentation ideal is
    # nilpotent; p <= n stays inconclusive all the same, as check-cert
    # has no radical there
    path = tmp_path / "heis.json"
    path.write_text(json.dumps({**HEIS_DOC, "field": {"Fp": p}}))
    cert = tmp_path / "rad.json"
    assert main(["unipotent-radical", str(path), "--test", "a b", "--cert", str(cert)]) == code
    if code == 3:
        assert not cert.exists()
    else:
        assert main(["check-cert", str(path), str(cert)]) == 0
        doc = json.loads(cert.read_text())
        assert len(doc["payload"]["radical_basis"]) == 3 and doc["payload"]["tests"] == {"a b": True}


def test_cli_probe(heis_file, tmp_path, capsys):
    assert main(["probe", heis_file, "--kind", "engel", "--n", "2"]) == 0
    assert "evidence" in capsys.readouterr().out
    cert = str(tmp_path / "probe.json")
    assert main(["probe", heis_file, "--kind", "engel", "--n", "1", "--cert", cert]) == 2
    assert main(["check-cert", heis_file, cert]) == 0
    assert main(["probe", heis_file, "--kind", "nil", "--g", "a", "--x", "b"]) == 0
    assert "nil index 2" in capsys.readouterr().out
    assert main(["probe", heis_file, "--kind", "nil", "--g", "1"]) == 0
    assert main(["probe", heis_file, "--kind", "algebraic", "--g", "a", "--x", "b",
                 "--element-cap", "500"]) == 0
    assert main(["probe", heis_file, "--kind", "nil"]) == 1  # missing --g


def test_cli_probe_inconclusive(tmp_path):
    path = tmp_path / "mix.json"
    path.write_text(json.dumps({"field": "Q", "dim": 2, "generators": {
        "d": [[2, 0], [0, 1]], "t": [[1, 1], [0, 1]]}}))
    assert main(["probe", str(path), "--kind", "nil", "--g", "d", "--x", "t",
                 "--depth-cap", "5"]) == 3
    assert main(["probe", str(path), "--kind", "algebraic", "--g", "d", "--x", "t",
                 "--depth-cap", "4", "--element-cap", "40"]) == 3


def test_certificate_digest_detects_stale_inputs():
    rep = heisenberg()
    other = Representation(QQ, {"a": rep.generator("a")})
    cert = make_certificate("check-unipotent", rep, "unipotent",
                            {"indices": {"a": 2, "b": 2}})
    with pytest.raises(CertificateError):
        check_certificate(other, cert)
    assert representation_digest(rep) != representation_digest(other)


def test_certificate_tampering_detected(tmp_path):
    rep = heisenberg()
    from kolchin.certificates import flag_to_payload, matrix_to_rows
    from kolchin.reps import kolchin_flag

    cert_obj = kolchin_flag(rep)
    payload = {
        "degree": cert_obj.degree,
        "flag": flag_to_payload(cert_obj.flag),
        "base_change": matrix_to_rows(cert_obj.base_change),
    }
    good = make_certificate("kolchin", rep, "unitriangular", payload)
    assert "verified" in check_certificate(rep, good)

    bad = copy.deepcopy(good)
    bad["payload"]["degree"] = 2
    with pytest.raises(CertificateError):
        check_certificate(rep, bad)

    bad = copy.deepcopy(good)
    bad["payload"]["flag"][1] = [["1", "0", "0"]]  # wrong first step
    with pytest.raises(CertificateError):
        check_certificate(rep, bad)

    bad = copy.deepcopy(good)
    bad["payload"]["base_change"][0] = ["0", "0", "0"]
    with pytest.raises(CertificateError):
        check_certificate(rep, bad)


def test_certificate_invariant_flag_without_drops_rejected():
    # span(e1) is invariant under diag(2, 1), but the factor actions are not trivial
    rep = Representation(QQ, {"d": Matrix(QQ, [[2, 0], [0, 1]])})
    payload = {"degree": 2, "flag": [[], [["1", "0"]], [["1", "0"], ["0", "1"]]],
               "base_change": [["1", "0"], ["0", "1"]]}
    with pytest.raises(CertificateError, match="flag drop fails"):
        check_certificate(rep, make_certificate("kolchin", rep, "unitriangular", payload))


def test_save_and_load(tmp_path):
    rep = heisenberg()
    path = tmp_path / "out.json"
    path.write_text(dumps_representation(rep))
    from kolchin import load_representation

    assert load_representation(str(path)) == rep


def test_cli_long_identity_check_has_no_traceback(tmp_path, capsys):
    path = tmp_path / "diag.json"
    path.write_text(json.dumps({"field": "Q", "dim": 2, "generators": {"a": [[2, 0], [0, 1]]}}))
    # a - 1 is idempotent, so the sweep runs the whole length at the cap
    for lift in ([], ["--lift-through-radical"]):
        assert main(["identity-check", str(path), "--length", "1000", *lift]) == 2
        assert main(["identity-check", str(path), "--length", "5000", *lift]) == 3
    assert "Traceback" not in capsys.readouterr().err


def test_identity_length_above_the_cap_is_inconclusive(tmp_path, capsys):
    # over Q the live product's entries grow at every factor, so without
    # the cap the sweep's time grows faster than the square of the length
    path = tmp_path / "slow.json"
    path.write_text(json.dumps({"field": "Q", "dim": 2,
                                "generators": {"a": [["1/1000003", 0], [0, 1]]}}))
    cert = tmp_path / "cert.json"
    for lift in ([], ["--lift-through-radical"]):
        assert main(["identity-check", str(path), "--length", "1001",
                     "--cert", str(cert), *lift]) == 3
        assert "identity length 1001 is above the cap of 1000 steps" in capsys.readouterr().err
        assert not cert.exists()
        assert main(["identity-check", str(path), "--length", "1000",
                     "--cert", str(cert), *lift]) == 2
        assert main(["check-cert", str(path), str(cert)]) == 0
        cert.unlink()
    capsys.readouterr()


def test_check_cert_identity_witness_above_the_cap_is_inconclusive(tmp_path, capsys):
    cert = str(tmp_path / "witness.json")
    assert main(["identity-check", BOREL, "--length", "3", "--cert", cert]) == 2
    assert main(["check-cert", BOREL, cert]) == 0
    for lift in (False, True):
        long = _edited(cert, tmp_path, lambda d: d["payload"].update(
            length=1001, witness=["a"] * 1001, **({"modulo_radical": True} if lift else {})))
        assert main(["check-cert", BOREL, long]) == 3
        assert "identity length 1001 is above the cap of 1000 steps" in capsys.readouterr().err


def test_cli_maps_arithmetic_recursion_and_os_errors(heis_file, tmp_path, capsys):
    cert = tmp_path / "cert.json"
    assert main(["kolchin", heis_file, "--cert", str(cert)]) == 0
    # a zero denominator inside a certificate payload is a failed check
    doc = json.loads(cert.read_text())
    doc["payload"]["base_change"][0][0] = "1/0"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["check-cert", heis_file, str(bad)]) == 2
    # RecursionError: a certificate nested deeper than the recursion limit
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["check-cert", heis_file, str(deep)]) == 3
    # OSError: a missing certificate, and a certificate path that cannot be written
    assert main(["check-cert", heis_file, str(tmp_path / "missing.json")]) == 1
    assert main(["kolchin", heis_file, "--cert", str(tmp_path / "no-dir" / "c.json")]) == 1
    assert "Traceback" not in capsys.readouterr().err


def test_check_cert_zero_denominator_fails_verification(heis_file, tmp_path, capsys):
    cert = tmp_path / "cert.json"
    assert main(["kolchin", heis_file, "--cert", str(cert)]) == 0
    doc = json.loads(cert.read_text())
    doc["payload"]["base_change"][1][2] = "1/0"
    with pytest.raises(CertificateError):
        check_certificate(heisenberg(), doc)
    cert.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["check-cert", heis_file, str(cert)]) == 2
    err = capsys.readouterr().err
    assert "certificate verification FAILED" in err and "Traceback" not in err


@pytest.mark.parametrize("edit", [
    lambda rows: rows + [[1, 2, 3]],
    lambda rows: [r + [0] for r in rows],
    lambda rows: rows[:-1],
], ids=["extra row", "extra column", "missing row"])
def test_check_cert_kolchin_base_change_must_be_n_by_n(edit, tmp_path, capsys):
    # the golden base change keeps its rows on the flag under the first two
    # edits: only its shape is wrong
    bad = _edited(_golden_cert(GOLDEN_HEIS, "kolchin"), tmp_path, lambda d: d["payload"].update(
        base_change=edit(d["payload"]["base_change"])))
    with pytest.raises(CertificateError):
        check_certificate(load_representation(GOLDEN_HEIS), load_certificate(bad))
    assert main(["check-cert", GOLDEN_HEIS, bad]) == 2
    err = capsys.readouterr().err
    assert "certificate verification FAILED" in err and "Traceback" not in err


def test_cli_identity_check_sweeps_only_a_failing_series(capsys):
    # the span series decides the identity; the tuple sweep runs only to
    # name the witness of a failing one
    lengths = []

    def counted(rep, n):
        lengths.append(n)
        return real(rep, n)

    real = reps.generator_identity_witness
    with mock.patch.object(reps, "generator_identity_witness", counted):
        assert main(["identity-check", GOLDEN_HEIS, "--length", "3"]) == 0
        assert lengths == []
        assert main(["identity-check", GOLDEN_HEIS, "--length", "2"]) == 2
        assert lengths == [2]
    capsys.readouterr()


S3_DOC = {"field": {"Fp": 3}, "dim": 2,
          "generators": {"u": [[1, 1], [0, 1]], "d": [[-1, 0], [0, 1]]}}


def test_cli_element_cap_comes_from_its_flag(tmp_path, capsys):
    path = tmp_path / "s3.json"
    path.write_text(json.dumps(S3_DOC))
    argv = ["unipotent-radical", str(path), "--oracle"]
    assert main(argv + ["--element-cap", "3"]) == 3  # below the group order 6
    assert "inconclusive oracle" in capsys.readouterr().err
    assert main(argv + ["--element-cap", "6"]) == 0
    assert main(argv) == 0


def test_cli_ignores_kolchin_environment_variables(heis_file, monkeypatch, capsys):
    # the caps were once also read from these variables, on every call,
    # so a malformed one failed even check-cert, which reads no cap
    argvs = [["kolchin", heis_file],
             ["check-cert", GOLDEN_HEIS, _golden_cert(GOLDEN_HEIS, "kolchin")],
             ["probe", heis_file, "--kind", "nil", "--g", "b", "--x", "a"]]
    plain = [main(argv) for argv in argvs]
    expected = capsys.readouterr()
    for name in ("DEPTH_CAP", "ELEMENT_CAP", "WORD_LENGTH_CAP", "SAMPLE_BUDGET"):
        monkeypatch.setenv(f"KOLCHIN_{name}", "abc")
    assert [main(argv) for argv in argvs] == plain == [0, 0, 0]
    assert capsys.readouterr() == expected


def test_cli_repeated_options_do_not_leak_between_calls(tmp_path, capsys):
    path = tmp_path / "s3.json"
    path.write_text(json.dumps(S3_DOC))
    assert main(["unipotent-radical", str(path), "--test", "d"]) == 2
    capsys.readouterr()
    assert main(["unipotent-radical", str(path), "--test", "u"]) == 0
    out = capsys.readouterr().out
    assert "word 'u': member" in out and "word 'd'" not in out
    assert main(["unipotent-radical", str(path)]) == 0
    assert "word" not in capsys.readouterr().out


def test_cli_oracle_on_many_conjugacy_classes(tmp_path, capsys):
    # GL(2,5): 24 conjugacy classes, beyond what a search over unions of
    # classes can enumerate
    path = tmp_path / "gl25.json"
    path.write_text(json.dumps({"field": {"Fp": 5}, "dim": 2, "generators": {
        "a": [[2, 0], [0, 1]], "b": [[-1, 1], [-1, 0]]}}))
    assert main(["unipotent-radical", str(path), "--oracle"]) == 0
    out = capsys.readouterr().out
    assert "group order 480; radical subgroup order 1; oracle agrees" in out


def test_cli_oracle_on_gl2_11_in_time(tmp_path, capsys):
    # GL(2,11), order 13,200: the oracle's memory must stay linear in the
    # order (13,200^2 table slots would be about 1.4 GB)
    path = tmp_path / "gl211.json"
    path.write_text(json.dumps({"field": {"Fp": 11}, "dim": 2, "generators": {
        "a": [[2, 0], [0, 1]], "b": [[-1, 1], [-1, 0]]}}))
    start = time.perf_counter()
    assert main(["unipotent-radical", str(path), "--oracle"]) == 0
    assert time.perf_counter() - start < 30
    out = capsys.readouterr().out
    assert "group order 13200; radical subgroup order 1; oracle agrees" in out


def test_cli_large_prime_fields(tmp_path):
    path = tmp_path / "big.json"

    def write(p):
        path.write_text(json.dumps({"field": {"Fp": p}, "dim": 2,
                                    "generators": {"a": [[1, 1], [0, 1]]}}))

    write(2**61 - 1)
    assert main(["kolchin", str(path)]) == 0
    write(2**89 - 1)  # beyond the deterministic primality bound: refused
    assert main(["kolchin", str(path)]) == 1


def _edited(cert_path, tmp_path, edit):
    doc = json.loads(Path(cert_path).read_text())
    edit(doc)
    bad = tmp_path / "edited.json"
    bad.write_text(json.dumps(doc))
    return str(bad)


def test_check_cert_unipotent_result_must_follow_indices(heis_file, tmp_path, capsys):
    mixed = tmp_path / "mixed.json"
    mixed.write_text(json.dumps({"field": "Q", "dim": 2, "generators": {
        "u": [[1, 1], [0, 1]], "d": [[2, 0], [0, 1]]}}))
    cert = str(tmp_path / "cert.json")
    assert main(["check-unipotent", str(mixed), "--cert", cert]) == 2
    assert main(["check-cert", str(mixed), cert]) == 0
    # "unipotent" although the index of d is null
    assert json.loads(Path(cert).read_text())["payload"]["indices"]["d"] is None
    bad = _edited(cert, tmp_path, lambda d: d.update(result="unipotent"))
    assert main(["check-cert", str(mixed), bad]) == 2
    # a generator left out: the rest of the certificate stays consistent
    assert main(["check-unipotent", heis_file, "--cert", cert]) == 0
    bad = _edited(cert, tmp_path, lambda d: d["payload"]["indices"].pop("b"))
    assert main(["check-cert", heis_file, bad]) == 2
    assert "no unipotency index" in capsys.readouterr().err
    # a list where the payload holds a mapping is malformed, not a crash
    bad = _edited(cert, tmp_path, lambda d: d["payload"].update(indices=["a", "b"]))
    assert main(["check-cert", heis_file, bad]) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_check_cert_huge_lifted_bound_stops_at_a_stable_span(heis_file, tmp_path):
    cert = str(tmp_path / "cert.json")
    assert main(["identity-check", heis_file, "--length", "1",
                 "--lift-through-radical", "--cert", cert]) == 0
    bad = _edited(cert, tmp_path, lambda d: d["payload"].update(lifted_bound=10**7))
    start = time.perf_counter()
    assert main(["check-cert", heis_file, bad]) == 0  # V_3 = 0 already
    assert time.perf_counter() - start < 2
    # diag(2, 1) is not unipotent: V_1 = V_2 != 0, so no bound holds
    diag = tmp_path / "diag.json"
    diag.write_text(json.dumps({"field": "Q", "dim": 2, "generators": {"d": [[2, 0], [0, 1]]}}))
    rep = loads_representation(diag.read_text())
    doc = make_certificate("identity-check", rep, "verified",
                           {"length": 1, "lifted_bound": 10**7, "modulo_radical": True})
    bad = tmp_path / "diag-cert.json"
    bad.write_text(json.dumps(doc))
    start = time.perf_counter()
    assert main(["check-cert", str(diag), str(bad)]) == 2
    assert time.perf_counter() - start < 2


def test_check_cert_identity_length_below_the_degree_rejected(heis_file, tmp_path, capsys):
    # the Heisenberg group has degree 3: products of two differences survive
    cert = str(tmp_path / "cert.json")
    assert main(["identity-check", heis_file, "--length", "3", "--cert", cert]) == 0
    assert main(["check-cert", heis_file, cert]) == 0
    bad = _edited(cert, tmp_path, lambda d: d["payload"].update(length=2))
    assert main(["check-cert", heis_file, bad]) == 2
    assert main(["identity-check", heis_file, "--length", "1",
                 "--lift-through-radical", "--cert", cert]) == 0
    bad = _edited(cert, tmp_path, lambda d: d["payload"].update(lifted_bound=2))
    assert main(["check-cert", heis_file, bad]) == 2
    assert "length 2 do not all vanish" in capsys.readouterr().err


GOLDEN_HEIS = str(Path(__file__).parent / "golden" / "heis_frac.json")


@pytest.mark.parametrize("payload, reason", [
    # shorter than the claimed length, which holds at degree 3
    ({"length": 3, "witness": ["a"]}, "exactly 3 generator names"),
    # a string is not a list of names, though it iterates as letters
    ({"length": 3, "witness": "ab"}, "exactly 3 generator names"),
    # a - 1 lies in the radical of a unipotent group's enveloping algebra
    ({"length": 1, "witness": ["a"], "modulo_radical": True}, "lies in the radical"),
    ({"length": True, "witness": ["a"]}, "positive integer"),
    ({"length": 0, "witness": []}, "positive integer"),
])
def test_check_cert_forged_identity_witness_rejected(tmp_path, capsys, payload, reason):
    cert = str(tmp_path / "cert.json")
    assert main(["identity-check", GOLDEN_HEIS, "--length", "3", "--cert", cert]) == 0
    bad = _edited(cert, tmp_path, lambda d: d.update(result="witness", payload=payload))
    assert main(["check-cert", GOLDEN_HEIS, bad]) == 2
    err = capsys.readouterr().err
    assert reason in err and "Traceback" not in err


def test_algebraic_probe_enumerates_a_long_cyclic_group_in_time(capsys):
    # [a, b] is central, so the probe enumerates the infinite cyclic group
    # it generates up to the default element cap: 100,000 elements whose
    # BFS words would average 25,000 letters each
    start = time.perf_counter()
    assert main(["probe", GOLDEN_HEIS, "--kind", "algebraic", "--g", "b", "--x", "a"]) == 0
    assert "stabilise at depth 2" in capsys.readouterr().out
    assert time.perf_counter() - start < 30


def test_check_cert_accepts_cli_identity_witnesses(tmp_path):
    # diag(2, 1) spans a semisimple algebra: d - 1 is outside its zero radical
    diag = tmp_path / "diag.json"
    diag.write_text(json.dumps({"field": "Q", "dim": 2, "generators": {"d": [[2, 0], [0, 1]]}}))
    cert = str(tmp_path / "cert.json")
    for path, args in ((GOLDEN_HEIS, ["--length", "2"]),
                       (str(diag), ["--length", "1"]),
                       (str(diag), ["--length", "1", "--lift-through-radical"])):
        assert main(["identity-check", path, *args, "--cert", cert]) == 2
        assert load_certificate(cert)["result"] == "witness"
        assert main(["check-cert", path, cert]) == 0
    assert load_certificate(cert)["payload"] == {"length": 1, "witness": ["d"],
                                                 "modulo_radical": True}


def test_check_cert_pi_embedding_must_be_the_enveloping_algebra(tmp_path, capsys):
    # diag(2, 1) spans the commutative diagonal algebra, whose minimal degree is 2;
    # the basis of M_2 has witnesses at degrees 2 and 3 and satisfies S_4
    diag = tmp_path / "diag.json"
    diag.write_text(json.dumps({"field": "Q", "dim": 2, "generators": {"d": [[2, 0], [0, 1]]}}))
    cert = str(tmp_path / "cert.json")
    assert main(["pi-check", str(diag), "--max-degree", "4", "--cert", cert]) == 0
    assert main(["check-cert", str(diag), cert]) == 0
    m2 = [[[1, 0], [0, 0]], [[0, 1], [0, 0]], [[0, 0], [1, 0]], [[0, 0], [0, 1]]]
    bad = _edited(cert, tmp_path, lambda d: d["payload"].update(
        algebra_basis=m2, witnesses={"2": [0, 1], "3": [0, 1, 2]}, minimal_degree=4))
    assert main(["check-cert", str(diag), bad]) == 2
    assert "does not span the enveloping algebra" in capsys.readouterr().err


def test_check_cert_pi_needs_a_witness_below_the_claimed_degree(heis_file, tmp_path, capsys):
    cert = str(tmp_path / "cert.json")
    assert main(["pi-check", heis_file, "--max-degree", "6", "--cert", cert]) == 0
    assert main(["check-cert", heis_file, cert]) == 0
    payload = json.loads(Path(cert).read_text())["payload"]
    assert payload["minimal_degree"] == 4 and set(payload["witnesses"]) == {"2", "3"}
    bad = _edited(cert, tmp_path, lambda d: d["payload"]["witnesses"].pop("3"))
    assert main(["check-cert", heis_file, bad]) == 2
    assert "no degree-3 witness" in capsys.readouterr().err
    # a sweep that found nothing needs a witness at its top degree
    assert main(["pi-check", heis_file, "--max-degree", "3", "--cert", cert]) == 3
    assert main(["check-cert", heis_file, cert]) == 0
    bad = _edited(cert, tmp_path, lambda d: d["payload"]["witnesses"].pop("3"))
    assert main(["check-cert", heis_file, bad]) == 2
    # a witness index outside the basis is malformed, not a crash
    bad = _edited(cert, tmp_path, lambda d: d["payload"]["witnesses"].update({"2": [0, 99]}))
    assert main(["check-cert", heis_file, bad]) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_check_cert_radical_must_be_the_whole_trace_form_kernel(heis_file, tmp_path, capsys):
    cert = str(tmp_path / "cert.json")
    assert main(["unipotent-radical", heis_file, "--test", "a", "--cert", cert]) == 0
    assert main(["check-cert", heis_file, cert]) == 0
    # an empty radical is nilpotent and conjugation-stable, and a is then no member
    bad = _edited(cert, tmp_path, lambda d: d["payload"].update(radical_basis=[],
                                                                tests={"a": False}))
    assert main(["check-cert", heis_file, bad]) == 2
    assert "not the trace-form kernel" in capsys.readouterr().err
    # over F_3 with n = 3 the trace form cannot see the radical: no certificate holds
    f3 = tmp_path / "f3.json"
    f3.write_text(json.dumps({**HEIS_DOC, "field": {"Fp": 3}}))
    rep = loads_representation(f3.read_text())
    forged = tmp_path / "f3-cert.json"
    forged.write_text(json.dumps(make_certificate("unipotent-radical", rep, "report",
                                                  {"radical_basis": [], "tests": {}})))
    assert main(["check-cert", str(f3), str(forged)]) == 2
    assert "characteristic 3 <= 3" in capsys.readouterr().err


def test_loading_coerces_each_entry_once():
    path = Path(__file__).parent / "golden" / "heis_frac.json"
    calls = []
    original = Field.of

    def counting(self, value):
        calls.append(value)
        return original(self, value)

    with mock.patch.object(Field, "of", counting):
        rep = load_representation(str(path))
    assert len(calls) == 2 * 3 * 3  # two 3x3 generators
    doc = json.loads(path.read_text())
    assert rep == Representation(QQ, {name: Matrix(QQ, rows)
                                      for name, rows in doc["generators"].items()})
    assert rep.generator("a")[0, 0] == Fraction(97, 93)


BOREL = str(Path(__file__).parent / "golden" / "borel_frac.json")


@pytest.mark.parametrize("path, code, count", [(GOLDEN_HEIS, 0, 1), (BOREL, 2, 0)],
                         ids=["heis", "borel"])
def test_cli_lift_runs_one_power_chain(path, code, count, capsys):
    # Heisenberg's radical is its augmentation ideal, built with no
    # chain, and the lift's read of its index runs one; the Borel group's is
    # the trace-form kernel, built with no chain, and its hypothesis
    # fails at length 1, so the lift never reads its index: no chain
    chains = []

    def counted(a, i):
        chains.append(i.span)
        return real(a, i)

    real = algebra.ideal_power_chain
    with mock.patch.object(algebra, "ideal_power_chain", counted):
        assert main(["identity-check", path, "--length", "1",
                     "--lift-through-radical"]) == code
    assert len(chains) == count
    capsys.readouterr()


def test_cli_unipotent_radical_of_a_unipotent_group_runs_no_power_chain(capsys):
    # Heisenberg's span series ends at 0, so its radical is the
    # augmentation ideal as the algebra's spin recorded it: no chain
    with mock.patch.object(algebra, "ideal_power_chain",
                           side_effect=algebra.ideal_power_chain) as chain:
        assert main(["unipotent-radical", GOLDEN_HEIS]) == 0
    assert chain.call_count == 0
    capsys.readouterr()


def _engel_cert(tmp_path):
    """An Engel counterexample certificate for the Borel group, whose
    walk never repeats: its entries grow without bound."""
    cert = str(tmp_path / "engel.json")
    assert main(["probe", BOREL, "--kind", "engel", "--n", "2", "--cert", cert]) == 2
    return cert


def test_check_cert_engel_depth_must_be_a_positive_int(tmp_path, capsys):
    cert = _engel_cert(tmp_path)
    assert main(["check-cert", BOREL, cert]) == 0
    for depth in (0, -4, True, 1.5, "2"):
        bad = _edited(cert, tmp_path, lambda d: d["payload"].update(depth=depth))
        assert main(["check-cert", BOREL, bad]) == 2
        assert "Engel depth must be a positive integer" in capsys.readouterr().err


def test_check_cert_engel_huge_depth_is_decided_or_capped(tmp_path, heis_file, capsys):
    from kolchin.certificates import ENGEL_CHECK_STEPS

    start = time.perf_counter()
    # over Q the Borel walk neither reaches 1 nor repeats: accepted up to
    # the cap, inconclusive beyond it
    cert = _engel_cert(tmp_path)
    at_cap = _edited(cert, tmp_path, lambda d: d["payload"].update(depth=ENGEL_CHECK_STEPS))
    assert main(["check-cert", BOREL, at_cap]) == 0
    huge = _edited(cert, tmp_path, lambda d: d["payload"].update(depth=10**7))
    assert main(["check-cert", BOREL, huge]) == 3
    assert "neither reaches 1 nor repeats" in capsys.readouterr().err
    # the Heisenberg group has class 2: the walk reaches 1 at step 2
    cert = str(tmp_path / "heis-engel.json")
    assert main(["probe", heis_file, "--kind", "engel", "--n", "1", "--cert", cert]) == 2
    huge = _edited(cert, tmp_path, lambda d: d["payload"].update(depth=10**7))
    assert main(["check-cert", heis_file, huge]) == 2
    assert "claimed Engel counterexample is trivial" in capsys.readouterr().err
    # in S_3, [u, d] = u for the 3-cycle u and the transposition d: the
    # walk repeats at once without reaching 1
    s3 = tmp_path / "s3.json"
    s3.write_text(json.dumps(S3_DOC))
    rep = loads_representation(s3.read_text())
    cycle = tmp_path / "s3-engel.json"
    cycle.write_text(json.dumps(make_certificate("probe", rep, "counterexample", {
        "kind": "engel", "seed": 0, "depth": 10**7, "sample_budget": 1, "length_cap": 1,
        "counterexample": ["u", "d"]}, seed=0)))
    assert main(["check-cert", str(s3), str(cycle)]) == 0
    assert time.perf_counter() - start < 10


def test_cli_engel_probe_depth_is_capped(tmp_path, capsys):
    from kolchin.certificates import ENGEL_CHECK_STEPS

    # over Q the Borel walk neither reaches 1 nor repeats, so a deep probe
    # would run for ever; above the checker's cap it is inconclusive at once
    start = time.perf_counter()
    cert = tmp_path / "deep.json"
    for depth in (ENGEL_CHECK_STEPS + 1, 100000):
        assert main(["probe", BOREL, "--kind", "engel", "--n", str(depth),
                     "--sample-budget", "1", "--cert", str(cert)]) == 3
        assert "above the cap" in capsys.readouterr().err
    assert not cert.exists()
    # at the cap the walk runs, and check-cert verifies its counterexample
    assert main(["probe", BOREL, "--kind", "engel", "--n", str(ENGEL_CHECK_STEPS),
                 "--sample-budget", "1", "--cert", str(cert)]) == 2
    assert main(["check-cert", BOREL, str(cert)]) == 0
    assert time.perf_counter() - start < 10


def test_check_cert_engel_walk_inverts_y_once(tmp_path):
    # from the definition, each step inverts c; y is inverted once
    cert = _engel_cert(tmp_path)
    counts = []
    for depth in (5, 6):
        bad = _edited(cert, tmp_path, lambda d: d["payload"].update(depth=depth))
        with mock.patch.object(Matrix, "inverse", autospec=True,
                               side_effect=Matrix.inverse) as inverse:
            assert main(["check-cert", BOREL, bad]) == 0
        counts.append(inverse.call_count)
    assert counts[1] - counts[0] == 1


@pytest.mark.parametrize("edit, message", [
    ({"index": 7}, "reaches 1 at step 2, before the claimed index 7"),
    ({"index": 1}, "does not reach 1 at the claimed index 1"),
    ({"g": "a"}, "reaches 1 at step 1, before the claimed index 2"),
    ({"index": "many"}, "positive integer no larger than the depth cap"),
    ({"index": 0}, "positive integer no larger than the depth cap"),
    ({"index": True}, "positive integer no larger than the depth cap"),
    ({"index": 2.0}, "positive integer no larger than the depth cap"),
    ({"depth_cap": 1}, "positive integer no larger than the depth cap"),
    ({"depth_cap": "10"}, "positive integer no larger than the depth cap"),
], ids=["late", "early", "other-g", "string", "zero", "bool", "float", "above-cap", "cap-string"])
def test_check_cert_refuses_forged_nil_indices(tmp_path, capsys, edit, message):
    # the Borel group's walk from a under b reaches 1 at step 2; the
    # checker walks it from the definition, not by the probe's steps
    cert = _golden_cert(BOREL, "nil")
    with mock.patch.object(words, "_commutator_step", side_effect=AssertionError):
        assert main(["check-cert", BOREL, cert]) == 0
    bad = _edited(cert, tmp_path, lambda d: d["payload"].update(edit))
    assert main(["check-cert", BOREL, bad]) == 2
    assert message in capsys.readouterr().err


def _inconclusive_nil_cert(tmp_path):
    # over Q the Borel walk from b under a never reaches 1
    cert = tmp_path / "inconclusive.json"
    assert main(["probe", BOREL, "--kind", "nil", "--g", "a", "--x", "b",
                 "--cert", str(cert)]) == 3
    return str(cert)


def test_check_cert_walks_an_inconclusive_nil_probe(tmp_path, capsys):
    from kolchin.certificates import ENGEL_CHECK_STEPS

    cert = _inconclusive_nil_cert(tmp_path)
    assert main(["check-cert", BOREL, cert]) == 0
    assert "no nil index up to the depth cap 10 verified" in capsys.readouterr().out
    # a cap past the checker's steps is walked that far, then inconclusive
    deep = _edited(cert, tmp_path, lambda d: d["payload"].update(depth_cap=ENGEL_CHECK_STEPS + 1))
    assert main(["check-cert", BOREL, deep]) == 3
    assert f"within {ENGEL_CHECK_STEPS} steps" in capsys.readouterr().err


@pytest.mark.parametrize("cap", ["10", 0, True], ids=["string", "zero", "bool"])
def test_check_cert_refuses_inconclusive_nil_caps(tmp_path, capsys, cap):
    bad = _edited(_inconclusive_nil_cert(tmp_path), tmp_path,
                  lambda d: d["payload"].update(depth_cap=cap))
    assert main(["check-cert", BOREL, bad]) == 2
    assert "positive integer depth cap" in capsys.readouterr().err


def test_check_cert_refuses_a_false_inconclusive_nil_claim(tmp_path, capsys):
    # the golden walk from a under b reaches 1 at step 2, within the cap
    def forge(doc):
        doc["result"] = "inconclusive"
        doc["payload"]["index"] = None

    bad = _edited(_golden_cert(BOREL, "nil"), tmp_path, forge)
    assert main(["check-cert", BOREL, bad]) == 2
    assert "reaches 1 at step 2, within the depth cap 10" in capsys.readouterr().err


def test_nil_depth_cap_and_index_are_capped(tmp_path, capsys):
    from kolchin.certificates import ENGEL_CHECK_STEPS

    # over Q the Borel walk from b under a never reaches 1, so a deep
    # probe takes time linear in its cap; above the checker's cap it is
    # inconclusive at once, and so is a certificate claiming such an index
    start = time.perf_counter()
    cert = tmp_path / "deep.json"
    for cap in (ENGEL_CHECK_STEPS + 1, 100000):
        assert main(["probe", BOREL, "--kind", "nil", "--g", "a", "--x", "b",
                     "--depth-cap", str(cap), "--cert", str(cert)]) == 3
        assert "above the cap" in capsys.readouterr().err
    assert not cert.exists()
    assert main(["probe", BOREL, "--kind", "nil", "--g", "a", "--x", "b",
                 "--depth-cap", str(ENGEL_CHECK_STEPS)]) == 3
    assert "no vanishing depth" in capsys.readouterr().out
    deep = ENGEL_CHECK_STEPS + 1
    bad = _edited(_golden_cert(BOREL, "nil"), tmp_path,
                  lambda d: d["payload"].update(index=deep, depth_cap=deep))
    assert main(["check-cert", BOREL, bad]) == 3
    assert "above the cap" in capsys.readouterr().err
    assert time.perf_counter() - start < 10


# -- forgeries that the span checks alone must reject --------------------------------

def _golden_cert(path, label):
    return str(Path(path).with_suffix(f".{label}.cert.json"))


def _radical_forgery(path, kind):
    """A forged radical basis for a golden rep: the golden radical with a
    row dropped, with the identity added, with a diagonal idempotent
    added (Borel), or conjugated away from the group's invariant flag."""
    rep = load_representation(path)
    doc = json.loads(Path(_golden_cert(path, "radical")).read_text())
    rad = [Matrix(QQ, rows, 3) for rows in doc["payload"]["radical_basis"]]
    one = rep.identity()
    if kind == "row dropped":
        return rad[:-1]
    if kind == "identity added":
        return rad + [one]
    if kind == "idempotent added":
        # a has eigenvalues 1, 1 and 1/2, so 4 (a - 1)^2 projects onto the
        # 1/2-eigenline: an idempotent of the algebra, stable under
        # conjugation modulo the radical, which is what makes the forgery
        # conjugation-stable and not nilpotent
        d = rep.generator("a") - one
        e = (d * d).scale(4)
        assert e * e == e and e != one
        forged = rad + [e]
        span = Subspace(QQ, 9, [flat(m) for m in forged])
        assert not any(any(span.reduce(flat(rep.inverse(n) * m * rep.generator(n))))
                       for n in rep.names for m in forged)
        return forged
    q = Matrix(QQ, [[1, 0, 0], [1, 1, 0], [0, 2, 1]])
    forged = [q.inverse() * r * q for r in rad]
    # nilpotent like the radical, of its dimension, and not conjugation-stable
    assert all((x * y * z).is_zero() for x in forged for y in forged for z in forged)
    span = Subspace(QQ, 9, [flat(m) for m in forged])
    assert any(any(span.reduce(flat(rep.inverse(n) * m * rep.generator(n))))
               for n in rep.names for m in forged)
    return forged


@pytest.mark.parametrize("rep, kind", [
    *[("heis_frac", k) for k in ("row dropped", "identity added", "conjugated")],
    *[("borel_frac", k) for k in ("row dropped", "identity added", "idempotent added",
                                  "conjugated")],
])
def test_check_cert_forged_radicals_are_not_the_trace_form_kernel(rep, kind, tmp_path, capsys):
    path = str(Path(BOREL).with_name(f"{rep}.json"))
    forged = [matrix_to_rows(m) for m in _radical_forgery(path, kind)]
    bad = _edited(_golden_cert(path, "radical"), tmp_path,
                  lambda d: d["payload"].update(radical_basis=forged))
    assert main(["check-cert", path, bad]) == 2
    err = capsys.readouterr().err
    assert "not the trace-form kernel" in err and "Traceback" not in err


def _cycle_and_diagonal(tmp_path, n, fixed=0):
    # the (n - fixed)-cycle, fixing the last ``fixed`` coordinates, and
    # diag(1, ..., n) generate M_(n - fixed) plus the diagonal of F^fixed
    c = n - fixed
    path = tmp_path / f"m{c}_{fixed}.json"
    path.write_text(json.dumps({"field": "Q", "dim": n, "generators": {
        "a": [[int(j == ((i + 1) % c if i < c else i)) for j in range(n)] for i in range(n)],
        "b": [[i + 1 if i == j else 0 for j in range(n)] for i in range(n)]}}))
    return str(path)


@pytest.mark.parametrize("n, budget", [(4, 5), (5, 30)])
def test_pi_check_takes_degree_2n_from_amitsur_levitzki(n, budget, tmp_path, capsys):
    # S_2n holds on M_n, so neither pi-check nor check-cert sweeps it
    path, cert = _cycle_and_diagonal(tmp_path, n), str(tmp_path / "pi.json")
    start = time.perf_counter()
    assert main(["pi-check", path, "--max-degree", str(2 * n + 2), "--cert", cert]) == 0
    assert main(["check-cert", path, cert]) == 0
    assert time.perf_counter() - start < budget
    out = capsys.readouterr().out
    assert f"dimension: {n * n}" in out and f"minimal standard identity degree: {2 * n}" in out
    payload = json.loads(Path(cert).read_text())["payload"]
    assert payload["minimal_degree"] == 2 * n
    assert sorted(map(int, payload["witnesses"])) == list(range(2, 2 * n))
    # the degree-(2n - 1) witness is still required
    bad = _edited(cert, tmp_path, lambda d: d["payload"]["witnesses"].pop(str(2 * n - 1)))
    assert main(["check-cert", path, bad]) == 2
    assert f"no degree-{2 * n - 1} witness" in capsys.readouterr().err


def test_pi_sweeps_past_the_sweep_cap_are_inconclusive(tmp_path, capsys):
    # M_5 + F (dimension 26) satisfies S_10 and has 2n = 12, so proving S_10
    # would sweep all C(26, 10) basis subsets: pi-check and the re-sweep of
    # check-cert each stop at the product cap with exit 3
    path, cert = _cycle_and_diagonal(tmp_path, 6, fixed=1), tmp_path / "pi.json"
    start = time.perf_counter()
    assert main(["pi-check", path, "--max-degree", "12", "--cert", str(cert)]) == 3
    assert time.perf_counter() - start < 60
    err = capsys.readouterr().err
    assert "degree-10 standard identity sweep needs more than 2,000,000 products of 6 x 6" in err
    assert not cert.exists()
    # a true claim: the witnesses pi-check --max-degree 9 finds, and S_10
    rep = load_representation(path)
    witnesses = [[0, 1], [0, 1, 5], [0, 1, 2, 5], [0, 1, 2, 5, 10], [0, 1, 2, 3, 5, 10],
                 [0, 1, 2, 3, 5, 10, 15], [0, 1, 2, 3, 4, 5, 10, 15],
                 [0, 1, 2, 3, 4, 5, 10, 15, 20]]
    cert.write_text(json.dumps(make_certificate("pi-check", rep, "degree-found", {
        "algebra_basis": [matrix_to_rows(b) for b in rep.algebra.basis],
        "witnesses": {str(len(w)): w for w in witnesses},
        "minimal_degree": 10, "max_degree": 12})))
    start = time.perf_counter()
    assert main(["check-cert", path, str(cert)]) == 3
    assert time.perf_counter() - start < 60
    assert "inconclusive: the degree-10 standard identity sweep" in capsys.readouterr().err


@pytest.mark.parametrize("products", [0, 5])
def test_sweep_cap_cuts_pi_check_and_its_checker(products, capsys):
    # Heisenberg's sweeps and its golden certificate's witnesses and
    # re-sweep take a few dozen 3 x 3 products (27 each): cut at a tiny
    # cap, all exit 3
    with mock.patch.object(algebra, "SWEEP_WORK_CAP", products * 27 + 26):
        assert main(["pi-check", GOLDEN_HEIS, "--max-degree", "6"]) == 3
        assert main(["check-cert", GOLDEN_HEIS, _golden_cert(GOLDEN_HEIS, "pi")]) == 3
    err = capsys.readouterr().err
    assert err.count(f"needs more than {products:,} products of 3 x 3") == 2
    assert "Traceback" not in err


def test_check_cert_pi_degree_below_the_true_one_fails_a_resweep(tmp_path, capsys):
    # Heisenberg satisfies S_4 and has a degree-2 witness, but S_3 fails
    bad = _edited(_golden_cert(GOLDEN_HEIS, "pi"), tmp_path,
                  lambda d: d["payload"].update(minimal_degree=3))
    assert main(["check-cert", GOLDEN_HEIS, bad]) == 2
    assert "fails a re-sweep" in capsys.readouterr().err


@pytest.mark.parametrize("k, combo, reason", [
    ("13", [0] * 13, "not below 2n"),
    ("6", [0, 1, 2, 3, 4, 5], "not below 2n"),
    ("5", [0] * 5, "must strictly increase"),
    ("3", [2, 1, 0], "must strictly increase"),
    ("2", [-1, 0], "must strictly increase"),
    ("2", [0, True], "must strictly increase"),
])
def test_check_cert_pi_forged_witness_rejected_at_once(k, combo, reason, tmp_path, capsys):
    # basis[0] is 1, so [0] * k would cost k! orderings to evaluate
    bad = _edited(_golden_cert(GOLDEN_HEIS, "pi"), tmp_path,
                  lambda d: d["payload"]["witnesses"].update({k: combo}))
    start = time.perf_counter()
    assert main(["check-cert", GOLDEN_HEIS, bad]) == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert reason in err and "Traceback" not in err


def test_cli_word_and_sampler_caps_exit_without_traceback(tmp_path, capsys):
    huge = "a^10000000000"  # refused before its letters are allocated
    assert main(["unipotent-radical", GOLDEN_HEIS, "--test", huge]) == 1
    bad = _edited(_golden_cert(GOLDEN_HEIS, "radical"), tmp_path,
                  lambda d: d["payload"]["tests"].update({huge: True}))
    assert main(["check-cert", GOLDEN_HEIS, bad]) == 2
    err = capsys.readouterr().err
    assert err.count(f"more than {MAX_WORD_LETTERS} letters") == 2
    for opts in (["--sample-budget", "0"], ["--sample-budget", "-3"], ["--length-cap", "0"],
                 ["--length-cap", str(MAX_WORD_LETTERS + 1)]):
        assert main(["probe", BOREL, "--kind", "engel", "--n", "2", *opts]) == 1
    err = capsys.readouterr().err
    assert err.count("must be at least 1") == 3 and "above the word cap" in err
    assert "Traceback" not in err


# -- input rules, each with one owner ----------------------------------------------

def test_cli_refuses_a_generator_named_1(tmp_path, capsys):
    # the default --x (the first generator) was read as the identity
    # word, and a nil index of 1 was certified
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"field": "Q", "dim": 2, "generators": {
        "1": [[1, 1], [0, 1]], "b": [[2, 0], [0, 1]]}}))
    assert main(["probe", str(path), "--kind", "nil", "--g", "b"]) == 1
    err = capsys.readouterr().err
    assert "cannot be spelled" in err and "Traceback" not in err


def _first_one_to_true(rows) -> bool:
    """Replace the first entry 1 of nested rows by true, in place."""
    for i, x in enumerate(rows):
        if isinstance(x, list):
            if _first_one_to_true(x):
                return True
        elif type(x) is int and x == 1:
            rows[i] = True
            return True
    return False


@pytest.mark.parametrize("label, select", [
    ("kolchin", lambda payload: payload["flag"][1]),
    ("kolchin", lambda payload: payload["base_change"]),
    ("pi", lambda payload: payload["algebra_basis"][0]),
    ("radical", lambda payload: payload["radical_basis"][0]),
], ids=["flag", "base-change", "algebra-basis", "radical-basis"])
@pytest.mark.parametrize("edit", ["true", "wide"])
def test_check_cert_refuses_bool_entries_and_wrong_widths(label, select, edit, tmp_path, capsys):
    # a true entry read as 1 before the field refused bools; a row one
    # entry too wide is refused by Matrix, as every row is
    def apply(doc):
        rows = select(doc["payload"])
        if edit == "wide":
            for row in rows:
                row.append(0)
        else:
            assert _first_one_to_true(rows)

    bad = _edited(_golden_cert(GOLDEN_HEIS, label), tmp_path, apply)
    assert main(["check-cert", GOLDEN_HEIS, bad]) == 2
    err = capsys.readouterr().err
    assert "malformed certificate payload" in err and "Traceback" not in err


def _vacuous_pi(payload):
    # "no identity of degree <= 1": there is nothing to sweep and no
    # witness to show, and pi-check, which starts at 2, never writes it
    payload.update(minimal_degree=None, max_degree=1, witnesses={})


@pytest.mark.parametrize("label, edit, message", [
    ("unipotent", lambda p: p["indices"].update(a=2.0),
     "unipotency index of 'a' must be a positive integer or null"),
    ("kolchin", lambda p: p.update(degree=3.0), "degree must be a nonnegative integer"),
    ("radical", lambda p: p["tests"].update({"a b": 1}),
     "membership verdict for word 'a b' is not a bool"),
    ("pi", lambda p: p.update(max_degree=4.0), "pi-check degrees must be integers of at least 2"),
    ("pi", _vacuous_pi, "pi-check degrees must be integers of at least 2"),
], ids=["unipotent-index-2.0", "kolchin-degree-3.0", "radical-verdict-1", "pi-max-degree-4.0",
        "pi-max-degree-1"])
def test_check_cert_refuses_retyped_payload_fields(label, edit, message, tmp_path, capsys):
    # each number is right, or (max_degree 1) claims nothing: a float, or
    # 1 for true, was read as the int it equals, and each edit verified
    def apply(doc):
        edit(doc["payload"])
        if label == "pi" and doc["payload"]["minimal_degree"] is None:
            doc["result"] = "not-found"

    bad = _edited(_golden_cert(GOLDEN_HEIS, label), tmp_path, apply)
    assert main(["check-cert", GOLDEN_HEIS, bad]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("path, label, result, kind", [
    (GOLDEN_HEIS, "engel", "proved", None),
    (GOLDEN_HEIS, "engel", "consistent", "nil"),
    (GOLDEN_HEIS, "engel", "stabilized", "nil"),
    (GOLDEN_HEIS, "engel", "holds", "bogus"),
    (GOLDEN_HEIS, "radical", "all-members", None),
    (BOREL, "radical", "all-members", None),
], ids=["engel-proved", "nil-consistent", "nil-stabilized", "bogus-holds",
        "heis-radical-all-members", "borel-radical-all-members"])
def test_check_cert_refuses_result_kinds_no_command_writes(path, label, result, kind, tmp_path,
                                                           capsys):
    # each was accepted: an unknown probe outcome as evidence, and the
    # radical checker never read the result
    def apply(doc):
        doc["result"] = result
        if kind:
            doc["payload"]["kind"] = kind

    bad = _edited(_golden_cert(path, label), tmp_path, apply)
    assert main(["check-cert", path, bad]) == 2
    err = capsys.readouterr().err
    assert "unknown result kind" in err and "Traceback" not in err


MIX_DOC = {"field": "Q", "dim": 2, "generators": {"d": [[2, 0], [0, 1]], "t": [[1, 1], [0, 1]]}}


@pytest.mark.parametrize("result, key, value", [
    ("consistent", "depth", "abc"),
    ("consistent", "depth", 0),
    ("consistent", "sample_budget", -1),
    ("consistent", "length_cap", None),
    ("stabilized", "depth_cap", 0),
    ("stabilized", "element_cap", "100"),
    ("stabilized", "stabilized_at", 0),
    ("stabilized", "stabilized_at", 11),
    ("stabilized", "stabilized_at", None),
    ("inconclusive", "depth_cap", True),
    ("inconclusive", "element_cap", 0),
    ("inconclusive", "stabilized_at", 2),
])
def test_check_cert_reads_the_payload_of_an_evidence_only_probe(result, key, value, tmp_path,
                                                                 capsys):
    # each was accepted as evidence without its payload being read:
    # probe refuses these values, so it never writes them
    if result == "consistent":
        path, cert = GOLDEN_HEIS, _golden_cert(GOLDEN_HEIS, "engel")
    else:
        doc, opts = ((S3_DOC, ["--g", "d", "--x", "u"]) if result == "stabilized" else
                     (MIX_DOC, ["--g", "d", "--x", "t", "--depth-cap", "4", "--element-cap", "40"]))
        path, cert = str(tmp_path / "rep.json"), str(tmp_path / "probe.json")
        Path(path).write_text(json.dumps(doc))
        main(["probe", path, "--kind", "algebraic", *opts, "--cert", cert])
    assert json.loads(Path(cert).read_text())["result"] == result
    assert main(["check-cert", path, cert]) == 0
    bad = _edited(cert, tmp_path, lambda doc: doc["payload"].update({key: value}))
    capsys.readouterr()
    assert main(["check-cert", path, bad]) == 2
    err = capsys.readouterr().err
    assert "certificate verification FAILED" in err and "Traceback" not in err


@pytest.mark.parametrize("edit, message", [
    (lambda payload: payload.update(sample_budget=0), "Engel sample_budget must be a positive"),
    (lambda payload: payload.update(length_cap="abc"), "Engel length_cap must be a positive"),
    (lambda payload: payload["counterexample"].append("a"), "is not two words"),
], ids=["zero-budget", "string-length-cap", "third-word"])
def test_check_cert_reads_the_envelope_of_an_engel_counterexample(edit, message, tmp_path,
                                                                  capsys):
    # each was accepted: the envelope was read only on a consistent
    # report, and only the first two words of a counterexample
    cert = _golden_cert(BOREL, "engel")
    assert main(["check-cert", BOREL, cert]) == 0
    bad = _edited(cert, tmp_path, lambda doc: edit(doc["payload"]))
    assert main(["check-cert", BOREL, bad]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("top", [2, 3])
def test_check_cert_refuses_a_minimal_degree_above_the_max_degree(top, tmp_path, capsys):
    # pi-check sweeps up to its max degree, so it never writes a larger
    # minimal degree; the golden degree 4 under a smaller max was accepted
    bad = _edited(_golden_cert(BOREL, "pi"), tmp_path,
                  lambda doc: doc["payload"].update(max_degree=top))
    assert main(["check-cert", BOREL, bad]) == 2
    err = capsys.readouterr().err
    assert f"minimal degree 4 is above the max degree {top}" in err and "Traceback" not in err


@pytest.mark.parametrize("cap, code", [(3, 2), (4, 0)])
def test_check_cert_holds_engel_counterexample_words_to_the_length_cap(cap, code, tmp_path,
                                                                        capsys):
    # probe samples words of at most --length-cap letters, and the golden
    # words have 4: under a cap of 3 they were accepted
    bad = _edited(_golden_cert(BOREL, "engel"), tmp_path,
                  lambda doc: doc["payload"].update(length_cap=cap))
    assert main(["check-cert", BOREL, bad]) == code
    err = capsys.readouterr().err
    assert ("longer than the length cap 3" in err) == (code == 2) and "Traceback" not in err


@pytest.mark.parametrize("key, combo", [("3", [0, 1, 2]), ("1", [0]), ("02", [1, 2])],
                         ids=["above-max-degree", "degree-1", "second-spelling"])
def test_check_cert_refuses_a_pi_witness_that_pi_check_never_writes(key, combo, tmp_path,
                                                                     capsys):
    # pi-check --max-degree 2 writes one witness, keyed "2"; each of
    # these true witnesses beside it was accepted
    cert = str(tmp_path / "cert.json")
    assert main(["pi-check", BOREL, "--max-degree", "2", "--cert", cert]) == 3
    assert main(["check-cert", BOREL, cert]) == 0
    bad = _edited(cert, tmp_path, lambda doc: doc["payload"]["witnesses"].update({key: combo}))
    assert main(["check-cert", BOREL, bad]) == 2
    err = capsys.readouterr().err
    assert f"degree-{key} witness is not at a degree from 2 to the max degree 2" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("path, label, seed, payload_seed, code", [
    (GOLDEN_HEIS, "engel", 3, 3, 0),
    (GOLDEN_HEIS, "engel", 7, 999, 2),
    (GOLDEN_HEIS, "engel", 1, True, 2),
    (GOLDEN_HEIS, "engel", True, 1, 2),
    (BOREL, "nil", 0, 1, 2),
], ids=["golden", "mismatch", "bool-payload-seed", "bool-seed", "nil-mismatch"])
def test_check_cert_requires_the_two_probe_seeds_to_agree(path, label, seed, payload_seed,
                                                         code, tmp_path, capsys):
    # probe writes its --seed into the certificate and into the payload;
    # two different seeds, or a bool for either, were accepted
    def apply(doc):
        doc["seed"], doc["payload"]["seed"] = seed, payload_seed

    assert main(["check-cert", path, _edited(_golden_cert(path, label), tmp_path, apply)]) == code
    err = capsys.readouterr().err
    assert ("probe seeds must be one JSON integer" in err) == (code == 2)
    assert "Traceback" not in err


@pytest.mark.parametrize("edit, code, message", [
    (lambda doc: None, 0, None),
    (lambda doc: doc.update(version="9.9"), 0, None),
    (lambda doc: doc.update(seed=5), 2, "a kolchin certificate has no seed"),
    (lambda doc: doc.update(version=9.9), 2, "certificate version must be a string"),
    (lambda doc: doc.update(extra=1), 2, "certificate keys must be exactly"),
    (lambda doc: doc.pop("version"), 2, "certificate keys must be exactly"),
    (lambda doc: doc.pop("seed"), 2, "certificate keys must be exactly"),
], ids=["golden", "version-string", "seed-5", "version-float", "extra-key", "no-version",
        "no-seed"])
def test_check_cert_reads_the_whole_envelope(edit, code, message, tmp_path, capsys):
    # check-cert read only the format, digest, command, result and
    # payload of a kolchin certificate: each forged envelope verified
    bad = _edited(_golden_cert(GOLDEN_HEIS, "kolchin"), tmp_path, edit)
    assert main(["check-cert", GOLDEN_HEIS, bad]) == code
    err = capsys.readouterr().err
    assert (message is None or message in err) and "Traceback" not in err


def test_check_cert_refuses_an_oracle_order_in_a_radical_report(tmp_path, capsys):
    # --oracle prints the group and radical orders but writes neither, so
    # a forged oracle_order (999 for a radical subgroup of order 3, or for
    # the infinite Heisenberg group) is a payload key no command writes
    path = tmp_path / "s3.json"
    path.write_text(json.dumps(S3_DOC))
    cert = str(tmp_path / "rad.json")
    assert main(["unipotent-radical", str(path), "--oracle", "--cert", cert]) == 0
    assert "radical subgroup order 3; oracle agrees" in capsys.readouterr().out
    assert set(json.loads(Path(cert).read_text())["payload"]) == {"radical_basis", "tests"}
    assert main(["check-cert", str(path), cert]) == 0
    for rep, written in ((str(path), cert), (GOLDEN_HEIS, _golden_cert(GOLDEN_HEIS, "radical"))):
        forged = _edited(written, tmp_path, lambda doc: doc["payload"].update(oracle_order=999))
        assert main(["check-cert", rep, forged]) == 2
        err = capsys.readouterr().err
        assert "unknown radical payload keys ['oracle_order']" in err
        assert "Traceback" not in err


def test_an_empty_exponent_is_a_malformed_word(capsys):
    # "a^" was read as the word a, and its index 2 was reported
    assert main(["check-unipotent", GOLDEN_HEIS, "--element", "a^"]) == 1
    captured = capsys.readouterr()
    assert "malformed exponent in token 'a^'" in captured.err
    assert "word 'a^'" not in captured.out


def test_only_the_walks_that_start_from_x_read_it(capsys):
    # the Engel sampler draws both of its elements and never reads --x
    assert main(["probe", GOLDEN_HEIS, "--kind", "engel", "--x", "zz", "--n", "2",
                 "--sample-budget", "5"]) == 0
    assert "unknown generator" not in capsys.readouterr().err
    for kind in ("nil", "algebraic"):
        assert main(["probe", GOLDEN_HEIS, "--kind", kind, "--g", "b", "--x", "zz"]) == 1
        assert "unknown generator 'zz'" in capsys.readouterr().err


# -- branches no other test reaches ------------------------------------------------

def test_cli_usage_exits_of_the_commands(heis_file, capsys):
    assert main(["identity-check", heis_file, "--length", "0"]) == 1
    assert main(["pi-check", heis_file, "--max-degree", "1"]) == 1
    assert main(["probe", heis_file, "--kind", "algebraic"]) == 1
    err = capsys.readouterr().err
    assert "--length must be at least 1" in err
    assert "--max-degree must be at least 2" in err
    assert "--g is required for --kind algebraic" in err


def test_cli_lift_through_radical_in_small_characteristic_is_inconclusive(tmp_path, capsys):
    path = tmp_path / "f2.json"
    path.write_text(json.dumps({"field": {"Fp": 2}, "dim": 2,
                                "generators": {"u": [[1, 1], [0, 1]]}}))
    cert = tmp_path / "lift.json"
    assert main(["identity-check", str(path), "--length", "2", "--lift-through-radical",
                 "--cert", str(cert)]) == 3
    assert "inconclusive: characteristic 2" in capsys.readouterr().err
    assert not cert.exists()


def test_algebraic_probe_stabilises_by_membership(tmp_path, capsys):
    # over F_3, [u, d] = u, so the depth-2 commutator is u again: not 1,
    # but already in the subgroup the depth-1 commutator generates
    rep = representation_from_dict(S3_DOC)
    u, d = rep.generator("u"), rep.generator("d")
    c1 = u.inverse() * d.inverse() * u * d
    assert c1 == u and c1.inverse() * d.inverse() * c1 * d == c1
    path = tmp_path / "s3.json"
    path.write_text(json.dumps(S3_DOC))
    cert = str(tmp_path / "alg.json")
    assert main(["probe", str(path), "--kind", "algebraic", "--g", "d", "--x", "u",
                 "--cert", cert]) == 0
    assert "stabilise at depth 2" in capsys.readouterr().out
    assert json.loads(Path(cert).read_text())["payload"]["stabilized_at"] == 2
    assert main(["check-cert", str(path), cert]) == 0
