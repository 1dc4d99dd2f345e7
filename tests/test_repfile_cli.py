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
from kolchin.cli import main
from kolchin.fields import Field
from kolchin.repfile import representation_from_dict, save_representation
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
    path = str(tmp_path / "out.json")
    save_representation(path, rep)
    from kolchin import load_representation

    assert load_representation(path) == rep


def test_cli_long_identity_check_has_no_traceback(tmp_path, capsys):
    path = tmp_path / "diag.json"
    path.write_text(json.dumps({"field": "Q", "dim": 2, "generators": {"a": [[2, 0], [0, 1]]}}))
    assert main(["identity-check", str(path), "--length", "5000"]) == 2
    assert main(["identity-check", str(path), "--length", "5000",
                 "--lift-through-radical"]) == 2
    assert "Traceback" not in capsys.readouterr().err


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


S3_DOC = {"field": {"Fp": 3}, "dim": 2,
          "generators": {"u": [[1, 1], [0, 1]], "d": [[-1, 0], [0, 1]]}}


def test_cli_malformed_env_cap_is_a_usage_error(heis_file, monkeypatch, capsys):
    monkeypatch.setenv("KOLCHIN_ELEMENT_CAP", "abc")
    assert main(["kolchin", heis_file]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "KOLCHIN_ELEMENT_CAP" in err
    assert "Traceback" not in err


def test_cli_env_caps_are_read_on_every_call(tmp_path, monkeypatch, capsys):
    path = tmp_path / "s3.json"
    path.write_text(json.dumps(S3_DOC))
    argv = ["unipotent-radical", str(path), "--oracle"]
    monkeypatch.delenv("KOLCHIN_ELEMENT_CAP", raising=False)
    assert main(argv) == 0
    monkeypatch.setenv("KOLCHIN_ELEMENT_CAP", "3")  # below the group order 6
    assert main(argv) == 3
    assert main(argv + ["--element-cap", "6"]) == 0
    monkeypatch.delenv("KOLCHIN_ELEMENT_CAP")
    assert main(argv) == 0
    assert "inconclusive oracle" in capsys.readouterr().err


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
