"""Certificates stay byte-identical across changes to the arithmetic.

``golden/`` holds two rational representations with fraction entries
and the certificate each command wrote for them before matrices were
stored as integer rows over a common denominator.
"""

from pathlib import Path

import pytest

from kolchin.cli import main

GOLDEN = Path(__file__).parent / "golden"
COMMANDS = {
    "kolchin": ["kolchin"],
    "identity": ["identity-check", "--length", "3"],
    "pi": ["pi-check", "--max-degree", "4"],
    "radical": ["unipotent-radical", "--test", "a b", "--test", "b a^-1 b"],
    "unipotent": ["check-unipotent", "--element", "a b^-1"],
}


@pytest.mark.parametrize("rep", ["heis_frac", "borel_frac"])
@pytest.mark.parametrize("label", sorted(COMMANDS))
def test_certificates_match_golden_files(rep, label, tmp_path, capsys):
    repfile = str(GOLDEN / f"{rep}.json")
    cert = tmp_path / "cert.json"
    argv = COMMANDS[label]
    main([argv[0], repfile] + argv[1:] + ["--cert", str(cert)])
    assert cert.read_bytes() == (GOLDEN / f"{rep}.{label}.cert.json").read_bytes()
    assert main(["check-cert", repfile, str(cert)]) == 0
