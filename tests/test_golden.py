"""Certificates stay byte-identical across changes to the arithmetic.

``golden/`` holds two rational representations with fraction entries
and the certificate each command wrote for them: the first five before
matrices were stored as integer rows over a common denominator, and
the two probe certificates (seeded Engel samples and a nil index)
before the commutator walks took conjugate-form steps, and the lifted
identity bounds (they read the radical's nilpotency index) before the
ideal closure and the power chain became right spins.
"""

import shlex
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
    "engel": ["probe", "--kind", "engel", "--n", "3", "--sample-budget", "40", "--seed", "3"],
    "nil": ["probe", "--kind", "nil", "--g", "b", "--x", "a"],
    "lift": ["identity-check", "--length", "2", "--lift-through-radical"],
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


def test_ci_smoke_runs_every_command_with_its_arguments():
    # the CI smoke job runs each command as a process and compares its
    # certificate with the same golden file
    workflow = (Path(__file__).parents[1] / ".github" / "workflows" / "tests.yml").read_text()
    for label, argv in COMMANDS.items():
        assert f"{label}) args=({shlex.join(argv)}) ;;" in workflow
    assert f"for label in {' '.join(COMMANDS)}; do" in workflow
