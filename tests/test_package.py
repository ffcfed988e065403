"""Package surface: every exported name resolves, and layers load on demand."""

import os
import subprocess
import sys

import pytest

import eaqec


def test_every_exported_name_resolves():
    namespace = {}
    exec("from eaqec import *", namespace)
    for name in eaqec.__all__:
        assert namespace[name] is getattr(eaqec, name)
    assert set(eaqec.__all__) <= set(dir(eaqec))


def test_importing_one_layer_leaves_the_others_unloaded():
    probe = (
        "import sys, eaqec.gf; "
        "print(sorted(m for m in sys.modules if m.startswith('eaqec')))"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(eaqec.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env
    ).stdout
    assert out.strip() == "['eaqec', 'eaqec.errors', 'eaqec.gf', 'eaqec.primes']"


# Runs cli.main(argv) in a fresh interpreter; prints the exit code and
# whether numpy got loaded.
CLI_PROBE = (
    "import contextlib, io, sys, eaqec.cli\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    code = eaqec.cli.main(sys.argv[1:])\n"
    "print(code, 'numpy' in sys.modules)"
)


def run_cli_probe(argv):
    src = os.path.dirname(os.path.dirname(os.path.abspath(eaqec.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-c", CLI_PROBE, *argv],
        capture_output=True, text=True, check=True, env=env,
    ).stdout.split()


@pytest.mark.parametrize(
    "argv",
    [
        ["concat", "--inner", "4,2,2,0,2", "--outer", "25,13,12,12,4"],
        ["extend", "--inner", "4,2,2,0,2", "--outer", "25,13,12,12,4", "--t", "2"],
        ["expurgate", "--inner", "4,2,2,0,2", "--outer", "25,13,12,12,4", "--t", "3"],
        ["audit", "--allow-known"],
        ["bounds", "--family", "C5", "--m-range", "4..8"],
        ["gv", "--spec", "4,2,8,4", "--delta", "0.3"],
    ],
    ids=lambda argv: argv[0],
)
def test_parameter_subcommands_do_not_load_numpy(argv):
    assert run_cli_probe(argv) == ["0", "False"]


def test_matrix_subcommand_loads_numpy(tmp_path):
    # the probe above would pass vacuously if it could never see numpy
    path = tmp_path / "hamming.txt"
    path.write_text("q 2 poly 0,1\n1 0 1 0 1 0 1\n0 1 1 0 0 1 1\n0 0 0 1 1 1 1\n")
    assert run_cli_probe(["mindist", "--code", str(path)]) == ["0", "True"]
