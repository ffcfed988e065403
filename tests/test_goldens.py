"""The benchmark's CLI goldens, run in process: exit code and stdout byte for byte.

bench/goldens/cli.json records every scripted `eaqec` call of the benchmark's
cli workload. The matrix files those calls read come from bench/inputs.py and
are written under tmp_path here; nothing under bench/ is written.
"""

import json
import sys
from pathlib import Path

import pytest

from eaqec.cli import main

BENCH = Path(__file__).resolve().parent.parent / "bench"
GOLDENS = json.loads((BENCH / "goldens" / "cli.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def bench_inputs():
    # bench/ holds no package; import its modules without writing bytecode there
    sys.path.insert(0, str(BENCH))
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        import inputs
    finally:
        sys.path.remove(str(BENCH))
        sys.dont_write_bytecode = dont_write
    return inputs


@pytest.fixture(scope="module")
def cli_dir(bench_inputs, tmp_path_factory):
    path = tmp_path_factory.mktemp("cli")
    for name, text in bench_inputs.cli_files().items():
        (path / name).write_text(text, encoding="utf-8")
    return path


def test_every_scripted_op_has_a_golden(bench_inputs):
    assert sorted(name for name, _ in bench_inputs.CLI_SCRIPT) == sorted(GOLDENS)
    assert len(GOLDENS) == 16


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_golden(capsys, bench_inputs, cli_dir, name):
    gold = GOLDENS[name]
    prefix = bench_inputs.CLI_DIR + "/"
    argv = [str(cli_dir / a.removeprefix(prefix)) if a.startswith(prefix) else a
            for a in gold["argv"]]
    code = main(argv)
    assert (code, capsys.readouterr().out) == (gold["exit"], gold["stdout"])
