"""Package surface: every exported name resolves, every public name and
record field has a caller, records are frozen values, layers load on demand,
and the README's library example prints what it says."""

import ast
import contextlib
import io
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import eaqec
from eaqec import concat
from eaqec.bounds import BoundCurve
from eaqec.codes import Defect, Distance
from eaqec.concat import Mismatch, RowVerdict, TableRow, concatenate
from eaqec.eaqecc import EaqeccParams, Provenance, TableTuple, parse_params
from eaqec.ensemble import (
    ClassStat,
    EnsembleReport,
    EnsembleSpec,
    Theorem2Bound,
    WeightPolynomial,
)
from eaqec.errors import DomainError


def test_every_exported_name_resolves():
    namespace = {}
    exec("from eaqec import *", namespace)
    for name in eaqec.__all__:
        assert namespace[name] is getattr(eaqec, name)
    assert set(eaqec.__all__) <= set(dir(eaqec))


ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "eaqec"

# Public names that no program calls, each kept for a stated reason.
KEPT_WITHOUT_CALLER = {
    "codes.ClassicalCode.codewords": "the independent oracle for min_distance",
    "codes.singleton_defect": "the AMDS/NMDS labels (ROADMAP items 3-4)",
    "bounds.weil_bound": "the genus-3 outer length bound (ROADMAP item 4(a))",
    "ensemble.phi_series_value": (
        "the exact series between the exhaustive average and phi_upper_bound"
    ),
}


def public_definitions(src):
    """{'module.name' or 'module.Class.name': name} of every public function,
    class and method of a public class."""
    found = {}
    for path in src.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name[0] == "_":
                continue
            found[f"{path.stem}.{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and sub.name[0] != "_":
                        found[f"{path.stem}.{node.name}.{sub.name}"] = sub.name
    return found


def referenced_names(paths):
    """Names, attributes, imported names and identifier strings ('a.b' gives
    both parts) read anywhere in the files."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.update(node.name.split("."))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                parts = node.value.split(".")
                if all(p.isidentifier() for p in parts):
                    names.update(parts)
    return names


def program_files():
    """The callers: the package itself without its export map, the scripts,
    the benchmark and the acceptance criteria; not the unit tests."""
    callers = [p for p in SRC.glob("*.py") if p.name != "__init__.py"]
    callers += [*ROOT.glob("scripts/*.py"), *ROOT.glob("bench/*.py")]
    callers.append(ROOT / "tests" / "test_acceptance.py")
    return callers


def attribute_loads(paths):
    """Attributes read anywhere in the files, x.name."""
    return {
        node.attr
        for path in paths
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def test_every_public_name_has_a_caller():
    # a method is called only through an attribute, x.name: a variable or a
    # string of the same name does not count
    used = referenced_names(program_files())
    loaded = attribute_loads(program_files())
    unused = {
        q for q, name in public_definitions(SRC).items()
        if name not in (loaded if q.count(".") == 2 else used)
    }
    missing = sorted(unused - set(KEPT_WITHOUT_CALLER))
    assert not missing, f"public names without a caller: {missing}"
    stale = sorted(set(KEPT_WITHOUT_CALLER) - unused)
    assert not stale, f"kept names that now have a caller: {stale}"


def bool_checks(src):
    """'module.name' of the top-level definition around each isinstance(x, bool)
    call, or 'module.<module>' outside any; a tuple naming bool counts too."""
    found = []
    for path in src.glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            where = getattr(top, "name", "<module>")
            for node in ast.walk(top):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id == "isinstance" and len(node.args) == 2
                        and any(isinstance(n, ast.Name) and n.id == "bool"
                                for n in ast.walk(node.args[1]))):
                    found.append(f"{path.stem}.{where}")
    return found


def test_one_integer_rule():
    # errors.integer is the one place that refuses a bool given as an int;
    # every other site calls it instead of spelling the rule again
    assert bool_checks(SRC) == ["errors.integer"]


def record_fields(src):
    """{'module.Class.field': field} of every annotated field of a public class."""
    found = {}
    for path in src.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and node.name[0] != "_":
                for sub in node.body:
                    if isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name):
                        found[f"{path.stem}.{node.name}.{sub.target.id}"] = sub.target.id
    return found


def test_every_record_field_is_read():
    # read means read as an attribute, x.field; the field's own annotation and
    # the constructor keywords that set it do not count
    read = attribute_loads(program_files())
    unread = sorted(q for q, name in record_fields(SRC).items() if name not in read)
    assert not unread, f"record fields that no program reads: {unread}"


def table_row():
    """A row built by keyword, so that nothing has derived it yet."""
    return TableRow(
        table="I",
        index=1,
        inner=TableTuple.parse("4,2,2,0,2"),
        outer=TableTuple.parse("25,13,12,12,4"),
        transform=("base", 0),
        published=TableTuple.parse("100,26,>=24,24,2"),
    )


def record_samples():
    """One instance of every public record."""
    spec = EnsembleSpec(n1=3, k1=1, n2=4, k2=2)
    row = table_row()
    return [
        BoundCurve("C5", (("m", 4.0),), ((0.0, 1.0),)),
        Defect(0, "MDS"),
        Distance.exact(3),
        Mismatch("n", 100, 101),
        RowVerdict(row, (), False),
        row,
        parse_params("4,2,2,0,2"),
        Provenance("concat", ()),
        TableTuple.parse("23,1*,11,?,4"),
        ClassStat("inner", True, 3, (Fraction(0),), Fraction(0)),
        EnsembleReport(spec, 1, 1, ()),
        spec,
        Theorem2Bound(log2=-1.0, tau=1.0, c_const=2.0, prefactor=1.5),
        WeightPolynomial((1, 3), 1),
    ]


def test_records_are_frozen():
    fields = {}
    for q, name in record_fields(SRC).items():
        fields.setdefault(q.rsplit(".", 1)[0], []).append(name)
    samples = {
        f"{type(r).__module__.split('.')[-1]}.{type(r).__name__}": r for r in record_samples()
    }
    assert samples.keys() == fields.keys()
    for key, record in samples.items():
        for name in fields[key]:
            before = getattr(record, name)
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            assert getattr(record, name) is before
        assert record == record and hash(record) == hash(record)


def test_record_construction():
    assert Distance("bound", 2) == Distance(kind="bound", value=2) != Distance.exact(2)
    assert Distance("unknown") == Distance.unknown()
    assert repr(Distance.exact(3)) == "Distance(kind='exact', value=3)"
    with pytest.raises(TypeError):
        Mismatch("n", 100)
    with pytest.raises(TypeError):
        Mismatch("n", 100, 101, extra=1)
    # keyword construction runs the validation, and fills defaults in it
    with pytest.raises(DomainError, match="negative coefficient"):
        WeightPolynomial(coefficients=(1, -1), n_e=1)
    with pytest.raises(ValueError, match="not a prime power"):
        EaqeccParams(q=6, n=4, k=2, d=Distance.exact(2), c=0)
    spec = EnsembleSpec(n1=3, k1=1, n2=4, k2=2)
    assert (spec.c1, spec.c2) == (2, 2)


def test_provenance_is_left_out_of_equality():
    code = concatenate(parse_params("4,2,2,0,2"), parse_params("25,13,12,12,4"))
    literal = EaqeccParams(q=code.q, n=code.n, k=code.k, d=code.d, c=code.c)
    assert code.provenance is not None and literal.provenance is None
    assert code == literal and hash(code) == hash(literal)
    assert code != EaqeccParams(q=code.q, n=code.n, k=code.k, d=code.d, c=code.c + 1)


def test_table_row_derives_once(monkeypatch):
    calls = []
    real = concat.concatenate
    monkeypatch.setattr(
        concat, "concatenate", lambda inner, outer: calls.append(1) or real(inner, outer)
    )
    row = table_row()
    first = row.derived
    assert row.derived is first and len(calls) == 1
    assert first.render() == "[[100,26,>=24;24]]_2"


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


# Runs cli.main(argv) in a fresh interpreter; prints the exit code and which
# of these costly modules got loaded: numpy, the dataclass module with the
# inspect it imports, json, which only --json needs, and eaqec.codes, which
# only the subcommands that build or read codes need.
CLI_PROBE = (
    "import contextlib, io, sys, eaqec.cli\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    code = eaqec.cli.main(sys.argv[1:])\n"
    "print(code, *[m for m in ('numpy', 'dataclasses', 'inspect', 'json', 'eaqec.codes')\n"
    "              if m in sys.modules])"
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
    # nor dataclasses, inspect or, without --json, json; bounds and gv read
    # no code parameters, so they leave eaqec.codes unloaded too
    codes = [] if argv[0] in ("bounds", "gv") else ["eaqec.codes"]
    assert run_cli_probe(argv) == ["0", *codes]


def test_matrix_subcommand_loads_numpy(tmp_path):
    # the probe above would pass vacuously if it could never see numpy, which
    # loads inspect, json or eaqec.codes
    path = tmp_path / "hamming.txt"
    path.write_text("q 2 poly 0,1\n1 0 1 0 1 0 1\n0 1 1 0 0 1 1\n0 0 0 1 1 1 1\n")
    code, *loaded = run_cli_probe(["mindist", "--code", str(path), "--json"])
    assert code == "0" and {"numpy", "inspect", "json", "eaqec.codes"} <= set(loaded)


def test_readme_library_example_prints_its_comments():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {})
    expected = [ln[2:] for ln in block.splitlines() if ln.startswith("# ")]
    assert expected and out.getvalue().splitlines() == expected
