"""What the package defines and who reads it, and the modules each cold
command loads."""

import ast
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rbdcalc

from families import family_h1_witness

REPO_ROOT = Path(__file__).resolve().parents[1]
A3 = REPO_ROOT / "src" / "rbdcalc" / "fixtures" / "family1" / "a3.json"
A3_DATA = json.loads(A3.read_text())

# a fresh interpreter runs `rbdcalc` with argv, its stdout discarded, then
# prints the exit code and the rbdcalc modules it loaded
RUN_AND_LIST = """
import contextlib, io, sys
from rbdcalc import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(code, *sorted(m for m in sys.modules if m.split(".")[0] == "rbdcalc"))
"""


def fresh(code: str, *argv: str, flags: tuple[str, ...] = ()) -> list[str]:
    """The stdout words of `python flags... -c code argv...` with src/ on the path."""
    rest = os.environ.get("PYTHONPATH")
    src = str(REPO_ROOT / "src")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + rest if rest else "")}
    proc = subprocess.run(
        [sys.executable, *flags, "-c", code, *argv],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_init_defines_only_its_version():
    """rbdcalc/__init__.py is its docstring and __version__, which cli reads:
    every import names a submodule."""
    tree = ast.parse(Path(rbdcalc.__file__).read_text(encoding="utf-8"))
    docstring, version = tree.body
    assert isinstance(docstring, ast.Expr) and isinstance(docstring.value, ast.Constant)
    assert [target.id for target in version.targets] == ["__version__"]


@pytest.mark.parametrize("name", ["no_such_name", "intersection_matrix"])
def test_unknown_attribute_raises_the_standard_error(name):
    with pytest.raises(AttributeError) as info:
        getattr(rbdcalc, name)
    assert str(info.value) == f"module 'rbdcalc' has no attribute {name!r}"


def test_import_rbdcalc_loads_no_submodule():
    code = "import sys, rbdcalc; print(*sorted(m for m in sys.modules if 'rbdcalc' in m))"
    assert fresh(code) == ["rbdcalc"]


def test_import_cli_loads_only_errors_and_report():
    code = "import sys, rbdcalc.cli; print(*sorted(m for m in sys.modules if 'rbdcalc' in m))"
    assert fresh(code) == ["rbdcalc", "rbdcalc.cli", "rbdcalc.errors", "rbdcalc.report"]


def test_cold_search_loads_no_blowdown_or_sw(tmp_path):
    template = tmp_path / "template.json"
    template.write_text('{"n": 3, "p": 2, "tail_bounds": 2}')
    code, *loaded = fresh(RUN_AND_LIST, "search", "--template", str(template))
    assert code == "0"
    assert "rbdcalc.search" in loaded
    # the Gram check needs no section of the restriction map: only
    # blowdown imports snf
    assert not {
        "rbdcalc.blowdown", "rbdcalc.sw", "rbdcalc.snf"
    } & set(loaded)


def test_cold_verify_config_loads_no_blowdown_sw_or_search():
    code, *loaded = fresh(RUN_AND_LIST, "verify-config", str(A3))
    assert code == "0"
    assert "rbdcalc.chains" in loaded
    # the determinant and divisors of the C_p matrix are closed forms
    assert not {
        "rbdcalc.blowdown", "rbdcalc.sw", "rbdcalc.search", "rbdcalc.snf"
    } & set(loaded)


def test_cold_sw_loads_no_blowdown_search_or_snf():
    data = json.loads(A3.read_text())
    argv = ["sw", "--config", str(A3), "--K", json.dumps(data["K"]), "--H", json.dumps(data["H"])]
    code, *loaded = fresh(RUN_AND_LIST, *argv)
    assert code == "0"
    assert "rbdcalc.sw" in loaded
    # the crossing needs only n and p of the configuration
    assert not {
        "rbdcalc.blowdown", "rbdcalc.search", "rbdcalc.snf"
    } & set(loaded)


@pytest.mark.parametrize("delta", [False, True], ids=["exact", "delta"])
def test_cold_blowdown_loads_no_snf_search_or_sw(delta):
    argv = ["blowdown", str(A3)]
    if delta:
        argv += ["--delta", json.dumps(list(family_h1_witness(3, 1)))]
    code, *loaded = fresh(RUN_AND_LIST, *argv)
    assert code == "0"
    assert "rbdcalc.blowdown" in loaded
    # the H1 order is one gcd and the witness a basis vector, and the
    # signature decides parity, so no section is built
    assert not {
        "rbdcalc.snf", "rbdcalc.search", "rbdcalc.sw"
    } & set(loaded)


def test_cold_reproduce_paper_loads_exactly_the_modules_it_runs():
    """Only the modules of its stages: the cases and their claims are stated
    in cli, and neither a section of the restriction map nor a search runs."""
    code, *loaded = fresh(RUN_AND_LIST, "reproduce-paper")
    assert code == "0"
    assert loaded == [
        "rbdcalc", "rbdcalc.blowdown", "rbdcalc.chains", "rbdcalc.cli",
        "rbdcalc.errors", "rbdcalc.lattice", "rbdcalc.report", "rbdcalc.sw",
    ]


def test_families_is_not_a_package_module():
    """The family formulas live beside the fixture generator, outside the package."""
    assert importlib.util.find_spec("rbdcalc.families") is None


# standard-library modules no cold command needs: dataclasses pulls in
# inspect, and fractions, which pulls in decimal, no module uses
NOT_LOADED = ("dataclasses", "inspect", "fractions", "decimal")


def run_and_list_stdlib(modules: tuple[str, ...]) -> str:
    """Code for a fresh interpreter: run `rbdcalc` with argv (import only
    when there is none), its output discarded, then print the exit code and
    which of `modules` are loaded."""
    return f"""
import contextlib, io, sys
from rbdcalc import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = cli.main(sys.argv[1:]) if sys.argv[1:] else 0
print(code, *sorted(m for m in {modules!r} if m in sys.modules))
"""


@pytest.mark.parametrize(
    "argv",
    [
        (),
        ("search", "--template", "TEMPLATE"),
        ("verify-config", str(A3)),
        ("sw", "--config", str(A3), "--K", json.dumps(A3_DATA["K"]), "--H", json.dumps(A3_DATA["H"])),
        ("reproduce-paper",),
    ],
    ids=["import", "search", "verify-config", "sw", "reproduce-paper"],
)
def test_cold_commands_load_no_dataclasses_inspect_or_fractions(tmp_path, argv):
    template = tmp_path / "template.json"
    template.write_text('{"n": 3, "p": 2, "tail_bounds": 2}')
    argv = [str(template) if a == "TEMPLATE" else a for a in argv]
    assert fresh(run_and_list_stdlib(NOT_LOADED), *argv) == ["0"]


def test_cold_reproduce_paper_loads_no_resources_typing_or_tempfile():
    """The fixtures directory is named from the package's own path, so
    importlib.resources, and the typing and tempfile it imports, stay
    unloaded. -S skips site-packages, whose .pth hooks can load them
    before rbdcalc runs and so hide an import of them."""
    modules = ("importlib.resources", "typing", "tempfile")
    assert fresh(run_and_list_stdlib(modules), "reproduce-paper", flags=("-S",)) == ["0"]


def imports_of(top: str) -> list[str]:
    """file:line of every import of `top` or its submodules in src/rbdcalc."""
    src = Path(rbdcalc.__file__).parent
    imports = []
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == top for name in names):
                imports.append(f"{path.name}:{node.lineno}")
    return imports


def unused_top_level_imports(source: str) -> list[str]:
    """Names a module's top-level imports bind that no ast.Name in the
    module reads; __future__ imports bind nothing to read."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds a
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in used]


def test_unused_import_finder_flags_only_unread_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport json as j\nfrom x import a, b\n"
        "def f():\n    import sys\n    return os.sep, a\n"
    )
    assert unused_top_level_imports(source) == ["j (line 3)", "b (line 4)"]


def test_package_writes_files_only_through_rewrite():
    """Report files go through cli._rewrite, which overwrites in place and
    cuts the file to length, not through a truncating Path writer."""
    sources = {path.name: path.read_text(encoding="utf-8") for path in Path(rbdcalc.__file__).parent.glob("*.py")}
    writers = [name for name, text in sources.items() if "write_text(" in text or "write_bytes(" in text]
    assert writers == []


# the package's modules and the scripts; with the tests, every module
SOURCES = [
    *sorted(Path(rbdcalc.__file__).parent.glob("*.py")),
    *sorted((REPO_ROOT / "scripts").glob("*.py")),
]
MODULES = [*SOURCES, *sorted((REPO_ROOT / "tests").glob("*.py"))]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_top_level_imports(path):
    assert unused_top_level_imports(path.read_text(encoding="utf-8")) == []


def test_no_source_line_over_100_characters():
    """The package's modules and the scripts keep every line to 100
    characters."""
    long = [
        f"{path.relative_to(REPO_ROOT)}:{number}"
        for path in SOURCES
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > 100
    ]
    assert long == []


def names_read(paths) -> set[str]:
    """Every name an ast.Name or an ast.Attribute in the files reads."""
    read = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


# module-level definitions of the package that no command, script or
# benchmark reads, each kept for its reason
UNREAD = {
    "wall_crossing": "the chamber-crossing API that acceptance criterion 7 tests",
}


def test_every_package_definition_is_read_outside_the_tests():
    """Each module-level def and class in src/rbdcalc is read by name from
    src/, scripts/ or perfbench/, but for UNREAD: code only the tests call
    belongs in tests/."""
    package = sorted(Path(rbdcalc.__file__).parent.glob("*.py"))
    defined = {
        node.name
        for path in package
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    callers = [
        path for tree in ("src", "scripts", "perfbench") for path in (REPO_ROOT / tree).rglob("*.py")
    ]
    assert sorted(defined - names_read(callers)) == sorted(UNREAD)


def traced_modules() -> list[str]:
    """The rbdcalc modules named in perfbench/spans.py's TARGETS, read
    from its source: the traced benchmark run imports each of them."""
    tree = ast.parse((REPO_ROOT / "perfbench" / "spans.py").read_text(encoding="utf-8"))
    targets = next(
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]
    )
    return sorted({module for module, _name, _kind in ast.literal_eval(targets)})


def test_every_traced_module_imports():
    """A module the traced benchmark names must exist: a deleted one fails
    here, not as an import error in the benchmark's traced run. A traced
    function that no longer exists only reads as absent there."""
    modules = traced_modules()
    assert modules
    for module in modules:
        importlib.import_module(f"rbdcalc.{module}")


def test_lattice_defines_no_class():
    """A class of Z^{1,n} is its integer row, h first, in every module:
    rbdcalc.lattice defines functions only, so a second class format
    cannot come back unnoticed."""
    source = (Path(rbdcalc.__file__).parent / "lattice.py").read_text(encoding="utf-8")
    tree = ast.parse(source)
    assert [node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)] == []
    functions = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    readers = {"strict_int", "field", "strict_object"}
    assert functions == readers | {"class_row", "row_pairing", "is_characteristic"}


def test_no_module_imports_dataclasses():
    """Value classes derive from rbdcalc.report.Record instead."""
    assert imports_of("dataclasses") == []


def test_no_module_imports_typing():
    """Annotations are strings (`from __future__ import annotations`), and
    Iterable and Sequence come from collections.abc, which the standard
    library loads anyway. A fresh interpreter cannot show this where a
    site-packages .pth hook loads typing first, so the check reads the
    source."""
    assert imports_of("typing") == []


def test_probe_script_runs_cold():
    """The open-range probe script imports rbdcalc.search directly; its
    eight questions in uniform boxes of bound 1 each print an ok row with
    no wall time, and stderr holds one timing line per question. Both its
    stdouts are pinned by their sha256: in uniform boxes of bound 1 and in
    the default shaped boxes, whose 4-chain a=3 and a=4 rows (about 18 MB)
    go out in chunks."""
    script = [sys.executable, str(REPO_ROOT / "scripts" / "probe_open_range.py")]
    shaped = subprocess.run(script, capture_output=True, cwd=REPO_ROOT)
    assert shaped.returncode == 0
    assert hashlib.sha256(shaped.stdout).hexdigest() == (
        "b1840e47b41ba35882543a5f0a75e0f56dea84c12d237226d6092045a117ba04"
    )
    proc = subprocess.run(
        script + ["--uniform", "1"],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 0
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == (
        "32e35d4589156b1d2e34389c4afa5170c523ba261a8bca7cd76a1546b04a00f3"
    )
    rows = [json.loads(row) for row in proc.stdout.splitlines()]
    assert [(row["status"], "seconds" in row) for row in rows] == [("ok", False)] * 8
    timings = [json.loads(line) for line in proc.stderr.splitlines()]
    questions = [("3-chain", a) for a in range(8, 12)] + [("4-chain", a) for a in range(3, 7)]
    assert [(t.pop("kind"), t.pop("a"), list(t)) for t in timings] == [
        (kind, a, ["seconds"]) for kind, a in questions
    ]
