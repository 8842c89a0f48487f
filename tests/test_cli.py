"""End-to-end runs of the command line interface."""

import errno
import hashlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rbdcalc
import rbdcalc.snf as snf_module
from rbdcalc import cli
from rbdcalc.search import MAX_N, SearchTemplate, search_hits

from families import family_configuration, family_h1_witness
from oracles import (
    configurations,
    signed_permutation,
    smith_normal_form,
    standard_configuration,
    theta_count,
)
from probe_open_range import family_question_dimensions

FIXTURES = Path(rbdcalc.__file__).parent / "fixtures"
A3 = FIXTURES / "family1" / "a3.json"
REPO_ROOT = Path(__file__).resolve().parents[1]
# relative to the repository root, so the --fixtures value echoed in the summary is stable
REL_FIXTURES = "src/rbdcalc/fixtures"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_verify_config_certificate(capsys):
    code, out, _ = run_cli(capsys, "verify-config", str(A3))
    assert code == 0
    payload = json.loads(out)
    assert payload["tool"] == {"name": "rbdcalc", "version": rbdcalc.__version__}
    assert payload["input"]["command"] == "verify-config"
    assert payload["input"]["config"]["p"] == 3
    assert payload["ok"] is True
    assert payload["gram"] == [[-2, 1], [1, -5]]
    assert payload["gram_det"] == 9
    assert payload["cokernel_divisors"] == [1, 9]
    assert payload["lens_space_weights"] == [5, 2]
    assert payload["lens_space_weights_order"].startswith("long class first")


def test_verify_config_reports_failure(capsys, tmp_path):
    path = write_config(tmp_path, {"p": 2, "n": 1, "classes": [[0, 1]]})
    code, out, _ = run_cli(capsys, "verify-config", path)
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    assert payload["violation"]["kind"] == "square"


def test_verify_config_usage_errors(capsys, tmp_path):
    code, _, err = run_cli(capsys, "verify-config", str(tmp_path / "missing.json"))
    assert code == 2
    assert err.startswith("rbdcalc:")
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2, 3]")
    assert run_cli(capsys, "verify-config", str(bad))[0] == 2
    incomplete = write_config(tmp_path, {"p": 2, "n": 1}, "incomplete.json")
    assert run_cli(capsys, "verify-config", incomplete)[0] == 2


def test_verify_config_refuses_a_fractional_p(capsys, tmp_path):
    """int() would read 3.7 as 3 and report the a=3 fixture as ok."""
    payload = json.loads(A3.read_text())
    payload["p"] = 3.7
    code, out, err = run_cli(capsys, "verify-config", write_config(tmp_path, payload))
    assert code == 2
    assert out == ""
    assert "p must be an integer, got 3.7" in err


@pytest.mark.parametrize("bad", [1.9, True, "1"])
def test_config_loaders_refuse_non_integer_coefficients(capsys, tmp_path, bad):
    path = write_config(tmp_path, {"p": 2, "n": 1, "classes": [[0, bad]]})
    for argv in (("verify-config", path), ("blowdown", path)):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert "coefficient must be an integer" in err


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"p": 3, "n": 2, "classes": [[0, 1, -1]]}, "C_3 needs exactly 2 classes, got 1"),
        ({"p": 1, "n": 2, "classes": []}, "need p >= 2, got p = 1"),
        ({"p": 2, "n": 1, "classes": [5]}, "classes entry must be an array, got 5"),
        ({"p": 2, "n": 1, "classes": ["ab"]}, "classes entry must be an array, got 'ab'"),
        ({"p": 2, "n": 1, "classes": 5}, "classes must be an array, got 5"),
        ({**json.loads(A3.read_text()), "note": "x"}, "unknown key 'note'"),
        ({"p": 2, "n": 1, "classes": [{"a": 1}]}, "classes entry must be an array, got {'a': 1}"),
    ],
)
def test_config_schema_errors_exit_2(capsys, tmp_path, payload, message):
    path = write_config(tmp_path, payload)
    vector = json.dumps([1, 0, 0])
    for argv in (
        ("verify-config", path),
        ("blowdown", path),
        ("sw", "--config", path, "--K", vector, "--H", vector),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("rbdcalc:") and message in err
    root = tmp_path / "fixtures"
    shutil.copytree(FIXTURES, root)
    (root / "family1" / "a3.json").write_text(json.dumps(payload))
    code, out, _ = run_cli(
        capsys, "reproduce-paper", "--only", "a=3,family=1", "--fixtures", str(root)
    )
    assert code == 1
    stages = json.loads(out)["cases"][0]["stages"]
    assert list(stages) == ["load"]
    assert stages["load"]["status"] == "fail" and message in stages["load"]["error"]


@pytest.mark.parametrize("family, a", cli.CASES, ids=[f"family{f}/a{a}" for f, a in cli.CASES])
def test_every_fixture_passes_the_config_commands(capsys, family, a):
    """The recorded fixture keys are read, not refused, by every config command."""
    path = str(FIXTURES / f"family{family}" / f"a{a}.json")
    data = json.loads(Path(path).read_text())
    k, h = json.dumps(data["K"]), json.dumps(data["H"])
    sw = ["sw", "--config", path, "--K", k, "--H", h]
    for argv in (["verify-config", path], ["blowdown", path], sw):
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert json.loads(out)["input"]["config"] == data


def test_benchmark_input_shapes_are_accepted(capsys, tmp_path):
    """A {p, n, classes} chain file as the h1 workload writes it, and the
    five-key template the stream workload searches."""
    for p, n in ((5, 6), (7, 6)):
        rows = standard_configuration(p, n).to_json()["classes"]
        classes = signed_permutation(rows, [3, 1, 6, 2, 5, 4], [1, -1, -1, 1, 1, -1])
        path = write_config(tmp_path, {"p": p, "n": n, "classes": classes})
        code, out, err = run_cli(capsys, "verify-config", path)
        assert (code, err, json.loads(out)["ok"]) == (0, "", True)
        code, out, err = run_cli(capsys, "blowdown", path)
        assert (code, err, json.loads(out)["h1"]["verdict"]) == (1, "", "nontrivial")
    template = {
        **question_template(7),
        "body_shape": "consecutive-differences",
        "symmetry_reduction": True,
    }
    path = tmp_path / "template.json"
    path.write_text(json.dumps(template, sort_keys=True))
    code, out, err = run_cli(capsys, "search", "--template", str(path))
    assert code == 0
    assert len(out.splitlines()) == json.loads(err)["count"] == 3894
    assert sha256(out) == A7_STREAM_DIGEST


def test_blowdown_with_explicit_witness(capsys):
    delta = json.dumps([0] * 9 + [1, -1, 0])
    code, out, _ = run_cli(capsys, "blowdown", str(A3), "--delta", delta)
    assert code == 0
    payload = json.loads(out)
    assert payload["homeo_type"] == "CP^2 # 9 CPbar^2"
    assert payload["h1"]["condition"] == 1
    assert payload["h1"]["pairings"] == [1, 0]
    assert payload["parity"]["route"] == "signature-mod-16"
    assert payload["input"]["delta"] == [0] * 9 + [1, -1, 0]
    assert "witness_bound" not in payload["input"]
    assert "order" not in payload["h1"]
    assert "restriction_divisors" not in payload["h1"]


def test_blowdown_search_route(capsys):
    code, out, _ = run_cli(capsys, "blowdown", str(A3))
    assert code == 0
    payload = json.loads(out)
    assert payload["h1"]["condition"] == 2
    assert payload["h1"]["witness"] == [0, -1] + [0] * 10
    assert payload["h1"]["order"] == 1
    assert payload["h1"]["restriction_divisors"] == [1, 1]
    assert "searched_bound" not in payload["h1"]
    assert payload["homeo_type"] == "CP^2 # 9 CPbar^2"


def test_blowdown_nontrivial_exits_nonzero(capsys, tmp_path):
    path = write_config(tmp_path, {"p": 2, "n": 1, "classes": [[0, 2]]})
    code, out, _ = run_cli(capsys, "blowdown", path)
    assert code == 1
    payload = json.loads(out)
    assert payload["homeo_type"] is None
    assert payload["h1"]["verdict"] == "nontrivial"
    assert payload["h1"]["order"] == 2
    assert payload["h1"]["restriction_divisors"] == [2]
    assert payload["h1"]["witness"] is None
    assert payload["parity"]["verdict"] == "inconclusive"
    code, out, _ = run_cli(capsys, "blowdown", path, "--delta", "[0, 1]")
    assert code == 1
    assert json.loads(out)["h1"]["verdict"] == "inconclusive"


def test_blowdown_has_no_witness_bound(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["blowdown", str(A3), "--witness-bound", "3"])
    assert exc.value.code == 2


def test_blowdown_rejects_bad_delta(capsys):
    assert run_cli(capsys, "blowdown", str(A3), "--delta", "[1, 2]") == (
        2, "", "rbdcalc: --delta: expected 12 coefficients (h first), got 2\n"
    )
    assert run_cli(capsys, "blowdown", str(A3), "--delta", "nonsense")[0] == 2
    true_delta = json.dumps([0] * 9 + [True, -1, 0])
    assert run_cli(capsys, "blowdown", str(A3), "--delta", true_delta)[0] == 2


def test_sw_certificate(capsys, tmp_path):
    fixture = json.loads(A3.read_text())
    code, out, _ = run_cli(
        capsys,
        "sw",
        "--config",
        str(A3),
        "--K",
        json.dumps(fixture["K"]),
        "--H",
        json.dumps(fixture["H"]),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 1
    assert payload["d"] == 0
    assert payload["exotic_certificate"] is True
    assert payload["branch"] == "positive-to-negative"
    assert payload["input"]["K"] == fixture["K"]
    k_file = tmp_path / "K.json"
    k_file.write_text(json.dumps(fixture["K"]))
    code2, out2, _ = run_cli(
        capsys,
        "sw",
        "--config",
        str(A3),
        "--K",
        f"@{k_file}",
        "--H",
        json.dumps(fixture["H"]),
    )
    assert code2 == 0
    assert json.loads(out2)["value"] == 1


def test_sw_precondition_failure(capsys):
    fixture = json.loads(A3.read_text())
    h = json.dumps([1] + [0] * 11)
    code, _, err = run_cli(
        capsys, "sw", "--config", str(A3), "--K", json.dumps(fixture["K"]), "--H", h
    )
    assert code == 1
    assert err.startswith("rbdcalc:")
    assert "not orthogonal" in err


def test_search_streams_hits(capsys, tmp_path):
    template = write_config(tmp_path, {"n": 5, "p": 2, "tail_bounds": 2})
    code, out, err = run_cli(capsys, "search", "--template", template)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 714
    first = json.loads(lines[0])
    assert first["p"] == 2
    assert len(first["classes"]) == 1
    trailer = json.loads(err)
    assert trailer["count"] == 714
    assert trailer["tool"]["version"] == rbdcalc.__version__
    assert trailer["input"]["template"]["tail_bounds"] == [2] * 6
    assert "seconds" in trailer


def test_search_cap_defaults_and_bounds(capsys, tmp_path):
    """Without --cap the trailer echoes the default cap; --cap 0 is a usage
    error with its message."""
    template = write_config(tmp_path, {"n": 3, "p": 2, "tail_bounds": 2})
    code, _, err = run_cli(capsys, "search", "--template", template)
    assert (code, json.loads(err)["input"]["cap"]) == (0, 10000000)
    code, out, err = run_cli(capsys, "search", "--template", template, "--cap", "0")
    assert (code, out, err) == (2, "", "rbdcalc: cap must be positive, got 0\n")


def test_search_help_bytes(capsys, monkeypatch):
    """The search help text at 80 columns, pinned by its sha256."""
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as info:
        cli.main(["search", "--help"])
    assert info.value.code == 0
    out = capsys.readouterr().out
    assert sha256(out) == "e31ad39bd391a366dce0bda4d5dc64e9238e72d794f9ee577f4f25ec5a5b3dee"


def question_template(a):
    n, p = family_question_dimensions(a, "3-chain")
    return {"n": n, "p": p, "tail_bounds": [a + 3, a - 1] + [2] * (n - 2) + [1]}


STREAM_TEMPLATES = {
    "3-chain a=7": question_template(7),
    "p=2": {"n": 5, "p": 2, "tail_bounds": 2},
    # t = -1 and t = 0 share need = -4, so two orbits share their flip
    # columns and only the run value orders their hits
    "p=3, t=-1 and t=0": {"n": 4, "p": 3, "tail_bounds": [2, 2, 2, 1, 1]},
    # the last free coordinate below the run has bound 0: flips end before it
    "last free bound 0": {"n": 5, "p": 3, "tail_bounds": [3, 2, 2, 0, 1, 2]},
    "p=2, end bound 0": {"n": 4, "p": 2, "tail_bounds": [2, 2, 2, 2, 0]},
}


@pytest.mark.parametrize("name", STREAM_TEMPLATES)
def test_search_stream_is_byte_identical_to_per_hit_json(capsys, tmp_path, name):
    """Each line equals json.dumps of its hit, however the frame is reused."""
    payload = STREAM_TEMPLATES[name]
    code, out, err = run_cli(capsys, "search", "--template", write_config(tmp_path, payload))
    assert code == 0
    lines = out.split("\n")
    assert lines.pop() == ""
    hits = configurations(search_hits(SearchTemplate.from_json(payload)))
    assert len(lines) == json.loads(err)["count"] == len(hits)
    for line, cfg in zip(lines, hits):
        assert line == json.dumps(cfg.to_json(), sort_keys=True, separators=(",", ":"))


A7_STREAM_DIGEST = "a8cd743e4bef138e5eb2537dabde8d1bcd519a8981bd7b89e31f4bed61eced29"


def test_search_stream_matches_golden_digest(capsys, tmp_path):
    """The whole stdout of the 3-chain a=7 question, pinned byte for byte."""
    template = write_config(tmp_path, STREAM_TEMPLATES["3-chain a=7"])
    code, out, _ = run_cli(capsys, "search", "--template", template)
    assert code == 0
    assert out.count("\n") == 3894
    assert sha256(out) == A7_STREAM_DIGEST


class RecordingStdout(io.StringIO):
    """A text stdout that keeps each write call's text."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)


# template -> its hit count where it sits at the chunk boundary
BOUNDED_WRITE_TEMPLATES = {
    "3-chain a=7": (STREAM_TEMPLATES["3-chain a=7"], None),
    "p=2": (STREAM_TEMPLATES["p=2"], None),
    "p=3, t=-1 and t=0": (STREAM_TEMPLATES["p=3, t=-1 and t=0"], None),
    "last free bound 0": (STREAM_TEMPLATES["last free bound 0"], None),
    "p=2, end bound 0": (STREAM_TEMPLATES["p=2, end bound 0"], None),
    "64 hits": ({"n": 6, "p": 4, "tail_bounds": [2, 1, 2, 2, 0, 0, 1]}, 64),
    "65 hits": ({"n": 5, "p": 4, "tail_bounds": [2, 2, 3, 2, 2, 2]}, 65),
    "129 hits": ({"n": 6, "p": 4, "tail_bounds": [2, 1, 2, 2, 1, 1, 2]}, 129),
    "no hits": ({"n": 3, "p": 2, "tail_bounds": 0}, 0),
}


@pytest.mark.parametrize("name", BOUNDED_WRITE_TEMPLATES)
def test_search_writes_whole_lines_in_bounded_chunks(monkeypatch, tmp_path, name):
    """Every write holds whole lines, at most 64 of them; there is one write
    per 64 hits, rounded up; and the writes join to the per-hit json.dumps
    lines."""
    payload, count = BOUNDED_WRITE_TEMPLATES[name]
    template = SearchTemplate.from_json(payload)
    if count is not None:
        assert theta_count(template.n, template.p, template.tail_bounds) == count
    stdout = RecordingStdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert cli.main(["search", "--template", write_config(tmp_path, payload)]) == 0
    hits = configurations(search_hits(template))
    lines = [json.dumps(cfg.to_json(), sort_keys=True, separators=(",", ":")) + "\n" for cfg in hits]
    assert "".join(stdout.writes) == "".join(lines)
    assert cli.STREAM_CHUNK == 64
    for text in stdout.writes:
        assert text.endswith("\n") and text.count("\n") <= 64
    assert len(stdout.writes) == -(-len(hits) // 64)


def test_search_cap_exit(capsys, tmp_path):
    template = write_config(tmp_path, {"n": 5, "p": 2, "tail_bounds": 2})
    code, _, err = run_cli(capsys, "search", "--template", template, "--cap", "10")
    assert code == 1
    assert err.startswith("rbdcalc:")
    # 3^10000 points: too many digits for str(), so the size is given as a power of 2
    huge = write_config(tmp_path, {"n": 10_000, "p": 2, "tail_bounds": 1}, "huge.json")
    code, _, err = run_cli(capsys, "search", "--template", huge)
    assert code == 1
    assert err.startswith("rbdcalc: estimated search space at least 2^15849 exceeds cap")
    # p = 3: no free coordinate, 10 run values
    chain = write_config(tmp_path, {"n": 4, "p": 3, "tail_bounds": [5, 0, 0, 5, 5]}, "chain.json")
    code, out, err = run_cli(capsys, "search", "--template", chain, "--cap", "1")
    assert (code, out) == (1, "")
    assert err.startswith("rbdcalc: estimated search space 10 exceeds cap 1")


def test_search_refuses_a_wide_box(capsys, tmp_path):
    """3^200000 points: the estimate is one power, so the refusal is quick."""
    wide = write_config(tmp_path, {"n": 200_000, "p": 2, "tail_bounds": 1})
    code, out, err = run_cli(capsys, "search", "--template", wide)
    assert (code, out) == (1, "")
    assert err.startswith("rbdcalc: estimated search space at least 2^316992 exceeds cap")


def test_search_refuses_too_many_free_coordinates(capsys, tmp_path):
    """Under a cap of 10^600 this box passes the estimate, but its walk would
    recurse once per free coordinate, 1098 deep: it is refused first."""
    wide = write_config(tmp_path, {"n": 1100, "p": 3, "tail_bounds": 1})
    code, out, err = run_cli(capsys, "search", "--template", wide, "--cap", "1" + "0" * 600)
    assert (code, out) == (1, "")
    assert err == (
        "rbdcalc: 1098 free coordinates (nonzero bounds off the body) exceed the "
        "256 the walk takes; shrink the template bounds\n"
    )


def test_search_rejects_malformed_template(capsys, tmp_path):
    template = write_config(tmp_path, {"p": 2})
    assert run_cli(capsys, "search", "--template", template)[0] == 2


@pytest.mark.parametrize(
    "template",
    [
        {"n": "x", "p": 2, "tail_bounds": 2},
        {"n": 5, "p": 2.0, "tail_bounds": 2},
        {"n": 5, "p": 2, "tail_bounds": True},
        {"n": 5, "p": 2, "tail_bounds": [2, 2, 2, 2, 2, 2.5]},
    ],
)
def test_search_refuses_non_integer_template_fields(capsys, tmp_path, template):
    code, out, err = run_cli(capsys, "search", "--template", write_config(tmp_path, template))
    assert (code, out) == (2, "")
    assert err.startswith("rbdcalc:") and "must be an integer" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "template, argv, message",
    [
        ({"n": 5, "p": 1, "tail_bounds": 2}, [], "need p >= 2"),
        (
            {"n": 5, "p": 2, "tail_bounds": 2, "body_shape": "zig"},
            [],
            'body_shape must be "consecutive-differences"',
        ),
        ({"n": 5, "p": 2, "tail_bounds": 2, "body_shape": 3}, [], "body_shape must be a string"),
        ({"n": 5, "p": 2, "tail_bounds": -1}, [], "bounds must be nonnegative"),
        ({"n": 5, "p": 2, "tail_bounds": 2, "symmetry_reduction": "false"}, [], "true or false"),
        ({"n": 5, "p": 2, "tail_bounds": 2, "symmetry_reduction": 0}, [], "true or false"),
        ({"n": 5, "p": 2, "tail_bounds": 2}, ["--cap", "0"], "cap must be positive"),
        (
            {"n": 5, "p": 2, "tail_bounds": 2, "body_shape": "free-pairs"},
            [],
            'body_shape must be "consecutive-differences"',
        ),
        (
            {"n": 5, "p": 2, "tail_bounds": 2, "symmetry_reduction": False},
            [],
            "symmetry_reduction must be true",
        ),
    ],
)
def test_search_template_and_option_errors_exit_2(capsys, tmp_path, template, argv, message):
    path = write_config(tmp_path, template)
    code, out, err = run_cli(capsys, "search", "--template", path, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("rbdcalc:") and message in err
    assert "Traceback" not in err


def test_search_has_no_jobs_flag(capsys, tmp_path):
    template = write_config(tmp_path, {"n": 5, "p": 2, "tail_bounds": 2})
    with pytest.raises(SystemExit) as exc:
        cli.main(["search", "--template", template, "--jobs", "2"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --jobs 2" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "p, bounds", [(2, [2, 2, 2, 2]), (2, [0, 0, 0, 0]), (3, [2, 2, 2, 2, 2])]
)
def test_search_skips_zero_bound_coordinates(capsys, tmp_path, p, bounds):
    """1500 bound-0 coordinates cost no recursion and change no count."""
    small = {"n": len(bounds) - 1, "p": p, "tail_bounds": bounds}
    # zeros go below the top p - 1 indices, where a reduced placement sits
    zeros = [0] * (1501 - len(bounds))
    wide = {"n": 1500, "p": p, "tail_bounds": bounds[: 1 - p] + zeros + bounds[1 - p :]}
    code, out, err = run_cli(capsys, "search", "--template", write_config(tmp_path, wide))
    assert code == 0 and "Traceback" not in err
    count = json.loads(err)["count"]
    hits = configurations(search_hits(SearchTemplate.from_json(small)))
    assert count == len(hits) == len(out.splitlines())
    assert (count > 0) == any(bounds)


def test_reproduce_all_cases_and_determinism(capsys):
    code, out, _ = run_cli(capsys, "reproduce-paper")
    assert code == 0
    summary = json.loads(out)
    assert summary["selected"] == 9
    assert summary["passed"] == 9
    assert summary["all_passed"] is True
    code2, out2, _ = run_cli(capsys, "reproduce-paper")
    assert code2 == 0
    assert out2 == out


def test_reproduce_paper_bytes_do_not_depend_on_where_the_package_lives(capsys, tmp_path):
    """Two copies of the package, each with its bundled fixtures, run from
    two working directories, print the bytes of the in-process run: every
    fixture path is echoed relative to the fixtures root."""
    package = Path(rbdcalc.__file__).parent
    outputs = []
    for copy, cwd in (("one", "one"), ("two/deeper", "elsewhere")):
        shutil.copytree(package, tmp_path / copy / "rbdcalc", ignore=shutil.ignore_patterns("__pycache__"))
        (tmp_path / cwd).mkdir(parents=True, exist_ok=True)
        proc = subprocess.run(
            [sys.executable, "-m", "rbdcalc.cli", "reproduce-paper"],
            capture_output=True,
            text=True,
            cwd=tmp_path / cwd,
            env={**os.environ, "PYTHONPATH": str(tmp_path / copy)},
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        outputs.append(proc.stdout)
    code, out, _ = run_cli(capsys, "reproduce-paper")
    assert code == 0
    assert outputs == [out, out]
    for case in json.loads(out)["cases"]:
        rel = f"family{case['input']['family']}/a{case['input']['a']}.json"
        assert case["input"]["fixture_path"] == rel
        assert case["stages"]["load"]["file"] == rel


def test_reproduce_single_case(capsys):
    code, out, _ = run_cli(capsys, "reproduce-paper", "--only", "a=5,family=2")
    assert code == 0
    summary = json.loads(out)
    assert summary["selected"] == 1
    case = summary["cases"][0]
    assert case["case"] == "family2/a5"
    assert case["stages"]["handles"]["counts"] == [1, 0, 7, 0, 1]
    assert case["stages"]["sw"]["outcome"]["value"] == 1
    assert "sw_negated" not in case["stages"]
    assert case["pass"] is True


def test_reproduce_filter_errors(capsys):
    assert run_cli(capsys, "reproduce-paper", "--only", "a=99")[0] == 2
    assert run_cli(capsys, "reproduce-paper", "--only", "b=3")[0] == 2
    assert run_cli(capsys, "reproduce-paper", "--only", "a=x")[0] == 2
    for only, val in (("a=0_3,family=1", "0_3"), ("a= \u0663", "\u0663"), ("a=-3", "-3")):
        code, out, err = run_cli(capsys, "reproduce-paper", "--only", only)
        assert (code, out) == (2, "")
        assert err == f"rbdcalc: --only a must be written in the digits 0-9, got {val!r}\n"
    code, out, err = run_cli(capsys, "reproduce-paper", "--only", "a=3,a=4")
    assert (code, out) == (2, "")
    assert err == "rbdcalc: --only gives a more than once\n"
    # a text with no pair is not "no filter"; a trailing comma after one is
    for only in ("", ",", " , "):
        code, out, err = run_cli(capsys, "reproduce-paper", "--only", only)
        assert (code, out) == (2, "")
        assert err == f"rbdcalc: --only expects k=v pairs, got {only!r}\n"
    code, out, _ = run_cli(capsys, "reproduce-paper", "--only", "a=3,")
    assert (code, json.loads(out)["selected"]) == (0, 2)


@pytest.mark.parametrize("option", ["--out", "--fixtures"])
def test_reproduce_empty_directory_argument_exits_2(capsys, monkeypatch, tmp_path, option):
    """An empty directory argument, which Path reads as the working
    directory, is refused before any case runs, and nothing is written."""

    def refuse(case, root):
        raise AssertionError("a case ran")

    monkeypatch.setattr(cli, "_reproduce_case", refuse)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "summary.json").write_text("kept")
    code, out, err = run_cli(capsys, "reproduce-paper", option, "")
    assert (code, out, err) == (2, "", f"rbdcalc: {option} must name a directory, got ''\n")
    assert [(f.name, f.read_text()) for f in tmp_path.iterdir()] == [("summary.json", "kept")]


def test_reproduce_writes_report_directory(capsys, tmp_path):
    out_dir = tmp_path / "reports"
    code, _, _ = run_cli(capsys, "reproduce-paper", "--out", str(out_dir))
    assert code == 0
    names = sorted(p.name for p in out_dir.iterdir())
    expected = sorted(
        [f"family1_a{a}.json" for a in range(3, 8)]
        + [f"family2_a{a}.json" for a in range(3, 7)]
        + ["summary.json"]
    )
    assert names == expected
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["all_passed"] is True
    # created with mode 0o666 under the umask, as Path.write_text creates one
    (tmp_path / "reference").write_text("")
    modes = {(out_dir / name).stat().st_mode for name in names}
    assert modes == {(tmp_path / "reference").stat().st_mode}


def test_reproduce_removes_the_reports_of_unselected_cases(capsys, tmp_path):
    """A run owns summary.json and the case file of each of the nine
    CASES: it removes those of the cases it did not select, and leaves
    every other file alone, a report-like name outside CASES included."""
    assert run_cli(capsys, "reproduce-paper", "--out", str(tmp_path))[0] == 0
    others = {"notes.txt": "kept", "family1_a8.json": "{}", "family3_a3.json": "{}"}
    for name, text in others.items():
        (tmp_path / name).write_text(text)
    code, out, _ = run_cli(capsys, "reproduce-paper", "--only", "a=3,family=1", "--out", str(tmp_path))
    assert code == 0 and json.loads(out)["selected"] == 1
    names = sorted(f.name for f in tmp_path.iterdir())
    assert names == sorted(["family1_a3.json", "summary.json", *others])
    assert all((tmp_path / name).read_text() == text for name, text in others.items())
    assert (tmp_path / "summary.json").read_text() == out
    # the removed reports are written again by a run that selects them
    assert run_cli(capsys, "reproduce-paper", "--only", "family=2", "--out", str(tmp_path))[0] == 0
    names = sorted(f.name for f in tmp_path.iterdir())
    reports = [f"family2_a{a}.json" for a in range(3, 7)]
    assert names == sorted(["summary.json", *reports, *others])


def test_reproduce_of_every_case_removes_nothing(capsys, monkeypatch, tmp_path):
    """With all nine cases selected, as the benchmark's replay runs it, the
    stale-report removal makes no filesystem call: nothing is removed, and
    the only files opened are the ten reports, once each."""
    assert run_cli(capsys, "reproduce-paper", "--out", str(tmp_path))[0] == 0
    opened = []
    real_open = os.open

    def refuse(*args):
        raise AssertionError(f"a file was removed: {args}")

    def counted(path, *args):
        opened.append(Path(path).name)
        return real_open(path, *args)

    for name in ("unlink", "remove", "rmdir"):
        monkeypatch.setattr(os, name, refuse)
    monkeypatch.setattr(os, "open", counted)
    code, out, _ = run_cli(capsys, "reproduce-paper", "--out", str(tmp_path))
    monkeypatch.undo()
    assert code == 0 and json.loads(out)["selected"] == 9
    assert sorted(opened) == sorted(f.name for f in tmp_path.iterdir())
    assert len(opened) == 10


def test_reproduce_summary_is_one_encoding_of_the_whole(capsys, tmp_path):
    """The cases are spliced into the summary text; an echoed --out that
    spells the splice point must not move them."""
    out_dir = tmp_path / '"cases": null'
    code, out, _ = run_cli(capsys, "reproduce-paper", "--only", "family=2", "--out", str(out_dir))
    assert code == 0
    summary = json.loads(out)
    assert out == json.dumps(summary, indent=2, sort_keys=True) + "\n"
    assert (out_dir / "summary.json").read_text() == out
    assert [case["case"] for case in summary["cases"]] == [f"family2/a{a}" for a in range(3, 7)]
    assert summary["input"]["out"] == str(out_dir)


@pytest.mark.parametrize("target", ["report.json", "report.json/sub"])
def test_reproduce_out_on_a_file_is_a_usage_error(capsys, tmp_path, target):
    """An --out that names a file, or a directory under one, exits 2 with a
    message naming the path, not with a traceback."""
    (tmp_path / "report.json").write_text("{}")
    out_dir = str(tmp_path / target)
    code, out, err = run_cli(capsys, "reproduce-paper", "--only", "a=3,family=1", "--out", out_dir)
    assert (code, out) == (2, "")
    assert err.startswith(f"rbdcalc: cannot write reports to {out_dir}: ")
    assert "Traceback" not in err


def test_reproduce_out_on_a_directory_named_as_a_report_is_a_usage_error(capsys, tmp_path):
    """A report name taken by a directory exits 2 with the error the
    failing open raised, naming that path."""
    (tmp_path / "family1_a3.json").mkdir()
    code, out, err = run_cli(capsys, "reproduce-paper", "--only", "a=3,family=1", "--out", str(tmp_path))
    assert (code, out) == (2, "")
    target = tmp_path / "family1_a3.json"
    assert err == f"rbdcalc: cannot write reports to {tmp_path}: [Errno 21] Is a directory: '{target}'\n"


def test_reproduce_out_on_a_directory_named_as_an_unselected_report_is_a_usage_error(capsys, tmp_path):
    """A directory under the report name of a case the run did not select
    is not removed: the failing unlink exits 2 naming that path."""
    target = tmp_path / "family1_a4.json"
    target.mkdir()
    code, out, err = run_cli(capsys, "reproduce-paper", "--only", "a=3,family=1", "--out", str(tmp_path))
    assert (code, out) == (2, "")
    assert err == f"rbdcalc: cannot write reports to {tmp_path}: [Errno 21] Is a directory: '{target}'\n"
    assert target.is_dir()


@pytest.mark.parametrize("counts", [[1], [], [7, 0], [1, 0, 9, 2]])
def test_reproduce_fails_handles_with_a_short_counts_list(capsys, tmp_path, counts):
    """A recorded counts list must be the full 5-tuple; two entries are not
    read as the complement's (h2, h3)."""
    root = tmp_path / "fixtures"
    shutil.copytree(FIXTURES, root)
    target = root / "family1" / "a3.json"
    data = json.loads(target.read_text())
    data["handles"] = {"counts": counts}
    target.write_text(json.dumps(data))
    code, out, _ = run_cli(
        capsys, "reproduce-paper", "--only", "a=3,family=1", "--fixtures", str(root)
    )
    assert code == 1
    stages = json.loads(out)["cases"][0]["stages"]
    assert sorted(stages) == ["blowdown", "handles", "load", "verify"]
    assert stages["handles"] == {
        "status": "fail",
        "error": f"DomainError: recorded handle counts must be a full 5-tuple, got {len(counts)}",
    }


def reproduce_edited_a3(capsys, tmp_path, edit):
    """reproduce-paper on family1/a3 after edit(data) in a copy of the fixtures."""
    root = tmp_path / "fixtures"
    shutil.copytree(FIXTURES, root)
    target = root / "family1" / "a3.json"
    data = json.loads(target.read_text())
    edit(data)
    target.write_text(json.dumps(data))
    code, out, _ = run_cli(
        capsys, "reproduce-paper", "--only", "a=3,family=1", "--fixtures", str(root)
    )
    (case,) = json.loads(out)["cases"]
    return code, case


def test_reproduce_fails_blowdown_when_the_type_is_not_pinned_down(capsys, tmp_path):
    """With e_1 and e_10 swapped the chain still verifies, but the family
    witness certifies nothing, so no type is pinned down and the case ends
    at blowdown."""

    def swap(data):
        for row in [*data["classes"], data["K"], data["H"]]:
            row[1], row[10] = row[10], row[1]

    code, case = reproduce_edited_a3(capsys, tmp_path, swap)
    assert (code, case["pass"]) == (1, False)
    stages = case["stages"]
    assert sorted(stages) == ["blowdown", "load", "verify"]
    assert stages["verify"]["status"] == "pass"
    blowdown = stages["blowdown"]
    assert (blowdown["status"], blowdown["expected_type"]) == ("fail", "CP^2 # 9 CPbar^2")
    assert blowdown["report"]["h1"]["verdict"] == "inconclusive"
    assert blowdown["report"]["homeo_type"] is None


def test_reproduce_fails_sw_on_a_lift_of_negative_dimension(capsys, tmp_path):
    """A lift with d = -2 descends but its invariant vanishes: sw fails and
    the negated lift is not run."""

    def lift(data):
        data["K"] = [3, -3, 1] + [-1] * 9

    code, case = reproduce_edited_a3(capsys, tmp_path, lift)
    assert (code, case["pass"]) == (1, False)
    stages = case["stages"]
    assert sorted(stages) == ["blowdown", "handles", "load", "sw", "verify"]
    assert [stages[s]["status"] for s in ("load", "verify", "blowdown", "handles")] == ["pass"] * 4
    outcome = stages["sw"]["outcome"]
    assert stages["sw"]["status"] == "fail"
    assert (outcome["d"], outcome["value"], outcome["exotic_certificate"]) == (-2, 0, False)


def test_reproduce_fails_blowdown_on_a_swapped_fixture(capsys, tmp_path):
    """family1/a3.json holding family1/a4's configuration verifies, but the
    case still claims CP^2 # 9 CPbar^2 and builds its witness e_9 - e_10 in
    the configuration's own lattice, where it is the first class: H1 is
    left open, no type is pinned down and the case ends at blowdown."""
    a4 = json.loads((FIXTURES / "family1" / "a4.json").read_text())

    def swap(data):
        data.clear()
        data.update(a4)

    code, case = reproduce_edited_a3(capsys, tmp_path, swap)
    assert (code, case["pass"]) == (1, False)
    stages = case["stages"]
    assert sorted(stages) == ["blowdown", "load", "verify"]
    assert (stages["load"]["status"], stages["verify"]["status"]) == ("pass", "pass")
    assert stages["verify"]["report"]["p"] == 7
    blowdown = stages["blowdown"]
    assert (blowdown["status"], blowdown["expected_type"]) == ("fail", "CP^2 # 9 CPbar^2")
    assert blowdown["report"]["h1"]["verdict"] == "inconclusive"
    assert blowdown["report"]["homeo_type"] is None


# configurations the golden runs read from their working directory, written from the library
GENERATED_CONFIGS = {
    "family1_a11.json": lambda: family_configuration(11, 1).to_json(),
    "standard_p5_n6.json": lambda: standard_configuration(5, n=6).to_json(),
    "violation.json": lambda: {"p": 3, "n": 3, "classes": [[0, 1, -1, 0], [0, 1, 1, 1]]},
}


def golden_runs():
    """(name, argv) of the runs whose stdout digests are pinned below."""
    yield "reproduce-paper", ["reproduce-paper", "--fixtures", REL_FIXTURES]
    for family, a in cli.CASES:
        tag = f"family{family}/a{a}"
        path = f"{REL_FIXTURES}/{tag}.json"
        data = json.loads((REPO_ROOT / path).read_text())
        k, h = data["K"], json.dumps(data["H"])
        delta = json.dumps(list(family_h1_witness(a, family).coeffs))
        yield f"verify-config {tag}", ["verify-config", path]
        yield f"sw {tag}", ["sw", "--config", path, "--K", json.dumps(k), "--H", h]
        yield f"sw -K {tag}", ["sw", "--config", path, "--K", json.dumps([-c for c in k]), "--H", h]
        yield f"blowdown --delta {tag}", ["blowdown", path, "--delta", delta]
        yield f"blowdown {tag}", ["blowdown", path]
    a3 = f"{REL_FIXTURES}/family1/a3.json"
    h = json.dumps(json.loads((REPO_ROOT / a3).read_text())["H"])
    yield "blowdown --delta h family1/a3", ["blowdown", a3, "--delta", json.dumps([1] + [0] * 11)]
    negative_k = json.dumps([3, -3, 1] + [-1] * 9)
    yield "sw negative-dimension family1/a3", ["sw", "--config", a3, "--K", negative_k, "--H", h]
    for name in GENERATED_CONFIGS:
        command = "verify-config" if name == "violation.json" else "blowdown"
        yield f"{command} {name}", [command, name]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# exit code of the golden runs that do not exit 0
GOLDEN_EXIT = {
    "blowdown --delta h family1/a3": 1,
    "blowdown standard_p5_n6.json": 1,
    "verify-config violation.json": 1,
}

# sha256 of stdout, run from the repository root (from the directory holding
# GENERATED_CONFIGS for the runs that read one)
GOLDEN_STDOUT = {
    "reproduce-paper": "9bbf616bd8b25a248d0c71de10934ca382a30b7583f4f3b6a5e75735d54aa88b",
    "verify-config family1/a3": "d1be4a36209536117e02bffea24befac02069d578a10ff486d3e2c9474ae1c0d",
    "sw family1/a3": "fe6e8917b1f60d7ad493f61dadbcb566c689109a5e874d0d358d69aebb2a0201",
    "sw -K family1/a3": "9d19a9cb896071c0964ca990355d12525035ec132ea7b922d109deff7f2f9d06",
    "blowdown --delta family1/a3": "7e65fb1bb91a7e5c067e5466064e824a3dcc134b3d79916b4ca25393ef095360",
    "verify-config family1/a4": "36c440d1504f228d001765cb3d93b1c4eea7b79c3f191def6c8a8a9ed8182157",
    "sw family1/a4": "3c7eb99ba3d9c36ce3c6759396f5c87ce1324acc347d80261bf9430027f7919b",
    "sw -K family1/a4": "e2f8b601faa3d29698cd8adec84371d118640108f1d89eadc39d93abd0346de3",
    "blowdown --delta family1/a4": "df25f69785d94630f3679cf4020258b53faf6106d1814779951462ed43d17a7d",
    "verify-config family1/a5": "57317ef3f526870e6c3d031af9182e29999966fbe758c0a1cb3dfb7bdd96b464",
    "sw family1/a5": "b1d3e6829731b49439c045e4e88390de07eb2e710ab70154919a61f457d24817",
    "sw -K family1/a5": "3d92427d331784face606d073d9b91683a921af7ba25da6982a2cd1e67e1ac45",
    "blowdown --delta family1/a5": "6b01b5f538ea80fca48411f248a60b367c2135789960cf469b5ea1f5ccf53a75",
    "verify-config family1/a6": "4d68be39ca0e1154f9fc95cbbc2b044e24ba2a5ef97903388519abbe0a92c456",
    "sw family1/a6": "17eaa41da179f0d2bf0d627f5a0c3703fbba6fa6961f07bf153fdfa4e2c49404",
    "sw -K family1/a6": "65fef1b185988728277a7dcf26c151055c3628f63a4c9a8af7d2e0748ad1cb44",
    "blowdown --delta family1/a6": "7ed1b22d70bf4c64196eb87f5ef5cf3197ca270bd1da7696a95f778ef6dbb922",
    "verify-config family1/a7": "6500871c3f1aca3b77ad282e55608dc5f0476664856fb67449abdedcfe47aad6",
    "sw family1/a7": "3ff25a235143e16a9e41beb8de3735111bff4b0a378a732e702ae738a2daba68",
    "sw -K family1/a7": "05eff726cb848756e54c4251718d16d1fb95368176a69dc34cc4983b56ca4c4d",
    "blowdown --delta family1/a7": "6c58f3150ffd629381ed1855f1e12a9f535ab35910c19d0d3fba92d0eb594bce",
    "verify-config family2/a3": "57e05589bf93e1c88a36d89abdbce1710653e43e899707bf984d4e356f01a8e9",
    "sw family2/a3": "90914a163faaf2cdefeec985138ff04b959ccb0397e1a57dcb6310a5044ab8f3",
    "sw -K family2/a3": "170c78cf3d898fb89c94ee2bf3f65c792d8d70056e3783593fac63a4d35f528a",
    "blowdown --delta family2/a3": "123e4a9ef6f7f25463672ee7c4f62c267fdfca2cc53c3169ce1dcda600b17b41",
    "verify-config family2/a4": "822b80ce84cf61a54efa97331ca62c79e2f4781d3237e8d76b3c59dbed22c8ee",
    "sw family2/a4": "a45bceafeb5e95126d158ef5c75382bcd3b5e084d5926b2e5f9c17b2eeac6b2e",
    "sw -K family2/a4": "1c9ef7a9d7a571011a48c106b85d2f23f4c9fef727a6c4bcf5848b87e9201a0a",
    "blowdown --delta family2/a4": "dee60b100def32a1b16afa919893cc695fb526a673358c1c730ffeb959dbe9e9",
    "verify-config family2/a5": "bea3ae4d3bc987351c11d3764f2851680a90f96bfb85cdf62f67c39acfae7143",
    "sw family2/a5": "4d0abaf6b20db03afc172d9fa385b63066ea94fd33de374fb8afbacd3b5d4e4b",
    "sw -K family2/a5": "ef2a0c611e8b606a02b0598c51ed287e6a14cea461d4cb9fac9eb362b07a86f4",
    "blowdown --delta family2/a5": "c0110cdcbbf486c0bbe76513f42c1aaf4aea7329cc4fe5bbd63ebc060faf487a",
    "verify-config family2/a6": "4837eb36189d8bafbeebaeef1d0445ffe96c3eee71b36a1f51868253d275366c",
    "sw family2/a6": "42950bba64ebc197ea8d484c3fec34bb4241d94f228fe83d1e49478da929a963",
    "sw -K family2/a6": "60693cf10932bcff3db89ff07691a8d529278fe39a67e2d76d9f967a41bd08f5",
    "blowdown --delta family2/a6": "42a1ac8a1b73a1d808e15bc26e7c80a05f59ff3e0017ffaf3df0b13fc2e2fb84",
    "blowdown family1/a3": "75fc54de2fc13e2ba4813c353c68d616dfaf7595544df25792495d792c4cd9f0",
    "blowdown family1/a4": "06dfed744702e65175b184ebf667e6565adfe237b0b9990749c50d28f6e293d2",
    "blowdown family1/a5": "8b83b2472ec5113ef3222abf2a2ee373d889d49a924673795b05a29b64fc70dc",
    "blowdown family1/a6": "6c75b95e03c0c49551544ad32284384793fe4424add59b504134c96d19606da2",
    "blowdown family1/a7": "6a8581cbe2ded2245e5884f95db9fdb1185d68e0acd030accd63b81f680cd8e2",
    "blowdown family2/a3": "fa3d0f89dc6780a82d2e4a128885502fbdab65f65be8866c471f0577f89cd371",
    "blowdown family2/a4": "0c974ab010f73b69d49c890f2af832894b71f7605d3e23fd23dac5cd6c96da0f",
    "blowdown family2/a5": "71fd18fccc7c51cb1aa2fe360237b612f11131142df29df43b6a48a48b0fc434",
    "blowdown family2/a6": "63ae3419a0ef9ac3a879117d0800c381bfacde960cdd7c6a7eed954967130fbf",
    "blowdown --delta h family1/a3": "bf1fd9dfdf50deef0dea33a762d8a3994a8f604b733875d8a69254e04752cf37",
    "sw negative-dimension family1/a3": "b23a5a4d01d1beba0de47b804307b2f4aa803dce04e603f2f84d4228204c848d",
    "blowdown family1_a11.json": "1c49e4d41e7dcb8d4ac91e34a63b377abe7c6b42e53f8c79330e9d103d4221e2",
    "blowdown standard_p5_n6.json": "8b7361675e705637ce1b70b757365bb31aaa0b62dbb6186938f61f33493600c8",
    "verify-config violation.json": "e42f9450afaff0e4aa8bc0abc6de149e2e73f024c81039aaa54a13370777b295",
}

# sha256 of the per-case files written by reproduce-paper --out
GOLDEN_REPORT_FILES = {
    "family1_a3.json": "51a11046b8fd6bdbed1b88307b1fd758c856e365580a9d7d7990a67f521cf1ec",
    "family1_a4.json": "1e430956e5ca90770931ceabca5247b374890c73b00952747b0f3d3407d2234f",
    "family1_a5.json": "17e79f2b4987d1ea0ff0103193587af2338108847c19575e3b4403a61312cdb2",
    "family1_a6.json": "1124d2f2c25494aa7de531facd2e22f5adf4e103040fdf2fbd03979007099d01",
    "family1_a7.json": "5d05e1a0e157c762e5e844d2e093dfcd9e174aa9fe85df0a65ba719a81aeda99",
    "family2_a3.json": "6e762e4cdb5771cfd857277e66fe570918a33f239157c0dbbf4a03f7156be51b",
    "family2_a4.json": "8092eaadc608a083a3bc1ea1aea5e06a5856f137fb459d347558ae0beabd7c60",
    "family2_a5.json": "06d885941a7c78da8aacca6478c9b334c2a407c7d8e5610e9c931b186b7cd89d",
    "family2_a6.json": "8acaad1c180433264eee2edb57d4137fffc1999d103f7a1b8b6712b428bcb73a",
}


@pytest.mark.parametrize("name, argv", [pytest.param(*run, id=run[0]) for run in golden_runs()])
def test_stdout_matches_golden_digest(capsys, monkeypatch, tmp_path, name, argv):
    generated = [arg for arg in argv if arg in GENERATED_CONFIGS]
    monkeypatch.chdir(tmp_path if generated else REPO_ROOT)
    for arg in generated:
        (tmp_path / arg).write_text(json.dumps(GENERATED_CONFIGS[arg]()))
    code, out, _ = run_cli(capsys, *argv)
    assert code == GOLDEN_EXIT.get(name, 0)
    assert sha256(out) == GOLDEN_STDOUT[name]


def test_blowdown_without_delta_runs_no_section(capsys, monkeypatch, tmp_path):
    """H1 takes the closed form, the fixtures' witnesses are basis vectors
    and their parity is the signature's: with the section raising, the nine
    fixtures and standard_p5_n6.json keep their golden bytes, and signed
    permutations of standard_configuration(5, 6) and (7, 6) get the oracle
    SNF's divisors."""
    rng = random.Random(11)
    chains = {}
    for p in (5, 7):
        target = rng.sample(range(1, 7), 6)
        signs = [rng.choice((1, -1)) for _ in range(6)]
        rows = signed_permutation([u.coeffs for u in standard_configuration(p, 6).classes], target, signs)
        divisors = smith_normal_form([[r[0]] + [-c for c in r[1:]] for r in rows]).diagonal
        chains[p] = (write_config(tmp_path, {"p": p, "n": 6, "classes": rows}, f"p{p}.json"), divisors)
    (tmp_path / "standard_p5_n6.json").write_text(json.dumps(GENERATED_CONFIGS["standard_p5_n6.json"]()))

    def refuse(cfg):
        raise AssertionError("section built")

    # the fallback witness and the parity route's complement generators
    # both come from snf.Section
    monkeypatch.setattr(snf_module, "Section", refuse)
    monkeypatch.chdir(REPO_ROOT)
    for family, a in cli.CASES:
        tag = f"family{family}/a{a}"
        code, out, _ = run_cli(capsys, "blowdown", f"{REL_FIXTURES}/{tag}.json")
        assert (code, sha256(out)) == (0, GOLDEN_STDOUT[f"blowdown {tag}"])
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(capsys, "blowdown", "standard_p5_n6.json")
    assert (code, sha256(out)) == (1, GOLDEN_STDOUT["blowdown standard_p5_n6.json"])
    for p, (path, divisors) in chains.items():
        code, out, _ = run_cli(capsys, "blowdown", path)
        assert code == 1
        assert divisors == (1,) * (p - 2) + (p,)
        assert json.loads(out)["h1"] == {
            "verdict": "nontrivial",
            "condition": None,
            "witness": None,
            "pairings": None,
            "order": p,
            "restriction_divisors": list(divisors),
        }


def test_report_files_match_golden_digests(capsys, monkeypatch, tmp_path):
    """summary.json is stdout, which differs from the golden run only in the
    echoed --out; the per-case files carry no output path at all. The
    bundled fixtures, written by the same writer, regenerate unchanged."""
    monkeypatch.chdir(REPO_ROOT)
    code, out, _ = run_cli(capsys, "reproduce-paper", "--fixtures", REL_FIXTURES, "--out", str(tmp_path))
    assert code == 0
    summary = (tmp_path / "summary.json").read_text()
    # print() ends the printed text with one newline; the file ends the same
    assert summary == out and out.endswith("}\n")
    assert summary == json.dumps(json.loads(summary), indent=2, sort_keys=True) + "\n"
    echoed = f'"out": {json.dumps(str(tmp_path))}'
    assert summary.count(echoed) == 1
    assert sha256(summary.replace(echoed, '"out": null')) == GOLDEN_STDOUT["reproduce-paper"]
    files = {f.name: sha256(f.read_text()) for f in tmp_path.iterdir() if f.name != "summary.json"}
    assert files == GOLDEN_REPORT_FILES
    check = subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / "gen_fixtures.py"), "--check"],
        capture_output=True,
        text=True,
    )
    assert (check.returncode, check.stdout) == (0, "fixtures are up to date\n")


def test_report_files_are_rewritten_over_longer_stale_text(capsys, monkeypatch, tmp_path):
    """Each report file is overwritten in place and cut to length: 100 KB of
    stale text in every one leaves no tail behind the golden bytes."""
    monkeypatch.chdir(REPO_ROOT)
    for name in [*GOLDEN_REPORT_FILES, "summary.json"]:
        (tmp_path / name).write_text("x" * 100_000)
    code, out, _ = run_cli(capsys, "reproduce-paper", "--fixtures", REL_FIXTURES, "--out", str(tmp_path))
    assert code == 0
    assert (tmp_path / "summary.json").read_text() == out
    files = {f.name: sha256(f.read_text()) for f in tmp_path.iterdir() if f.name != "summary.json"}
    assert files == GOLDEN_REPORT_FILES


def test_a_failed_report_write_leaves_the_file_empty(capsys, monkeypatch, tmp_path):
    """A write that fails part-way cuts the file to zero before exit 2, so
    no mix of the new bytes and a stale report's tail is left behind."""
    report = tmp_path / "family1_a3.json"
    report.write_text("x" * 100_000)
    real_write = os.write
    calls = []

    def half_then_disk_full(fd, data):
        calls.append(len(data))
        if len(calls) == 1:
            return real_write(fd, data[: len(data) // 2])
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(os, "write", half_then_disk_full)
    code, out, err = run_cli(capsys, "reproduce-paper", "--only", "a=3,family=1", "--out", str(tmp_path))
    monkeypatch.undo()
    assert (code, out) == (2, "")
    assert err == f"rbdcalc: cannot write reports to {tmp_path}: [Errno 28] No space left on device\n"
    assert len(calls) == 2
    assert [(f.name, f.stat().st_size) for f in tmp_path.iterdir()] == [("family1_a3.json", 0)]


def test_reproduce_detects_corrupted_fixture(capsys, tmp_path):
    root = tmp_path / "fixtures"
    shutil.copytree(FIXTURES, root)
    target = root / "family1" / "a3.json"
    data = json.loads(target.read_text())
    data["classes"][0][0] += 1
    target.write_text(json.dumps(data))
    code, out, _ = run_cli(capsys, "reproduce-paper", "--fixtures", str(root))
    assert code == 1
    summary = json.loads(out)
    assert summary["all_passed"] is False
    broken = [c for c in summary["cases"] if c["case"] == "family1/a3"]
    assert broken[0]["stages"]["verify"]["status"] == "fail"
    assert summary["passed"] == 8


def test_reproduce_missing_fixture_error_names_the_relative_path(capsys, tmp_path):
    """A failed load names the fixture as the echo does, so the case report
    of a missing fixture is the same bytes under any fixtures root."""
    cases = []
    for copy in ("one", "two"):
        root = tmp_path / copy / "fixtures"
        shutil.copytree(FIXTURES, root)
        (root / "family1" / "a3.json").unlink()
        out_dir = tmp_path / copy / "out"
        code, _, _ = run_cli(
            capsys, "reproduce-paper", "--only", "a=3,family=1", "--fixtures", str(root),
            "--out", str(out_dir),
        )
        assert code == 1
        cases.append((out_dir / "family1_a3.json").read_text())
    assert cases[0] == cases[1]
    assert json.loads(cases[0])["stages"] == {
        "load": {
            "status": "fail",
            "error": "UsageError: cannot read family1/a3.json: [Errno 2] "
            "No such file or directory: 'family1/a3.json'",
        }
    }


def test_unknown_command_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def test_main_reuses_one_parser(capsys, monkeypatch, tmp_path):
    """In-process calls share one parser and answer as a fresh parser would."""
    template = write_config(tmp_path, {"n": 3, "p": 2, "tail_bounds": 2})
    fixture = json.loads(A3.read_text())
    calls = [
        ["verify-config", str(A3)],
        ["search", "--template", template],
        ["blowdown", str(A3)],
        ["search", "--template", template, "--cap", "x"],
        ["sw", "--config", str(A3), "--K", json.dumps(fixture["K"]),
         "--H", json.dumps(fixture["H"])],
        ["verify-config"],
        ["search", "--template", template],
        ["verify-config", str(A3)],
    ]

    def outcome(argv):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        return code, capsys.readouterr().out

    fresh = []
    for argv in calls:
        monkeypatch.setattr(cli, "_parser", None)
        fresh.append(outcome(argv))
    assert [code for code, _ in fresh] == [0, 0, 0, 2, 0, 2, 0, 0]
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    assert [outcome(argv) for argv in calls] == fresh
    assert len(built) == 1


def child_env() -> dict:
    """This environment, with the imported rbdcalc first on PYTHONPATH."""
    src = str(Path(rbdcalc.__file__).resolve().parents[1])
    rest = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + rest if rest else "")}


def test_import_loads_no_multiprocessing():
    code = "import sys, rbdcalc.cli; print('multiprocessing' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=child_env())
    assert (proc.returncode, proc.stdout) == (0, "False\n")


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "rbdcalc.cli", "verify-config", str(A3)],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["ok"] is True


@pytest.mark.parametrize("command", ["reproduce-paper", "search"])
def test_closed_stdout_exits_without_a_traceback(tmp_path, command):
    """A reader that is gone before the output is written, as `| head -1`
    leaves one, ends the run with exit code 141 and nothing on stderr. The
    read end is closed before the child starts, so every write fails."""
    argv = [command]
    if command == "search":
        argv += ["--template", write_config(tmp_path, {"n": 3, "p": 2, "tail_bounds": 2})]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "rbdcalc.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=child_env(),
        )
    finally:
        os.close(write_end)
    assert "Traceback" not in proc.stderr
    assert (proc.returncode, proc.stderr) == (cli.BROKEN_PIPE, "")
    assert cli.BROKEN_PIPE == 141


def test_search_reader_leaving_mid_stream_exits_without_a_traceback(tmp_path):
    """A reader that takes one line and closes, as `| head -1` does, makes a
    later chunk's write fail: a cold 3-chain a=7 search then exits 141 with
    nothing on stderr."""
    template = write_config(tmp_path, STREAM_TEMPLATES["3-chain a=7"])
    with open(tmp_path / "stderr.txt", "w+", encoding="utf-8") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "rbdcalc.cli", "search", "--template", template],
            stdout=subprocess.PIPE,
            stderr=err,
            env=child_env(),
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        code = proc.wait(timeout=120)
        err.seek(0)
        stderr = err.read()
    assert json.loads(first)["p"] == 19
    assert "Traceback" not in stderr
    assert (code, stderr) == (cli.BROKEN_PIPE, "")


def test_search_unbuffered_stdout_gives_the_golden_digest(tmp_path):
    """With PYTHONUNBUFFERED=1 each write reaches the file as it is made;
    a cold run's bytes are the same."""
    template = write_config(tmp_path, STREAM_TEMPLATES["3-chain a=7"])
    proc = subprocess.run(
        [sys.executable, "-m", "rbdcalc.cli", "search", "--template", template],
        capture_output=True,
        env={**child_env(), "PYTHONUNBUFFERED": "1"},
    )
    assert proc.returncode == 0
    assert hashlib.sha256(proc.stdout).hexdigest() == A7_STREAM_DIGEST


# -- malformed input files and arguments, cold ---------------------------------

# file contents no JSON reader accepts, by what goes wrong: bytes that are not
# UTF-8, nesting past the recursion limit, an integer past the interpreter's
# 4,300-digit limit, a byte-order mark; None stands for a directory or no file
BAD_FILES = {
    "non-utf8": b"\xff",
    "too-deep": b"[" * 200_000,
    "huge-integer": b"[" + b"9" * 5000 + b"]",
    "bom": b"\xef\xbb\xbf[]",
    "directory": None,
    "missing": None,
}
# the same faults as one inline argument, which a single argv entry must hold
BAD_INLINE = {
    "non-utf8": b"\xff",
    "too-deep": b"[" * 100_000,
    "huge-integer": b"[" + b"9" * 5000 + b"]",
    "bom": "\ufeff[]".encode(),
}
# argv with BAD for the input under test; every other input is valid
BAD_INPUT_COMMANDS = {
    "verify-config": ["verify-config", "BAD"],
    "blowdown": ["blowdown", "BAD"],
    "blowdown --delta": ["blowdown", str(A3), "--delta", "@BAD"],
    "sw --config": ["sw", "--config", "BAD", "--K", "[1]", "--H", "[1]"],
    "sw --K @file": ["sw", "--config", str(A3), "--K", "@BAD", "--H", "[1]"],
    "search --template": ["search", "--template", "BAD"],
}


def run_cold(argv) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "rbdcalc.cli", *argv], capture_output=True, env=child_env()
    )


@pytest.mark.parametrize(
    "command, fault",
    [(c, f) for c in BAD_INPUT_COMMANDS for f in BAD_FILES]
    + [("sw --K inline", f) for f in BAD_INLINE],
)
def test_malformed_input_exits_2_with_one_line(tmp_path, command, fault):
    """Every undecodable, unreadable or absent input, file or inline, ends a
    cold run with exit 2 and one `rbdcalc:` line on stderr."""
    if command == "sw --K inline":
        argv = ["sw", "--config", str(A3), "--K", BAD_INLINE[fault], "--H", "[1]"]
    else:
        bad = tmp_path / "bad.json"
        if fault == "directory":
            bad.mkdir()
        elif BAD_FILES[fault] is not None:
            bad.write_bytes(BAD_FILES[fault])
        argv = [arg.replace("BAD", str(bad)) for arg in BAD_INPUT_COMMANDS[command]]
    proc = run_cold(argv)
    stderr = proc.stderr.decode("utf-8", "backslashreplace")
    assert b"Traceback" not in proc.stderr
    assert proc.returncode == 2
    assert len(stderr.splitlines()) == 1
    assert stderr.startswith("rbdcalc: ")


# well-formed JSON that is no template: a misspelt key, a root that is not an
# object, a template without n, values of another kind, a value of a removed
# placement mode, and a chain that does not fit
BAD_TEMPLATES = {
    "unknown key": (
        {"n": 4, "p": 3, "tail_bounds": 2, "symetry_reduction": False},
        "unknown key 'symetry_reduction'",
    ),
    "array root": ([1, 2], "expected an object with n, p, tail_bounds"),
    "missing key": ({"p": 3, "tail_bounds": 2}, "missing key 'n'"),
    "body_shape as an integer": (
        {"n": 4, "p": 3, "tail_bounds": 2, "body_shape": 3},
        "body_shape must be a string, got 3",
    ),
    "symmetry_reduction as an integer": (
        {"n": 4, "p": 3, "tail_bounds": 2, "symmetry_reduction": 1},
        "symmetry_reduction must be true or false, got 1",
    ),
    "symmetry_reduction off": (
        {"n": 4, "p": 3, "tail_bounds": 2, "symmetry_reduction": False},
        "symmetry_reduction must be true: the search takes only the anchored placement",
    ),
    "free-pairs body_shape": (
        {"n": 4, "p": 3, "tail_bounds": 2, "body_shape": "free-pairs"},
        'body_shape must be "consecutive-differences": the search takes only the anchored '
        "placement",
    ),
    "unknown body_shape": (
        {"n": 4, "p": 3, "tail_bounds": 2, "body_shape": "zig"},
        'body_shape must be "consecutive-differences": the search takes only the anchored '
        "placement",
    ),
    "n as a boolean": ({"n": True, "p": 3, "tail_bounds": 2}, "n must be an integer, got True"),
    "tail_bounds as a string": (
        {"n": 4, "p": 3, "tail_bounds": "2"},
        "tail_bounds must be an integer or an array, got '2'",
    ),
    "tail_bounds with a string entry": (
        {"n": 4, "p": 3, "tail_bounds": [2, 2, "2", 2, 2]},
        "tail_bounds entry must be an integer, got '2'",
    ),
    "chain does not fit": (
        {"n": 2, "p": 5, "tail_bounds": 1},
        "chain does not fit: rank p - 1 = 4 exceeds the negative rank n = 2",
    ),
    # one bound for 10^22 + 1 coordinates is more than a tuple can hold,
    # and for 10^15 + 1 more memory than the address space
    "n of 10^22 with one bound": (
        {"n": 10**22, "p": 3, "tail_bounds": 1},
        f"need n <= {MAX_N}, got n = {10**22}",
    ),
    "n of 10^15 with one bound": (
        {"n": 10**15, "p": 3, "tail_bounds": 1},
        f"need n <= {MAX_N}, got n = {10**15}",
    ),
    # 64 body rows of 200,001 coefficients: about 400 MB once built
    "a body past one row at MAX_N": (
        {"n": 200_000, "p": 66, "tail_bounds": 0},
        f"need (p - 2)(n + 1) <= {MAX_N + 1} body coefficients, got p = 66, n = 200000",
    ),
}


@pytest.mark.parametrize("fault", BAD_TEMPLATES)
def test_malformed_template_exits_2_with_one_line(tmp_path, fault):
    template, message = BAD_TEMPLATES[fault]
    path = write_config(tmp_path, template, "template.json")
    proc = run_cold(["search", "--template", path])
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr.decode() == f"rbdcalc: {path}: malformed template: {message}\n"


def test_a_body_of_10_to_the_12_coefficients_is_refused_at_once(tmp_path):
    """The body bound is read off n and p before any body row is built, so
    a 40-byte template asking for about 10^12 coefficients exits 2 in well
    under a second."""
    template = {"n": MAX_N, "p": MAX_N, "tail_bounds": 0}
    path = write_config(tmp_path, template, "template.json")
    started = time.perf_counter()
    code, out, err = run_in_process(["search", "--template", path])
    assert time.perf_counter() - started < 1.0
    assert (code, out) == (2, "")
    assert err.endswith(f"got p = {MAX_N}, n = {MAX_N}\n")


# edits of the recorded data of family1/a3 (None deletes the key): the stage
# that reads the key and the error it fails with
BAD_RECORDED = {
    "handles without h3": ("handles", {"handles": {"h2": 10}}, "InputTypeError: missing key 'h3'"),
    "handles as an array": (
        "handles", {"handles": [1, 2]}, "InputTypeError: handles must be an object, got [1, 2]"
    ),
    "counts as an integer": (
        "handles", {"handles": {"counts": 5}}, "InputTypeError: counts must be an array, got 5"
    ),
    "h2 as a float": (
        "handles", {"handles": {"h2": 10.0, "h3": 2}}, "InputTypeError: h2 must be an integer, got 10.0"
    ),
    "no K": ("sw", {"K": None}, "InputTypeError: missing key 'K'"),
    "no H": ("sw", {"H": None}, "InputTypeError: missing key 'H'"),
    "K as an integer": ("sw", {"K": 5}, "InputTypeError: K must be an array, got 5"),
    "counts beside h2 and hx": (
        "handles",
        {"handles": {"counts": [1, 0, 11, 2, 1], "h2": 99, "hx": 1}},
        "InputTypeError: unknown key 'h2'",
    ),
    "h2 and h3 beside hx": (
        "handles", {"handles": {"h2": 10, "h3": 2, "hx": 1}}, "InputTypeError: unknown key 'hx'"
    ),
    "negative counts": (
        "handles",
        {"handles": {"counts": [1, 0, -5, 2, 1]}},
        "DomainError: handle counts must be nonnegative, got [1, 0, -5, 2, 1]",
    ),
}


@pytest.mark.parametrize("fault", BAD_RECORDED)
def test_malformed_recorded_data_fails_its_stage_naming_the_key(tmp_path, fault):
    """The stage reading a missing or malformed recorded value fails with a
    message naming its key, the run exits 1 and stderr stays empty."""
    stage, edit, message = BAD_RECORDED[fault]
    root = tmp_path / "fixtures"
    shutil.copytree(FIXTURES, root)
    target = root / "family1" / "a3.json"
    data = {**json.loads(target.read_text()), **edit}
    target.write_text(json.dumps({k: v for k, v in data.items() if v is not None}))
    proc = run_cold(["reproduce-paper", "--only", "a=3,family=1", "--fixtures", str(root)])
    assert (proc.returncode, proc.stderr) == (1, b"")
    (case,) = json.loads(proc.stdout)["cases"]
    order = ["load", "verify", "blowdown", "handles", "sw"]
    assert sorted(case["stages"]) == sorted(order[: order.index(stage) + 1])
    assert case["stages"][stage] == {"status": "fail", "error": message}


@pytest.mark.parametrize("command", ["verify-config", "blowdown", "sw"])
def test_config_with_an_unknown_key_exits_2_with_one_line(tmp_path, command):
    """Beside p, n and classes a configuration holds only the fixture keys."""
    path = write_config(tmp_path, {**json.loads(A3.read_text()), "note": "x"})
    argv = {
        "verify-config": ["verify-config", path],
        "blowdown": ["blowdown", path],
        "sw": ["sw", "--config", path, "--K", "[1]", "--H", "[1]"],
    }[command]
    proc = run_cold(argv)
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr.decode() == f"rbdcalc: {path}: unknown key 'note'\n"


def test_undecodable_fixture_fails_its_load_stage(tmp_path):
    root = tmp_path / "fixtures"
    shutil.copytree(FIXTURES, root)
    (root / "family1" / "a3.json").write_bytes(b"\xff")
    proc = run_cold(["reproduce-paper", "--only", "a=3,family=1", "--fixtures", str(root)])
    assert (proc.returncode, proc.stderr) == (1, b"")
    (case,) = json.loads(proc.stdout)["cases"]
    assert case["stages"] == {
        "load": {
            "status": "fail",
            "error": "UsageError: family1/a3.json is not valid JSON: 'utf-8' codec "
            "can't decode byte 0xff in position 0: invalid start byte",
        }
    }


# -- fuzz: generated JSON through cli.main ------------------------------------

SMALL = st.integers(-2, 12)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | SMALL | st.floats(-4, 4, width=16) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


def near(valid):
    """Mostly plausible values, sometimes any JSON value."""
    return st.one_of(valid, valid, JSON_VALUES)


@st.composite
def templates(draw):
    """Mostly well-formed boxes, one field sometimes replaced or dropped;
    body_shape and symmetry_reduction mostly at their one accepted value,
    else at a removed value or of another kind; now and then an n past
    MAX_N, with one bound for every coordinate, or at MAX_N, where a p
    above 3 gives a body of more than MAX_N + 1 coefficients."""
    if draw(st.integers(0, 4)) == 0:
        return draw(JSON_VALUES)
    if draw(st.integers(0, 9)) == 0:
        n = draw(st.sampled_from([MAX_N, MAX_N + 1, 10**15, 10**22]))
        bounds = st.integers(0, 3)
    else:
        n = draw(st.integers(1, 8))
        bounds = st.integers(0, 3) | st.lists(st.integers(0, 3), min_size=n + 1, max_size=n + 1)
    template = {
        "n": n,
        "p": draw(st.integers(2, 7)),
        "tail_bounds": draw(bounds),
        "body_shape": draw(st.sampled_from(["consecutive-differences"] * 3 + ["free-pairs", 3])),
        "symmetry_reduction": draw(st.sampled_from([True] * 3 + [False, "true"])),
    }
    key = draw(st.sampled_from([None] * 5 + sorted(template)))
    if key is not None:
        template[key] = draw(JSON_VALUES)
        if template[key] is None:  # a drawn null drops the field
            del template[key]
    return template


FIXTURE_PAYLOADS = [json.loads(path.read_text()) for path in sorted(FIXTURES.glob("*/*.json"))]
VECTORS = st.lists(st.integers(-3, 3), min_size=1, max_size=13) | JSON_VALUES


@st.composite
def configs(draw):
    """A fixture, possibly with one field replaced, or a small random config."""
    if draw(st.booleans()):
        data = dict(draw(st.sampled_from(FIXTURE_PAYLOADS)))
        if draw(st.booleans()):
            data[draw(st.sampled_from(["p", "n", "classes", "K", "H"]))] = draw(JSON_VALUES)
        return data
    rows = st.lists(st.lists(st.integers(-3, 3), min_size=1, max_size=5), max_size=4)
    small = st.fixed_dictionaries(
        {"p": near(st.integers(1, 4)), "n": near(st.integers(0, 4)), "classes": near(rows)}
    )
    return draw(JSON_VALUES | small)


def run_in_process(argv) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of cli.main, argparse's SystemExit included."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            assert exc.code == 2
            code = 2
    assert code in (0, 1, 2)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def well_formed(template) -> bool:
    """Whether the search takes a template, stated apart from its loader: an
    object with the keys n, p and tail_bounds, and body_shape and
    symmetry_reduction only at "consecutive-differences" and true; integers
    2 <= p <= n + 1 <= MAX_N + 1 with (p - 2)(n + 1) <= MAX_N + 1; one
    nonnegative integer bound, or n + 1."""
    keys = {"n", "p", "tail_bounds"}
    optional = {"body_shape", "symmetry_reduction"}
    if type(template) is not dict or not keys <= set(template) <= keys | optional:
        return False
    n, p, bounds = template["n"], template["p"], template["tail_bounds"]
    if type(n) is not int or type(p) is not int or not 2 <= p <= n + 1 <= MAX_N + 1:
        return False
    if (p - 2) * (n + 1) > MAX_N + 1:
        return False
    if type(bounds) is list and len(bounds) == n + 1:
        ok = all(type(b) is int and b >= 0 for b in bounds)
    else:
        ok = type(bounds) is int and bounds >= 0
    shape = template.get("body_shape", "consecutive-differences")
    reduced = template.get("symmetry_reduction", True)
    return ok and shape == "consecutive-differences" and reduced is True


@settings(max_examples=120)
@given(templates())
def test_fuzz_search_templates(fuzz_dir, template):
    """A well-formed template exits 0 or 1 and any other exits 2; at 0,
    stdout holds the per-hit json.dumps line of every hit, built by the
    constructor, and the trailer counts them as theta_count does."""
    path = fuzz_dir / "template.json"
    path.write_text(json.dumps(template))
    code, out, err = run_in_process(["search", "--template", str(path), "--cap", "10000"])
    assert (code in (0, 1)) == well_formed(template)
    if code != 0:
        assert out == ""
        return
    box = SearchTemplate.from_json(template)
    hits = configurations(search_hits(box))
    lines = [json.dumps(cfg.to_json(), sort_keys=True, separators=(",", ":")) for cfg in hits]
    assert out.splitlines() == lines
    assert json.loads(err)["count"] == theta_count(box.n, box.p, box.tail_bounds) == len(lines)


@settings(max_examples=120)
@given(
    configs(),
    st.sampled_from(["verify-config", "blowdown", "delta", "sw", "sw-own"]),
    VECTORS,
    VECTORS,
)
def test_fuzz_config_commands(fuzz_dir, config, command, first, second):
    path = str(fuzz_dir / "config.json")
    Path(path).write_text(json.dumps(config))
    n = config.get("n") if isinstance(config, dict) else None

    def fit(vector):  # a nonempty list resized to the config's rank, when it has one
        if isinstance(vector, list) and vector and type(n) is int and 0 <= n <= 40:
            return (vector * (n + 1))[: n + 1]
        return vector

    if command == "delta":
        argv = ["blowdown", path, "--delta", json.dumps(fit(first))]
    elif command.startswith("sw"):
        if command == "sw-own" and isinstance(config, dict):
            first, second = config.get("K"), config.get("H")
        k, h = json.dumps(fit(first)), json.dumps(fit(second))
        argv = ["sw", "--config", path, "--K", k, "--H", h]
    else:
        argv = [command, path]
    _, out, _ = run_in_process(argv)
    # one indented sorted-key document, or nothing
    assert out == "" or json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n" == out
