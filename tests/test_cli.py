"""End-to-end runs of the command line interface."""

import hashlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rbdcalc
import rbdcalc.blowdown as blowdown_module
import rbdcalc.snf as snf_module
from rbdcalc import cli
from rbdcalc.chains import standard_configuration
from rbdcalc.families import FIXTURE_CASES, family_configuration, family_h1_witness
from rbdcalc.search import BODY_SHAPES, SearchTemplate, family_question_dimensions, search

from oracles import signed_permutation

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
        ({"p": 2, "n": 1, "classes": 5}, "malformed class data: 'int' object is not iterable"),
        ({"p": 2, "n": 1, "classes": ["ab"]}, "coefficient must be an integer, got 'a'"),
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
    "unreduced consecutive": {"n": 6, "p": 3, "tail_bounds": 2, "symmetry_reduction": False},
    "unreduced free-pairs": {
        "n": 5,
        "p": 3,
        "tail_bounds": 2,
        "body_shape": "free-pairs",
        "symmetry_reduction": False,
    },
    "p=2": {"n": 5, "p": 2, "tail_bounds": 2},
}


@pytest.mark.parametrize("name", STREAM_TEMPLATES)
def test_search_stream_is_byte_identical_to_per_hit_json(capsys, tmp_path, name):
    """Each line equals json.dumps of its hit, however the frame is reused."""
    payload = STREAM_TEMPLATES[name]
    code, out, err = run_cli(capsys, "search", "--template", write_config(tmp_path, payload))
    assert code == 0
    lines = out.split("\n")
    assert lines.pop() == ""
    hits = search(SearchTemplate.from_json(payload))
    assert len(lines) == json.loads(err)["count"] == len(hits)
    for line, cfg in zip(lines, hits):
        assert line == json.dumps(cfg.to_json(), sort_keys=True, separators=(",", ":"))
    if name.startswith("unreduced"):
        assert len({cfg.classes[:-1] for cfg in hits}) > 1


def test_search_stream_matches_golden_digest(capsys, tmp_path):
    """The whole stdout of the 3-chain a=7 question, pinned byte for byte."""
    template = write_config(tmp_path, STREAM_TEMPLATES["3-chain a=7"])
    code, out, _ = run_cli(capsys, "search", "--template", template)
    assert code == 0
    assert out.count("\n") == 3894
    assert sha256(out) == "a8cd743e4bef138e5eb2537dabde8d1bcd519a8981bd7b89e31f4bed61eced29"


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
    # the smallest-bound placement of this box has an empty t range
    payload = {"n": 4, "p": 3, "tail_bounds": [5, 0, 0, 5, 5], "body_shape": "free-pairs"}
    unreduced = write_config(tmp_path, {**payload, "symmetry_reduction": False}, "unreduced.json")
    code, out, err = run_cli(capsys, "search", "--template", unreduced, "--cap", "1")
    assert (code, out) == (1, "")
    assert err.startswith("rbdcalc: estimated search space 108 exceeds cap 1")


def test_search_refuses_a_wide_box(capsys, tmp_path):
    """3^200000 points: the estimate is one power, so the refusal is quick."""
    wide = write_config(tmp_path, {"n": 200_000, "p": 2, "tail_bounds": 1})
    code, out, err = run_cli(capsys, "search", "--template", wide)
    assert (code, out) == (1, "")
    assert err.startswith("rbdcalc: estimated search space at least 2^316992 exceeds cap")


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
        ({"n": 5, "p": 2, "tail_bounds": 2, "body_shape": "zig"}, [], "unknown body shape"),
        ({"n": 5, "p": 2, "tail_bounds": 2, "body_shape": 3}, [], "body_shape must be a string"),
        ({"n": 5, "p": 2, "tail_bounds": -1}, [], "bounds must be nonnegative"),
        ({"n": 5, "p": 2, "tail_bounds": 2, "symmetry_reduction": "false"}, [], "true or false"),
        ({"n": 5, "p": 2, "tail_bounds": 2, "symmetry_reduction": 0}, [], "true or false"),
        ({"n": 5, "p": 2, "tail_bounds": 2}, ["--cap", "0"], "cap must be positive"),
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
    assert count == len(search(SearchTemplate.from_json(small))) == len(out.splitlines())
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
    assert case["stages"]["sw_negated"]["value"] == -1


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


# configurations the golden runs read from their working directory, written from the library
GENERATED_CONFIGS = {
    "family1_a11.json": lambda: family_configuration(11, 1).to_json(),
    "standard_p5_n6.json": lambda: standard_configuration(5, n=6).to_json(),
    "violation.json": lambda: {"p": 3, "n": 3, "classes": [[0, 1, -1, 0], [0, 1, 1, 1]]},
}


def golden_runs():
    """(name, argv) of the runs whose stdout digests are pinned below."""
    yield "reproduce-paper", ["reproduce-paper", "--fixtures", REL_FIXTURES]
    for case in FIXTURE_CASES:
        tag = f"family{case.family}/a{case.a}"
        path = f"{REL_FIXTURES}/{tag}.json"
        data = json.loads((REPO_ROOT / path).read_text())
        k, h = data["K"], json.dumps(data["H"])
        delta = json.dumps(list(family_h1_witness(case.a, case.family).coeffs))
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
    "reproduce-paper": "6f19bb8f2b5c5e3943990c68d4b9557642983f2b5c14d2a6f3da417b23be6b56",
    "verify-config family1/a3": "d1be4a36209536117e02bffea24befac02069d578a10ff486d3e2c9474ae1c0d",
    "sw family1/a3": "e87d4026b25c7c1018023e2204aba200335c93b79f15a1aab1237c6dd05799ff",
    "sw -K family1/a3": "4dbc17637f3479922861e9769bb07abdbe85e527f787aff3ac4cde3bc5ee4e08",
    "blowdown --delta family1/a3": "7e65fb1bb91a7e5c067e5466064e824a3dcc134b3d79916b4ca25393ef095360",
    "verify-config family1/a4": "36c440d1504f228d001765cb3d93b1c4eea7b79c3f191def6c8a8a9ed8182157",
    "sw family1/a4": "651b0888b0fc35190dd6a548cac7a08d163084d5a4f7dc164776839f4904af71",
    "sw -K family1/a4": "a7fd3d07cc916a43b14e7c28abfddf803a3cfa962d7705846dc83df4cdacfc99",
    "blowdown --delta family1/a4": "df25f69785d94630f3679cf4020258b53faf6106d1814779951462ed43d17a7d",
    "verify-config family1/a5": "57317ef3f526870e6c3d031af9182e29999966fbe758c0a1cb3dfb7bdd96b464",
    "sw family1/a5": "26baeb21e14d25b1381b04d2959390079860750622c12ca4dd55c7931afc9f2a",
    "sw -K family1/a5": "05d078c90f7a3a177abf2052d849b2e5bb5501ae58f76e7bb4ef1f5013a69e7f",
    "blowdown --delta family1/a5": "6b01b5f538ea80fca48411f248a60b367c2135789960cf469b5ea1f5ccf53a75",
    "verify-config family1/a6": "4d68be39ca0e1154f9fc95cbbc2b044e24ba2a5ef97903388519abbe0a92c456",
    "sw family1/a6": "f5c4068aecb8d45c14543c93ed0ba72844735e39eaf9dc8c68df4ec702bca566",
    "sw -K family1/a6": "0a6dc547abcb0e2a85b1bed1af0d2ece53bd7eb7527319bf0f85fa0c49d707ad",
    "blowdown --delta family1/a6": "7ed1b22d70bf4c64196eb87f5ef5cf3197ca270bd1da7696a95f778ef6dbb922",
    "verify-config family1/a7": "6500871c3f1aca3b77ad282e55608dc5f0476664856fb67449abdedcfe47aad6",
    "sw family1/a7": "7fb81d4f999149f795a2ca44dbf440181e554556d5e26f177888a406b08ef21e",
    "sw -K family1/a7": "118cf3921c8f479f17ae180903f37b09b65172cb59ac0209a89ea0fb1c4b42e3",
    "blowdown --delta family1/a7": "6c58f3150ffd629381ed1855f1e12a9f535ab35910c19d0d3fba92d0eb594bce",
    "verify-config family2/a3": "57e05589bf93e1c88a36d89abdbce1710653e43e899707bf984d4e356f01a8e9",
    "sw family2/a3": "8e8918d3fd903df16a35ee93924a972a012f37c85051827ebb5a50274de40463",
    "sw -K family2/a3": "a3c100bca47a0f3698f0b8ffcdf3078bffa8dfdd26daf2c0d350dccf9b7067fa",
    "blowdown --delta family2/a3": "123e4a9ef6f7f25463672ee7c4f62c267fdfca2cc53c3169ce1dcda600b17b41",
    "verify-config family2/a4": "822b80ce84cf61a54efa97331ca62c79e2f4781d3237e8d76b3c59dbed22c8ee",
    "sw family2/a4": "ed2cfc1bdb67739ff9800e1709c65d1bcc3977be0157ccddd079b3c6daf87223",
    "sw -K family2/a4": "951c84071bcf3f14c52f2e7e5e8e49b9cbc9c744c0a9ccd23a82e1352ab8a95c",
    "blowdown --delta family2/a4": "dee60b100def32a1b16afa919893cc695fb526a673358c1c730ffeb959dbe9e9",
    "verify-config family2/a5": "bea3ae4d3bc987351c11d3764f2851680a90f96bfb85cdf62f67c39acfae7143",
    "sw family2/a5": "e84fa4d3793ee647c90d3123b3429bb355a98fab446487d2401bbb423c74cc40",
    "sw -K family2/a5": "80cd8ea9e9e99e689ef7715bd46990e10956f89c527807fbaa2065f5555e9e8e",
    "blowdown --delta family2/a5": "c0110cdcbbf486c0bbe76513f42c1aaf4aea7329cc4fe5bbd63ebc060faf487a",
    "verify-config family2/a6": "4837eb36189d8bafbeebaeef1d0445ffe96c3eee71b36a1f51868253d275366c",
    "sw family2/a6": "b184ff29bc017f2e2dd03d78f80a286c4521c7eac30885ba9caa4821a09e0c02",
    "sw -K family2/a6": "d2e76bb230be982d93a6a3196699c356b0520e32ef41985d34db770285e294f1",
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
    "sw negative-dimension family1/a3": "879b0d8e1244472c39032ed1e00f455de94cf3a11050fbd97cd21b2e3a1b318e",
    "blowdown family1_a11.json": "be52bc47b082cc4241ee128cc55673611cc2a3ff845c148b0e8de7873f4fdb38",
    "blowdown standard_p5_n6.json": "8b7361675e705637ce1b70b757365bb31aaa0b62dbb6186938f61f33493600c8",
    "verify-config violation.json": "e42f9450afaff0e4aa8bc0abc6de149e2e73f024c81039aaa54a13370777b295",
}

# sha256 of the per-case files written by reproduce-paper --out
GOLDEN_REPORT_FILES = {
    "family1_a3.json": "64c18ce40867763f2331cd6292d294051568737238fd39e76468f0f8f9429bc8",
    "family1_a4.json": "34fb51db5e27da402cc4b21270a8c6ee79ab8787e76c474856dab4e44b056bb4",
    "family1_a5.json": "c7a5ae2f0ac53fef0d845c5b3f9600e7d51db18d6e77ef86ea13f70657e283b3",
    "family1_a6.json": "8d06fa94bc82966bb742b68ee14ee0e3ea45f0366131524ce1848e307c104302",
    "family1_a7.json": "b98e3971e15631925d7ccc66a7d636cf562a645a83b662943ec393393b5b0ee4",
    "family2_a3.json": "78727e78ce92e55f853a03e9005fee01428ea46a15c96e5b4abefe0af03bb542",
    "family2_a4.json": "47a35b551a512cbb534d39dc4df62235ecb499ebd7f7e2bbf9b0a8213920cb65",
    "family2_a5.json": "8d4ca3588c3992e5654d4c02d19405734ee9013d81b04b5417375a6d6b89b62c",
    "family2_a6.json": "598c4f53d7dce46a2d2b973a2d3f3bbadf3c43227bd85fe2b7a58dd88bf2a553",
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


def test_blowdown_without_delta_runs_no_smith_normal_form(capsys, monkeypatch, tmp_path):
    """The bodies blowdown meets on the fixtures and standard chains are
    signed paths, so H1 takes the closed form: with every binding of
    smith_normal_form raising, the nine fixtures and standard_p5_n6.json
    keep their golden bytes, and signed permutations of
    standard_configuration(5, 6) and (7, 6) get the SNF's divisors."""
    rng = random.Random(11)
    chains = {}
    for p in (5, 7):
        target = rng.sample(range(1, 7), 6)
        signs = [rng.choice((1, -1)) for _ in range(6)]
        rows = signed_permutation([u.coeffs for u in standard_configuration(p, 6).classes], target, signs)
        divisors = snf_module.smith_normal_form([[r[0]] + [-c for c in r[1:]] for r in rows]).diagonal
        chains[p] = (write_config(tmp_path, {"p": p, "n": 6, "classes": rows}, f"p{p}.json"), divisors)
    (tmp_path / "standard_p5_n6.json").write_text(json.dumps(GENERATED_CONFIGS["standard_p5_n6.json"]()))

    def refuse(rows):
        raise AssertionError("smith_normal_form called")

    # chains imports smith_normal_form from snf when cp_smith runs, so the
    # snf binding covers it
    for module in (blowdown_module, snf_module):
        monkeypatch.setattr(module, "smith_normal_form", refuse)
    monkeypatch.chdir(REPO_ROOT)
    for case in FIXTURE_CASES:
        tag = f"family{case.family}/a{case.a}"
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


@pytest.mark.parametrize(
    "key, value, error",
    [("K", None, "KeyError"), ("H", None, "KeyError"), ("K", 5, "TypeError")],
)
def test_reproduce_fails_sw_on_a_fixture_without_k_or_h(capsys, tmp_path, key, value, error):
    root = tmp_path / "fixtures"
    shutil.copytree(FIXTURES, root)
    target = root / "family1" / "a3.json"
    data = json.loads(target.read_text())
    if value is None:
        del data[key]
    else:
        data[key] = value
    target.write_text(json.dumps(data))
    code, out, err = run_cli(
        capsys, "reproduce-paper", "--only", "a=3,family=1", "--fixtures", str(root)
    )
    assert (code, err) == (1, "")
    stages = json.loads(out)["cases"][0]["stages"]
    assert sorted(stages) == ["blowdown", "handles", "load", "sw", "verify"]
    assert stages["sw"]["status"] == "fail"
    assert stages["sw"]["error"].startswith(error)


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
    """Mostly well-formed boxes, one field sometimes replaced or dropped."""
    if draw(st.integers(0, 4)) == 0:
        return draw(JSON_VALUES)
    n = draw(st.integers(1, 8))
    bounds = st.integers(0, 3) | st.lists(st.integers(0, 3), min_size=n + 1, max_size=n + 1)
    template = {
        "n": n,
        "p": draw(st.integers(2, 7)),
        "tail_bounds": draw(bounds),
        "body_shape": draw(st.sampled_from(BODY_SHAPES)),
        "symmetry_reduction": draw(st.booleans()),
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


def run_in_process(argv):
    """stdout of cli.main, after checking its exit code (argparse's SystemExit too)."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            assert exc.code == 2
            code = 2
    assert code in (0, 1, 2)
    return out.getvalue()


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=120)
@given(templates())
def test_fuzz_search_templates(fuzz_dir, template):
    path = fuzz_dir / "template.json"
    path.write_text(json.dumps(template))
    out = run_in_process(["search", "--template", str(path), "--cap", "10000"])
    for line in out.split("\n"):
        compact = line and json.dumps(json.loads(line), sort_keys=True, separators=(",", ":"))
        assert compact == line


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
    out = run_in_process(argv)
    # one indented sorted-key document, or nothing
    assert out == "" or json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n" == out
