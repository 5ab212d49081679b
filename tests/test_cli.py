"""End-to-end checks of the command-line front end: report schema, byte
reproducibility, exit codes, and a few pinned values."""
import importlib.resources
import json
import math
import shlex
from pathlib import Path

import jsonschema
import pytest
from click.testing import CliRunner

from helpers import run_bounded
from qres import cli
from qres.cli import _fragment, main
from qres.currents import pairings

SCHEMA = json.loads(importlib.resources.files("qres")
                    .joinpath("report_schema.json").read_text())

CHEAP_RESIDUE = ["residue", "-f", "z1 ; 0", "--phi22", "bump",
                 "--radial", "z2", "--schedule", "0.4,0.7,3",
                 "--n-eta", "8", "--n-xi", "8"]


def invoke(args, env=None):
    return CliRunner().invoke(main, args, env=env)


def report(args, env=None):
    res = invoke(args, env=env)
    assert res.exit_code == 0, res.output
    data = json.loads(res.output)
    jsonschema.validate(data, SCHEMA)
    return data


def test_catalogue_lists_every_model_function():
    data = report(["catalogue"])
    names = [row["name"] for row in data["result"]]
    assert names == ["conj", "cauchy_kernel", "F", "prop34", "holo", "q_conj"]
    assert data["exact"] is True


def test_catalogue_single_entry_flags():
    data = report(["catalogue", "--name", "conj"])
    (row,) = data["result"]
    assert row["f1"] == "c1" and row["f2"] == "c2"
    assert row["hyperholomorphic"] is True
    assert row["hypermeromorphic"] is False
    assert row["zero_set_kind"] == "point"


def test_apply_d_reports_constant_derivative():
    data = report(["apply-d", "-f", "F", "--at", "0,0,0,0"])
    assert data["result"]["d1"] == "-1/2"
    assert data["result"]["is_zero"] is False
    assert data["result"]["value"] == [-0.5, 0.0, 0.0, 0.0]


def test_hypermero_residual_of_conjugation():
    data = report(["hypermero", "-f", "conj"])
    assert data["result"]["eq3"] == "z1 - c1"
    assert data["result"]["eq4"] == "0"
    assert data["result"]["hypermeromorphic"] is False


def test_inverse_evaluates_pointwise():
    data = report(["inverse", "-f", "conj", "--at", "0,1,0,0"])
    # conjugation sends i to -i, whose reciprocal is i again
    assert data["result"]["value"] == [0.0, 1.0, 0.0, 0.0]


def test_classify_closure_against_partners():
    data = report(["classify", "-f", "conj", "--partner", "conj"])
    assert data["result"]["eq3"] == "z1 - c1"
    assert data["result"]["closure"] == [
        {"sum_hypermeromorphic": False, "product_hypermeromorphic": False}]
    data = report(["classify", "-f", "prop34", "--params", "1,2",
                   "--partner", "prop34"])
    assert data["result"]["hyperholomorphic"] is True
    assert data["result"]["closure"] == [
        {"sum_hypermeromorphic": True, "product_hypermeromorphic": True}]


def test_product_rule_holds_for_conjugation_squared():
    data = report(["product-rule", "--f", "conj", "--g", "conj"])
    assert data["result"]["is_zero"] is True


def test_product_compat_real_specialization():
    data = report(["product-compat", "--real",
                   "--f", "z1 + c1 ; z2 + c2", "--g", "1 ; 0"])
    assert data["result"]["residual1"] == "2"
    assert data["result"]["residual2"] == "0"
    assert data["result"]["is_zero"] is False


def test_reports_are_byte_reproducible():
    first = invoke(CHEAP_RESIDUE)
    second = invoke(CHEAP_RESIDUE)
    assert first.exit_code == 0 and second.exit_code == 0
    assert first.output == second.output
    jsonschema.validate(json.loads(first.output), SCHEMA)


@pytest.mark.parametrize("region", ["metric", "levelset"])
def test_pv_reports_are_byte_reproducible(region):
    # the README's pv example, on the per-ray split of a homogeneous f
    args = ["pv", "-f", "z1 ; 0", "--psi1", "z1*bump", "--n-eta", "16",
            "--n-xi", "32", "--region", region]
    first = invoke(args)
    second = invoke(args)
    assert first.exit_code == 0 and second.exit_code == 0
    assert first.output == second.output
    jsonschema.validate(json.loads(first.output), SCHEMA)


def test_csv_table_shape():
    res = invoke(CHEAP_RESIDUE + ["--format", "csv"])
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert lines[0] == "epsilon,re1,im1,re_j,im_j"
    assert len(lines) == 4
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == 5
        float(fields[0])


def test_unknown_name_is_a_usage_error():
    assert invoke(["classify", "-f", "nosuch"]).exit_code == 2


def test_parse_error_is_a_usage_error():
    assert invoke(["apply-d", "-f", "z1 + * z2 ; 0"]).exit_code == 2


@pytest.mark.parametrize("args", [
    ["pv", "-f", "z1 ; 0", "--psi1", "z1*bump"],
    ["residue", "-f", "conj", "--phi22", "bump"],
], ids=["pv", "residue"])
def test_oversized_rule_is_refused_before_it_is_built(monkeypatch, args):
    # 4096 x 4096^2 chart rays: the count is checked before the quadrature
    # rule (let alone a mesh) exists
    def build(*a):
        raise AssertionError("the rule was built")

    monkeypatch.setattr(cli, "build_quadrature", build)
    res = invoke(args + ["--n-eta", "4096", "--n-xi", "4096"])
    assert res.exit_code == 2
    assert res.stdout == ""
    assert len(res.stderr.splitlines()) == 1
    assert res.stderr.startswith("usage error: the rule needs ")


def test_usage_errors_take_one_line():
    res = invoke(["pv", "-f", "z1 ; 0", "--psi1", "bump", "--n-eta", "2"])
    assert res.exit_code == 2
    assert res.stderr == ("usage error: rule 2x64 is too coarse: need "
                          "n_eta >= 4 and n_xi >= 8\n")


def test_zero_function_inverse_is_a_domain_error():
    res = invoke(["inverse", "-f", "0 ; 0"])
    assert res.exit_code == 3


@pytest.mark.parametrize("args", [
    ["residue", "-f", "0 ; 0", "--phi22", "bump"],
    ["pv", "-f", "0 ; 0", "--psi1", "bump"],
], ids=["residue", "pv"])
def test_zero_function_pairing_is_a_domain_error(monkeypatch, args):
    # no level set of f = 0 is ever crossed, so every residue rung was an
    # exact zero that passed as converged; both pairings refuse f = 0
    # before a mesh is built
    def build(*a):
        raise AssertionError("a mesh was built")

    monkeypatch.setattr(pairings._RayMesh, "build", classmethod(build))
    res = invoke(args + ["--n-eta", "4", "--n-xi", "8", "--strict"])
    assert res.exit_code == 3
    assert res.stdout == ""
    assert res.stderr == ("domain error: f is identically zero, so 1/f has "
                          "no currents to pair\n")


def test_strict_flag_exits_nonzero_when_unconverged():
    # three rungs can never satisfy the convergence window
    res = invoke(CHEAP_RESIDUE + ["--strict"])
    assert res.exit_code == 4
    # the report is still emitted before the verdict
    data = json.loads(res.output.splitlines()[0])
    assert data["result"]["converged"] is False


def test_lost_level_set_is_not_a_converged_zero():
    # prop34(1/8, -1/8) vanishes on a real 2-plane off the origin: the rungs
    # below |f(0)| = 0.177 lose the level set, and used to pass as a
    # converged zero with exit 0
    res = invoke(["residue", "-f", "prop34", "--params", "0.125,-0.125",
                  "--phi22", "bump", "--schedule", "0.4,0.7,8",
                  "--n-eta", "8", "--n-xi", "16", "--strict"])
    assert res.exit_code == 4
    assert len(res.stderr.splitlines()) == 1
    data = json.loads(res.stdout)
    jsonschema.validate(data, SCHEMA)
    assert data["result"]["converged"] is False
    assert any("not radial graphs" in note
               for note in data["diagnostics"]["notes"])


def test_no_mirror_is_recorded_in_the_report():
    data = report(CHEAP_RESIDUE + ["--no-mirror"])
    assert data["diagnostics"]["part"] == "(1,0)"
    assert data["inputs"]["mirror"] is False


def test_pv_conjugate_part_is_marked():
    data = report(["pv", "-f", "z1 ; 0", "--psi1", "bump",
                   "--schedule", "0.3,0.7,3", "--n-eta", "8", "--n-xi", "8",
                   "--part", "(0,1)"])
    assert data["diagnostics"]["part"] == "(0,1)"
    assert any("conjugation" in n for n in data["diagnostics"]["notes"])


def test_oracle_1d_residue_recovers_two_pi_i():
    data = report(["oracle-1d", "--principal", "1",
                   "--schedule", "0.25,0.55,8", "--n-theta", "128"])
    value = data["result"]["value"]
    assert abs(value[0]) < 1e-8
    assert abs(value[1] - 2 * math.pi) < 1e-6
    assert data["result"]["converged"] is True


OVERFLOWING_PRINCIPAL = ",".join(["0"] * 399 + ["1"])


@pytest.mark.parametrize("kind", ["residue", "pv"])
def test_oracle_1d_overflowing_pole_exits_3_without_output(kind):
    # a fresh interpreter, so numpy warnings would reach stderr unfiltered
    res = run_bounded(["-m", "qres.cli", "oracle-1d", "--kind", kind,
                       "--principal", OVERFLOWING_PRINCIPAL])
    assert res.returncode == 3
    assert res.stdout == ""
    assert len(res.stderr.splitlines()) == 1
    assert res.stderr.startswith("domain error: ")


def test_chart_rays_in_the_zero_set_are_a_domain_error():
    # n_xi = 32 puts chart rays in the zero plane of prop34, where 1/f is
    # rounding noise times 1e16; this once exited 0, converged, at -1.4e13
    res = run_bounded(["-m", "qres.cli", "pv", "-f", "prop34", "--psi1",
                       "bump", "--n-eta", "16", "--n-xi", "32", "--strict"])
    assert res.returncode == 3
    assert res.stdout == ""
    assert res.stderr.splitlines() == [
        "domain error: density is singular inside the integration region"]


@pytest.mark.parametrize("spec", ["z1^100000 ; 0", "z1^2000 ; c2^3"])
def test_classify_of_an_overflowing_function_stays_quiet(spec):
    # |f| overflows on part of the sample window; the cross-check once let
    # those samples through, printed numpy warnings and a note with "nan"
    res = run_bounded(["-m", "qres.cli", "classify", "-f", spec])
    assert res.returncode == 0
    assert res.stderr == ""
    assert "nan" not in res.stdout
    json.loads(res.stdout)


def test_version_prints_one_line_from_a_source_tree():
    # click looked the version up in the installed package metadata and
    # ended in a traceback when qres ran from src/ without being installed
    res = run_bounded(["-m", "qres.cli", "--version"])
    assert res.returncode == 0
    assert res.stdout == "qres, version 0.1.0\n"
    assert res.stderr == ""


@pytest.mark.parametrize("args, code", [
    (["residue", "-f", "conj", "--phi22", "bump",
      "--schedule", "0.3,1e-200,3"], 2),
    (["oracle-1d", "--kind", "pv", "--schedule", "0.2,1e-200,3"], 2),
    # the rungs and their squares are positive, but the first eta panel,
    # 0.2 eps / R, is not
    (["residue", "-f", "conj", "--phi22", "bump", "--R", "1e300",
      "--schedule", "1e-150,0.5,3"], 2),
    # the rungs are positive, but the last one squared underflows
    (["residue", "-f", "conj", "--phi22", "bump", "--n-eta", "8",
      "--n-xi", "8", "--schedule", "1e-300,0.7,3"], 2),
    (["pv", "-f", "conj", "--psi1", "bump", "--schedule", "0.3,1e-200,3",
      "--n-eta", "4", "--n-xi", "8", "--region", "levelset"], 2),
], ids=["residue", "oracle-1d", "residue-panel", "residue-square",
        "pv-levelset"])
def test_underflowing_ladders_are_refused_at_once(args, code):
    # a ladder whose rungs round to 0 once hung the residue and the 1-D
    # principal value while they grew a list of panel edges, and gave a pv
    # rung at eps = 0 with exit 0; one whose eps^2 rounds to 0 gave rungs
    # that were all exactly 0, with exit 0
    res = run_bounded(["-m", "qres.cli", *args])
    assert res.returncode == code
    assert res.stdout == ""
    assert len(res.stderr.splitlines()) == 1
    assert "underflows" in res.stderr or "not positive" in res.stderr


@pytest.mark.parametrize("args", [
    ["classify", "-f", "prop34", "--params", "1,x"],
    ["classify", "-f", "prop34", "--params", "1/0,1"],
    ["product-rule", "--f", "prop34", "--g", "conj", "--params-f", "1,2,x"],
    ["residue", "-f", "conj", "--phi22", "bump", "--R", "0"],
    ["residue", "-f", "conj", "--phi22", "bump", "--R", "-1"],
    ["pv", "-f", "conj", "--psi1", "bump", "--R", "0"],
    ["pv", "-f", "conj", "--psi1", "bump", "--R", "-1"],
    ["oracle-1d", "--R", "0"],
    ["oracle-1d", "--R", "-1"],
    ["residue", "-f", "conj", "--phi22", "bump", "--R", "nan"],
    ["pv", "-f", "conj", "--psi1", "bump", "--R", "inf"],
    ["oracle-1d", "--R", "nan"],
    ["oracle-1d", "--R", "inf"],
    ["oracle-1d", "--n-theta", "0"],
], ids=lambda args: " ".join(args[:1] + args[-2:]))
def test_malformed_numbers_are_usage_errors(args):
    # these were reported as domain errors (exit 3), --n-theta 0 as a
    # float division by zero
    res = invoke(args)
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr and "domain error" not in res.stderr


ERROR_CASES = [
    (["classify", "-f", "nosuch"], 2, "usage error: "),
    (["apply-d", "-f", "z1 + * z2 ; 0"], 2, "usage error: "),
    (["apply-d", "-f", "(1) / (z1*c1)", "--at", "0,0,0,0"], 3,
     "domain error: "),
    (["inverse", "-f", "nosuch"], 2, "usage error: "),
    (["inverse", "-f", "0 ; 0"], 3, "domain error: "),
    (["product-rule", "--f", "nosuch", "--g", "conj"], 2, "usage error: "),
    (["product-rule", "--f", "c1*z1 ; 0", "--g", "conj"], 3,
     "domain error: "),
    (["hypermero", "-f", "(z1) / (0)"], 2, "usage error: "),
    (["product-compat", "--f", "conj", "--g", "nosuch"], 2, "usage error: "),
    (["product-compat", "--f", "conj", "--g", "conj"], 3, "domain error: "),
    (["residue", "-f", "conj", "--phi22", "bump", "--n-eta", "2"], 2,
     "usage error: "),
    (["residue", "-f", "0 ; 0", "--phi22", "bump", "--n-eta", "4",
      "--n-xi", "8"], 3, "domain error: "),
    (["pv", "-f", "conj", "--psi1", "bump", "--n-xi", "4"], 2,
     "usage error: "),
    (["pv", "-f", "0 ; 0", "--psi1", "bump", "--n-eta", "4",
      "--n-xi", "8"], 3, "domain error: "),
    # a usage error raised by click inside the command takes one line too
    (["oracle-1d", "--power", "-1"], 2, "usage error: "),
    (["oracle-1d", "--principal", OVERFLOWING_PRINCIPAL], 3,
     "domain error: "),
    (["catalogue", "--name", "nosuch"], 2, "usage error: "),
]


@pytest.mark.parametrize("args, code, prefix", ERROR_CASES,
                         ids=[f"{a[0]}-{c}" for a, c, _ in ERROR_CASES])
def test_every_subcommand_maps_errors_to_exit_codes(args, code, prefix):
    res = invoke(args)
    assert res.exit_code == code
    assert res.stdout == ""
    assert res.stderr.startswith(prefix)
    assert len(res.stderr.splitlines()) == 1


@pytest.mark.parametrize("args, message", [
    (["residue", "-f", "conj", "--phi22", "bump",
      "--schedule", "0.3,1e-200,3"],
     "bad schedule: the ladder underflows: its last rung rounds to 0"),
    (["pv", "-f", "conj", "--psi1", "bump", "--schedule", "0.3,0.5"],
     "--schedule must be 'default' or 'eps0,ratio,count'"),
    (["pv", "-f", "conj", "--psi1", "bump", "--R", "nan"],
     "Invalid value for '--R': nan is not a positive finite number"),
    (["pv", "--psi1", "bump"], "Missing option '--function' / '-f'."),
    (["residue", "-f", "conj", "--n-eta", "x"],
     "Invalid value for '--n-eta': 'x' is not a valid integer."),
    (["nosuch"], "No such command 'nosuch'."),
], ids=["schedule-value", "schedule-shape", "R-nan", "missing", "type",
        "command"])
def test_click_usage_errors_take_one_line(args, message):
    # click printed "Usage: ...", "Try ...", a blank line and "Error: ..."
    res = invoke(args)
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr == f"usage error: {message}\n"


@pytest.mark.parametrize("args", [
    ["oracle-1d"],
    ["pv", "-f", "z1 ; 0", "--psi1", "bump", "--n-eta", "4", "--n-xi", "8"],
], ids=["oracle-1d", "pv"])
def test_long_ladders_are_usage_errors(args):
    # the ladder is refused as it is parsed, before any rung exists
    res = invoke(args + ["--schedule", "0.2,0.9999999,100000000"])
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr == ("usage error: bad schedule: the ladder has "
                          "100000000 rungs; at most 100 are allowed\n")


def readme_commands():
    """Every qres command of the README's CLI block, continuation lines
    joined, as argument lists without the program name."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1]
    block = block.split("```", 1)[0].replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("qres ")]


README_COMMANDS = readme_commands()


def test_the_readme_cli_block_is_found():
    assert {"catalogue", "residue", "pv", "oracle-1d"} <= {
        args[0] for args in README_COMMANDS}
    # the residue example's continuation line is joined to it
    assert any(args[0] == "residue" and args[-2:] == ["--format", "csv"]
               for args in README_COMMANDS)


@pytest.mark.parametrize("args", README_COMMANDS,
                         ids=[" ".join(a[:3]) for a in README_COMMANDS])
def test_readme_commands_run_and_reproduce(args):
    first, second = invoke(args), invoke(args)
    assert first.exit_code == 0, first.output
    assert first.stdout == second.stdout
    if "--format" in args:
        header, *rows = first.stdout.splitlines()
        assert header == "epsilon,re1,im1,re_j,im_j"
        assert rows and all(len(r.split(",")) == 5 for r in rows)
    else:
        jsonschema.validate(json.loads(first.stdout), SCHEMA)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_report_refuses_non_finite_floats(x):
    with pytest.raises(ValueError, match="non-finite"):
        _fragment({"value": [0.5, x]})
