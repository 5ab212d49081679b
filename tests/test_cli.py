"""End-to-end checks of the command-line front end: report schema, byte
reproducibility, exit codes, and a few pinned values."""
import importlib.resources
import json
import math
import re
import shlex
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import run_bounded
from qres import cli, errors
from qres.cli import _fragment, main
from qres.currents import pairings, quadrature

SCHEMA = json.loads(importlib.resources.files("qres")
                    .joinpath("report_schema.json").read_text())

CHEAP_RESIDUE = ["residue", "-f", "z1 ; 0", "--phi22", "bump",
                 "--radial", "z2", "--schedule", "0.4,0.7,3", "--n-xi", "8"]


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


@pytest.mark.parametrize("args, spied", [
    (["pv", "-f", "z1 ; 0", "--psi1", "z1*bump", "--n-eta", "4096"],
     ("gauss_legendre", "phase_grid")),
    # the residue's count grades its eta panels, which takes their small
    # Gauss-Legendre rule, so only the phase grid is spied on
    (["residue", "-f", "conj", "--phi22", "bump"], ("phase_grid",)),
], ids=["pv", "residue"])
def test_oversized_rule_is_refused_before_it_is_built(monkeypatch, args,
                                                      spied):
    # 4096^2 phase rays per eta node: the count is checked before any eta
    # node, phase grid or mesh exists
    def build(*a):
        raise AssertionError("the rule was built")

    for name in spied:
        monkeypatch.setattr(quadrature, name, build)
    monkeypatch.setattr(pairings._RayMesh, "build", classmethod(build))
    res = invoke(args + ["--n-xi", "4096"])
    assert res.exit_code == 2
    assert res.stdout == ""
    assert len(res.stderr.splitlines()) == 1
    assert res.stderr.startswith("usage error: the rule needs ")


@pytest.mark.parametrize("args, message", [
    (["--n-eta", "16384", "--n-xi", "8"], "the rule needs 16384 "
     "Gauss-Legendre nodes in eta; at most 2048 are allowed"),
    # a rule that also breaks the ray cap is refused for its rays
    (["--n-eta", "16384", "--n-xi", "16"], "the rule needs 4194304 chart "
     "rays per mesh; at most 1048576 are allowed"),
], ids=["order", "rays"])
def test_high_eta_orders_are_refused_before_their_nodes(monkeypatch, args,
                                                         message):
    # 16384 x 8^2 rays is exactly the ray cap; numpy's leggauss would take
    # minutes and gigabytes for the eta nodes
    def nodes(order):
        raise AssertionError("Gauss-Legendre nodes were computed")

    monkeypatch.setattr(quadrature, "gauss_legendre", nodes)
    res = invoke(["pv", "-f", "conj", "--psi1", "bump", *args])
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr == f"usage error: {message}\n"


@pytest.mark.parametrize("args, message", [
    (["--n-xi", "4"], "phase rule n_xi = 4 is too coarse: need n_xi >= 8"),
    (["--n-eta", "8"], "No such option '--n-eta'"),
], ids=["n-xi", "n-eta"])
def test_residue_takes_a_phase_rule_only(args, message):
    # every residue rung grades its own eta panels, so an eta order would
    # change nothing
    res = invoke(["residue", "-f", "conj", "--phi22", "bump", *args])
    assert res.exit_code == 2
    assert res.stdout == ""
    assert len(res.stderr.splitlines()) == 1
    assert res.stderr.startswith(f"usage error: {message}")


RULE_OPTIONS = [
    (["pv", "-f", "z1 + z2^2 ; 0", "--psi1", "z1*bump", "--n-xi", "8"],
     "--n-eta", ("4", "6")),
    (["pv", "-f", "z1 + z2^2 ; 0", "--psi1", "z1*bump", "--n-eta", "4"],
     "--n-xi", ("8", "10")),
    (["residue", "-f", "z1 + z2 ; 0", "--phi22", "bump"],
     "--n-xi", ("8", "10")),
    (["oracle-1d", "--power", "3"], "--n-theta", ("2", "3")),
]


@pytest.mark.parametrize("args, option, values", RULE_OPTIONS,
                         ids=[f"{a[0]} {o}" for a, o, _ in RULE_OPTIONS])
def test_every_rule_option_changes_the_result(args, option, values):
    # a rule option that leaves every rung as it was is a knob that does
    # nothing; residue --n-eta was one
    tables = [report(args + ["--schedule", "0.4,0.7,3", option, v])
              ["diagnostics"]["table"] for v in values]
    assert tables[0] != tables[1]


AVERAGED_COMMANDS = {
    "residue": ["residue", "-f", "conj", "--phi22", "bump",
                "--schedule", "0.4,0.7,8"],
    "pv": ["pv", "-f", "z1 ; 0", "--psi1", "z1*bump", "--n-eta", "8"],
}


@pytest.mark.parametrize("command", list(AVERAGED_COMMANDS))
def test_the_phase_rule_moves_no_averaged_result(command):
    # |f| of these depends on |z1| and |z2| only, so both phases are
    # integrated exactly and --n-xi changes no value; the report says so
    runs = [report(AVERAGED_COMMANDS[command] + ["--n-xi", n])
            for n in ("16", "32")]
    for data in runs:
        assert data["diagnostics"]["rule"]["phases"] == "averaged"
    assert runs[0]["result"] == runs[1]["result"]
    assert runs[0]["diagnostics"]["table"] == runs[1]["diagnostics"]["table"]
    # prop34 is not torus-invariant: its trapezoid rule reads --n-xi
    per_ray = [report(["residue", "-f", "prop34", "--phi22", "bump",
                       "--schedule", "0.4,0.7,3", "--n-xi", n])
               for n in ("16", "32")]
    for data in per_ray:
        assert data["diagnostics"]["rule"]["phases"] == "trapezoid"
    assert per_ray[0]["result"] != per_ray[1]["result"]


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
    ["pv", "-f", "0 ; 0", "--psi1", "bump", "--n-eta", "4"],
], ids=["residue", "pv"])
def test_zero_function_pairing_is_a_domain_error(monkeypatch, args):
    # no level set of f = 0 is ever crossed, so every residue rung was an
    # exact zero that passed as converged; both pairings refuse f = 0
    # before a mesh is built
    def build(*a):
        raise AssertionError("a mesh was built")

    monkeypatch.setattr(pairings._RayMesh, "build", classmethod(build))
    res = invoke(args + ["--n-xi", "8", "--strict"])
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
                  "--n-xi", "16", "--strict"])
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


def test_a_step_after_flat_rungs_has_no_difference_ratio():
    # the levelset rungs of this degree-0 f step as eps passes the |f| of
    # each ray (see test_level_sets_of_whole_rays_are_not_converged); a
    # nonzero difference after an exactly zero one reported x / 1e-300,
    # 6.2e299 and 2.3e299 here, and now reports null
    data = report(["pv", "-f", "(z1*c1) / (z1*c1 + z2*c2) ; 0",
                   "--psi1", "z1*bump", "--n-eta", "8", "--n-xi", "8",
                   "--region", "levelset"])
    rungs = [row[1] for row in data["diagnostics"]["table"]]
    diffs = [abs(b - a) for a, b in zip(rungs, rungs[1:])]
    assert data["diagnostics"]["diff_ratios"] == [0, 0, None, 0, 0, 0, 0,
                                                  None, 0, 0]
    assert [i for i, (a, b) in enumerate(zip(diffs, diffs[1:]))
            if a == 0 and b != 0] == [2, 7]
    assert data["result"]["converged"] is False


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


@pytest.mark.parametrize("kind, n_theta, nodes", [
    ("residue", 1_000_000_000, 1_000_000_000),
    ("residue", 1_048_577, 1_048_577),
    # the default ladder's last rung has 14 radial panels of 10 nodes
    ("pv", 1_000_000_000, 140_000_000_000),
    ("pv", 7_490, 1_048_600),
], ids=["residue", "residue-cap", "pv", "pv-cap"])
def test_oracle_1d_refuses_a_huge_rule_before_allocating(monkeypatch, kind,
                                                         n_theta, nodes):
    # --n-theta 1000000000 once ended in numpy's allocation error, a
    # traceback with exit 1; the node count is checked before any angle
    # node exists
    def arange(*args, **kwargs):
        raise AssertionError("nodes were allocated")

    monkeypatch.setattr(np, "arange", arange)
    res = invoke(["oracle-1d", "--kind", kind, "--n-theta", str(n_theta)])
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr == (f"usage error: the rule needs {nodes} nodes per "
                          "rung; at most 1048576 are allowed\n")


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


@pytest.mark.parametrize("spec, note", [
    # |f|^2 at 1e320 overflowed (1e-340 underflowed) in floats, and the
    # check said it was inconclusive; 2^-e f is in range, and the check
    # agrees with the residual system, as for c1 ; 0.  The constant
    # denominator 10^400 is folded into the coefficient 1/10^400, whose
    # float value underflows to 0, as that of 10^-400 * c1 does
    ("10^160*c1 ; 0", None),
    ("c1/10^170 ; 0", None),
    ("10^400*c1 ; 0", "numeric D(1/f) check was not run: a coefficient of "
     "f lies beyond the float range"),
    ("c1/10^400 ; 0", "numeric D(1/f) check was not run: no candidate "
     "sample has a finite, nonzero |f| off the poles"),
])
def test_classify_of_a_coefficient_beyond_the_float_range(spec, note):
    # an OverflowError traceback, exit 1, once; the exact flags stand
    res = run_bounded(["-m", "qres.cli", "classify", "-f", spec])
    assert res.returncode == 0
    assert res.stderr == ""
    data = json.loads(res.stdout)
    assert data["result"]["hyperholomorphic"] is False
    assert data["result"]["hypermeromorphic"] is False
    assert data["diagnostics"]["notes"] == [
        "a component vanishes identically; the inversion-compatibility "
        "system assumes both are nonzero"] + ([note] if note else [])


@pytest.mark.parametrize("args", [
    ["pv", "-f", "10^400*c1 ; 0", "--psi1", "bump", "--n-eta", "8",
     "--n-xi", "8"],
    ["residue", "-f", "10^400*c1 ; 0", "--phi22", "bump", "--n-xi", "8"],
], ids=["pv", "residue"])
def test_a_pairing_of_a_coefficient_beyond_the_float_range_exits_3(args):
    # an OverflowError traceback, exit 1, once
    res = run_bounded(["-m", "qres.cli", *args])
    assert res.returncode == 3
    assert res.stdout == ""
    assert res.stderr.splitlines() == [
        "domain error: the value lies beyond the float range"]


def test_version_prints_one_line_from_a_source_tree():
    # click looked the version up in the installed package metadata and
    # ended in a traceback when qres ran from src/ without being installed
    res = run_bounded(["-m", "qres.cli", "--version"])
    assert res.returncode == 0
    assert res.stdout == "qres, version 0.1.0\n"
    assert res.stderr == ""


def test_no_arguments_print_the_help_to_stderr():
    # click's no-arguments help passes through the one-line error boundary
    res = run_bounded(["-m", "qres.cli"])
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.startswith("Usage:")
    assert "Commands:" in res.stderr


@pytest.mark.parametrize("args, code", [
    (["residue", "-f", "conj", "--phi22", "bump",
      "--schedule", "0.3,1e-200,3"], 2),
    (["oracle-1d", "--kind", "pv", "--schedule", "0.2,1e-200,3"], 2),
    # the rungs and their squares are positive, but the first eta panel,
    # 0.2 eps / R, is not
    (["residue", "-f", "conj", "--phi22", "bump", "--R", "1e300",
      "--schedule", "1e-150,0.5,3"], 2),
    # the rungs are positive, but the last one squared underflows
    (["residue", "-f", "conj", "--phi22", "bump", "--n-xi", "8",
      "--schedule", "1e-300,0.7,3"], 2),
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


@pytest.mark.parametrize("args, code", [
    (["pv", "-f", "conj", "--psi1", "bump", "--n-eta", "4", "--n-xi", "8",
      "--R", "1e300"], 3),
    (["residue", "-f", "conj", "--phi22", "bump", "--n-xi", "8",
      "--R", "1e300"], 3),
    (["oracle-1d", "--R", "1e300"], 3),
    (["oracle-1d", "--R", "1e160"], 3),
    (["pv", "-f", "conj", "--psi1", "bump", "--n-eta", "4", "--n-xi", "8",
      "--schedule", "1e300,0.7,12"], 2),
], ids=["pv", "residue", "oracle-1d", "oracle-1d-1e160", "pv-schedule"])
def test_overflowing_ladders_are_refused_at_once(args, code):
    # rungs whose squares overflow made the fit's least-squares solve fail:
    # LAPACK wrote two lines to stdout and numpy a warning to stderr before
    # the domain error.  A ladder derived from --R is a domain error, as an
    # underflowing one is
    res = run_bounded(["-m", "qres.cli", *args])
    assert res.returncode == code
    assert res.stdout == ""
    assert len(res.stderr.splitlines()) == 1
    assert "the ladder overflows" in res.stderr


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_overflowing_rungs_leave_one_error_line(fmt):
    # the rungs are finite but their norms are not: the JSON report is
    # refused in one line, with no numpy warning before it, and the CSV
    # table of the finite rungs is printed
    res = run_bounded(["-m", "qres.cli", "oracle-1d", "--principal",
                       "1e300,1e300", "--format", fmt])
    if fmt == "json":
        assert res.returncode == 3
        assert res.stdout == ""
        assert res.stderr == "domain error: non-finite value nan in the report\n"
    else:
        assert res.returncode == 0
        assert res.stderr == ""
        assert res.stdout.startswith("epsilon,re1,im1,re_j,im_j\n")


def limit_of(args):
    """The extrapolated limit of a pairing command, run in a fresh
    interpreter; its rungs must have converged, with exit 0."""
    res = run_bounded(["-m", "qres.cli", *args])
    assert res.returncode == 0 and res.stderr == ""
    data = json.loads(res.stdout)
    assert data["result"]["converged"]
    return complex(*data["result"]["value"][:2])


@pytest.mark.parametrize("args, R, power", [
    (["oracle-1d"], 1e20, 0),
    (["oracle-1d"], 1e100, 0),
    (["pv", "-f", "z1 ; 0", "--psi1", "z1*bump", "--n-eta", "8", "--n-xi",
      "8"], 1e20, 4),
    (["residue", "-f", "z1 ; 0", "--phi22", "bump", "--radial", "z2",
      "--n-xi", "8"], 1e20, 2),
], ids=["oracle-1d", "oracle-1d-1e100", "pv", "residue"])
def test_limits_at_large_radius_scale_with_the_radius(args, R, power):
    # the fit once took columns {1, eps, eps^2} unscaled: at large R the
    # least-squares cutoff dropped the constant column and each of these
    # reported a converged limit unrelated to its rungs (6.0e-68 i against
    # rungs of 2 pi i for oracle-1d).  Each limit is R^power times the one
    # at R = 1
    want = limit_of(args) * R ** power
    got = limit_of([*args, "--R", f"{R:g}"])
    assert abs(got - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("args", [
    ["inverse", "-f", "conj", "--at", "1e-400,0,0,0"],
    ["apply-d", "-f", "c1^2 ; 0", "--at", "1e400,0,0,0"],
], ids=["inverse", "apply-d"])
def test_exact_values_beyond_the_float_range_are_domain_errors(args):
    # both exact values exceed the largest float: their conversion ended in
    # an OverflowError traceback with exit 1
    res = run_bounded(["-m", "qres.cli", *args])
    assert res.returncode == 3
    assert res.stdout == ""
    assert res.stderr == ("domain error: the value lies beyond the float "
                          "range\n")


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
    (["residue", "-f", "conj", "--phi22", "bump", "--n-xi", "4"], 2,
     "usage error: "),
    (["residue", "-f", "0 ; 0", "--phi22", "bump", "--n-xi", "8"], 3,
     "domain error: "),
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


# refusals the library raises as DomainError, by test id
DOMAIN_ERROR_CASES = {
    "residue-schedule-outside-3": (
        ["residue", "-f", "conj", "--phi22", "bump", "--n-xi", "8",
         "--schedule", "2,0.5,3"], 3, "domain error: schedule must start "),
    "pv-schedule-outside-3": (
        ["pv", "-f", "conj", "--psi1", "bump", "--n-eta", "4", "--n-xi", "8",
         "--schedule", "2,0.5,3"], 3, "domain error: schedule must start "),
    "product-compat-real-3": (
        ["product-compat", "--real", "--f", "conj", "--g", "conj"], 3,
        "domain error: real-component system needs real-valued components"),
}


# refusals of malformed test forms, points and function specs, by test id
USAGE_ERROR_CASES = {
    "residue-zero-test-form-2": (
        ["residue", "-f", "conj"], 2,
        "usage error: all test-form coefficients are zero"),
    "pv-zero-test-form-2": (
        ["pv", "-f", "conj"], 2,
        "usage error: all test-form coefficients are zero"),
    "residue-bad-profile-2": (
        ["residue", "-f", "conj", "--phi22", "z1"], 2,
        "usage error: expected '0', 'bump', or 'POLY*bump'"),
    "oracle-1d-bad-principal-2": (
        ["oracle-1d", "--principal", "1,x"], 2,
        "usage error: bad complex number 'x'"),
    "classify-prop34-one-parameter-2": (
        ["classify", "-f", "prop34", "--params", "1"], 2,
        "usage error: prop34 needs exactly two real parameters A, B"),
    "classify-prop34-expression-2": (
        ["classify", "-f", "prop34:z1"], 2,
        "usage error: prop34 takes numeric parameters, not an expression"),
    "classify-holo-parameters-2": (
        ["classify", "-f", "holo:z1", "--params", "1"], 2,
        "usage error: holo takes a polynomial expression, not numeric "
        "parameters"),
    "classify-trailing-point-2": (
        ["classify", "-f", "1."], 2, "usage error: trailing decimal point"),
    "classify-bad-character-2": (
        ["classify", "-f", "z1$"], 2,
        "usage error: unexpected character '$'"),
    # a superscript passes str.isdigit but is no decimal digit
    "classify-superscript-digit-2": (
        ["classify", "-f", "z1^²"], 2,
        "usage error: unexpected character '²' at position 3"),
    "classify-unclosed-parenthesis-2": (
        ["classify", "-f", "(z1"], 2,
        "usage error: unexpected 'end of input' at position 3 "
        "(expected ')')"),
}


@pytest.mark.parametrize("args, code, prefix",
                         ERROR_CASES + list(DOMAIN_ERROR_CASES.values())
                         + list(USAGE_ERROR_CASES.values()),
                         ids=[f"{a[0]}-{c}" for a, c, _ in ERROR_CASES]
                         + list(DOMAIN_ERROR_CASES) + list(USAGE_ERROR_CASES))
def test_every_subcommand_maps_errors_to_exit_codes(args, code, prefix):
    res = invoke(args)
    assert res.exit_code == code
    assert res.stdout == ""
    assert res.stderr.startswith(prefix)
    assert len(res.stderr.splitlines()) == 1


@pytest.mark.parametrize("exc", [ValueError("a bug"),
                                 ZeroDivisionError("a bug")],
                         ids=["ValueError", "ZeroDivisionError"])
def test_a_builtin_error_is_not_masked_as_a_domain_error(monkeypatch, exc):
    # every ValueError and ZeroDivisionError used to print "domain error"
    # with exit 3, a bug's included; only the package's errors are reported
    def broken(f):
        raise exc

    monkeypatch.setattr(cli, "hypermero_residuals", broken)
    res = invoke(["hypermero", "-f", "conj"])
    assert res.exception is exc
    assert res.exit_code not in (0, 2, 3, 4)
    assert "domain error" not in res.stderr


def readme_exit_codes():
    """(exit code, label, names) of each row of the README's table of error
    classes, the names being every CamelCase name in backquotes."""
    rows = re.findall(r"^\| (\d) \| `([a-z ]+)` \| (.*) \|$",
                      README.read_text(), re.MULTILINE)
    return [(int(code), label, re.findall(r"`([A-Z]\w+)`", names))
            for code, label, names in rows]


def test_each_error_class_exits_as_the_readme_says():
    rows = readme_exit_codes()
    assert [code for code, _, _ in rows] == [2, 3, 4]
    classes = {name: cls for name, cls in vars(errors).items()
               if isinstance(cls, type) and issubclass(cls, errors.QresError)}
    listed = []
    for code, label, names in rows:
        for name in names:
            if name in classes:
                assert (classes[name].exit_code, classes[name].label) == (
                    code, label), name
                listed.append(name)
    assert sorted(listed) == sorted(classes)


@pytest.mark.parametrize("args, message", [
    (["residue", "-f", "conj", "--phi22", "bump",
      "--schedule", "0.3,1e-200,3"],
     "bad schedule: the ladder underflows: its last rung rounds to 0"),
    (["pv", "-f", "conj", "--psi1", "bump", "--schedule", "0.3,0.5"],
     "--schedule must be 'default' or 'eps0,ratio,count'"),
    (["pv", "-f", "conj", "--psi1", "bump", "--R", "nan"],
     "Invalid value for '--R': nan is not a positive finite number"),
    (["pv", "--psi1", "bump"], "Missing option '--function' / '-f'."),
    (["residue", "-f", "conj", "--n-xi", "x"],
     "Invalid value for '--n-xi': 'x' is not a valid integer."),
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


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands():
    """Every qres command of the README's CLI block, continuation lines
    joined, as argument lists without the program name."""
    block = README.read_text().split("## CLI", 1)[1].split("```sh\n", 1)[1]
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


def test_the_readme_library_example_runs():
    # the README's python block, in a fresh interpreter: D kills prop34,
    # its reciprocal stays in the class, and the residue estimate converges
    block = README.read_text().split("## Library example", 1)[1]
    block = block.split("```python\n", 1)[1].split("```", 1)[0]
    run = run_bounded(["-c", block])
    assert run.returncode == 0, run.stderr
    assert run.stderr == ""
    first, second, estimate = run.stdout.splitlines()
    assert (first, second) == ("True", "True")
    assert estimate.endswith(" True")


# -- the CLI contract on drawn invocations ----------------------------------

def _terms(draw):
    """A polynomial of one to three terms, coefficients up to 10^400."""
    out = []
    for _ in range(draw(st.integers(1, 3))):
        coeff = str(draw(st.integers(1, 9)))
        if draw(st.booleans()):
            coeff += f"*10^{draw(st.integers(0, 400))}"
        mono = [f"{v}^{draw(st.integers(1, 3))}"
                for v in ("z1", "c1", "z2", "c2") if draw(st.booleans())]
        out.append("*".join([coeff] + mono))
    return " + ".join(out)


@st.composite
def functions(draw):
    """A catalogue entry, or a literal f1 ; f2 whose components may share a
    real denominator: constant, a sum of squares, or one with a zero set."""
    if not draw(st.booleans()):
        return draw(st.sampled_from(["conj", "F", "cauchy_kernel", "q_conj",
                                     "prop34", "holo:z1^2 + z2"]))
    den = draw(st.sampled_from(["", "6", "10^400", "1 + z1*c1",
                                "z1*c1 + z2*c2", "z1*c1 - 1"]))
    parts = [_terms(draw) for _ in range(2)]
    if den:
        parts = [f"({p}) / ({den})" for p in parts]
    return " ; ".join(parts)


# a valid value first, so that the simplest draw runs to the end
RADII = st.one_of(st.floats(0.5, 1e300), st.floats(-1.0, 0.5))
LADDERS = st.one_of(st.just("default"), st.builds(
    "{},{},{}".format, st.floats(-0.1, 2.0), st.floats(0.0, 1.2),
    st.integers(0, 10)))
PROFILES = st.sampled_from(["bump", "z1*bump", "c2*bump", "0"])
POINTS = st.lists(st.floats(-1e300, 1e300), min_size=4, max_size=4).map(
    lambda xs: ",".join(map(repr, xs)))


@st.composite
def invocations(draw, command):
    """Arguments of one qres command."""
    args = [command]
    if command == "catalogue":
        if draw(st.booleans()):
            args += ["--name", draw(st.sampled_from(["conj", "prop34",
                                                     "nosuch"]))]
        return args
    if command in ("product-rule", "product-compat"):
        args += ["--f", draw(functions()), "--g", draw(functions())]
        if command == "product-compat" and draw(st.booleans()):
            args.append("--real")
        return args
    if command != "oracle-1d":
        args += ["-f", draw(functions())]
    if command == "classify" and draw(st.booleans()):
        args += ["--partner", draw(functions())]
    if command in ("apply-d", "inverse") and draw(st.booleans()):
        args += ["--at", draw(POINTS)]
    if command not in ("residue", "pv", "oracle-1d"):
        return args
    args += ["--R", repr(draw(RADII)), "--schedule", draw(LADDERS)]
    if command == "residue":
        args += ["--phi22", draw(PROFILES),
                 "--radial", draw(st.sampled_from(["q", "z1", "z2"]))]
    elif command == "pv":
        args += ["--psi1", draw(PROFILES), "--psi2", draw(PROFILES),
                 "--region", draw(st.sampled_from(["metric", "levelset"])),
                 "--n-eta", str(draw(st.integers(1, 8)))]
    else:
        args += ["--principal", draw(st.sampled_from(["1", "0,1", "1i"])),
                 "--kind", draw(st.sampled_from(["residue", "pv"])),
                 "--n-theta", str(draw(st.integers(1, 64)))]
    if command != "oracle-1d":
        args += ["--n-xi", str(draw(st.sampled_from([8, 12])))]
    if draw(st.booleans()):
        args += ["--format", "csv"]
    if draw(st.booleans()):
        args.append("--strict")
    return args


def _no_constant(token):
    raise ValueError(f"{token} in the report")


def assert_contract(args):
    """Exit 0 with a report, 4 with a report and a one-line verdict, or 2
    or 3 with a one-line error and nothing on stdout; never a traceback.
    Returns the finished run."""
    res = run_bounded(["-m", "qres.cli", *args])
    assert res.returncode in (0, 2, 3, 4), res.stderr
    if res.returncode in (2, 3):
        assert res.stdout == ""
    elif "csv" in args:
        header, *rows = res.stdout.splitlines()
        assert header == "epsilon,re1,im1,re_j,im_j"
        assert rows and all(len(r.split(",")) == 5 and all(
            math.isfinite(float(v)) for v in r.split(",")) for r in rows)
    else:
        jsonschema.validate(json.loads(res.stdout,
                                       parse_constant=_no_constant), SCHEMA)
    if res.returncode == 0:
        assert res.stderr == ""
        return res
    prefix = {2: "usage error: ", 3: "domain error: ",
              4: "not converged: "}[res.returncode]
    assert res.stderr.startswith(prefix) and res.stderr.endswith("\n")
    assert res.stderr.count("\n") == 1
    return res


@pytest.mark.parametrize("radial", ["z1", "z2"])
def test_a_support_beyond_the_float_range_leaves_stderr_empty(radial):
    # R / cos(eta) overflowed near the axis and numpy warned on stderr; the
    # extent is inf, the unbounded support it stands for
    res = assert_contract(["residue", "-f", "conj", "--phi22", "bump",
                           "--radial", radial, "--R", "1e299",
                           "--schedule", "0.5,0.5,3", "--n-xi", "8"])
    # assert_contract has found stderr empty at exit 0
    assert res.returncode == 0


# two drawn invocations of each of the ten commands
@pytest.mark.parametrize("command", [
    "catalogue", "classify", "apply-d", "inverse", "hypermero",
    "product-rule", "product-compat", "residue", "pv", "oracle-1d"])
@settings(derandomize=True, max_examples=2, deadline=None, database=None)
@given(data=st.data())
def test_every_invocation_keeps_the_cli_contract(command, data):
    assert_contract(data.draw(invocations(command)))


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_report_refuses_non_finite_floats(x):
    with pytest.raises(ValueError, match="non-finite"):
        _fragment({"value": [0.5, x]})


def test_report_refuses_a_value_it_cannot_serialize():
    with pytest.raises(TypeError, match="^cannot serialize object$"):
        _fragment(object())
