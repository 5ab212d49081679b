"""End-to-end checks of the command-line front end: report schema, byte
reproducibility, exit codes, and a few pinned values."""
import importlib.resources
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest
from click.testing import CliRunner

import qres
from qres.cli import _fragment, main

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


def test_zero_function_inverse_is_a_domain_error():
    res = invoke(["inverse", "-f", "0 ; 0"])
    assert res.exit_code == 3


def test_strict_flag_exits_nonzero_when_unconverged():
    # three rungs can never satisfy the convergence window
    res = invoke(CHEAP_RESIDUE + ["--strict"])
    assert res.exit_code == 4
    # the report is still emitted before the verdict
    data = json.loads(res.output.splitlines()[0])
    assert data["result"]["converged"] is False


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


@pytest.mark.parametrize("kind", ["residue", "pv"])
def test_oracle_1d_overflowing_pole_exits_3_without_output(kind):
    # a fresh interpreter, so numpy warnings would reach stderr unfiltered
    env = dict(os.environ,
               PYTHONPATH=str(Path(qres.__file__).resolve().parents[1]))
    principal = ",".join(["0"] * 399 + ["1"])
    res = subprocess.run(
        [sys.executable, "-m", "qres.cli", "oracle-1d", "--kind", kind,
         "--principal", principal],
        capture_output=True, text=True, env=env, timeout=60)
    assert res.returncode == 3
    assert res.stdout == ""
    assert len(res.stderr.splitlines()) == 1
    assert res.stderr.startswith("domain error: ")


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_report_refuses_non_finite_floats(x):
    with pytest.raises(ValueError, match="non-finite"):
        _fragment({"value": [0.5, x]})


def test_thread_count_comes_from_the_environment():
    data = report(["catalogue"], env={"QR_THREADS": "7"})
    assert data["diagnostics"]["threads"] == 7
    data = report(["catalogue"], env={"QR_THREADS": "junk"})
    assert data["diagnostics"]["threads"] == 1
