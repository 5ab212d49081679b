"""Command-line front end.

Every subcommand prints a single JSON report (or a CSV convergence table with
--format csv) on standard output.  Reports are byte-reproducible: keys are
sorted and every float is written with 17 significant digits.

Exit codes: 0 success, 2 usage error, 3 domain error (poles, zero functions,
hypotheses not met), 4 not-converged under --strict.
"""

from __future__ import annotations

import json
import math
import os
import sys
from fractions import Fraction
from typing import Optional, Tuple

import click

from .catalogue import NAMES, builtin, resolve
from .currents import (EpsilonSchedule, Laurent1D, TestForm2, TestForm3,
                       build_quadrature, bump, parse_profile, pv_1d, pv_pair,
                       res_limit_1d, residue_pair)
from .errors import (NotConverged, ParseError, QresError, TooCoarse,
                     UnknownName)
from .operators import (apply_D, classify, hypermero_residuals,
                        inverse_function, is_hypermeromorphic,
                        check_product_rule, product_compat_residuals,
                        real_product_compat_residuals)
from .parsing import parse_point
from .qcore import Quat

_USAGE_ERRORS = (ParseError, UnknownName, TooCoarse)


def _threads() -> int:
    raw = os.environ.get("QR_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


# ---------------------------------------------------------------- emitters

def _fragment(x) -> str:
    if x is None:
        return "null"
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    if isinstance(x, float):
        if not math.isfinite(x):
            # JSON has no nan or infinity; refuse rather than print them
            raise ValueError(f"non-finite value {x!r} in the report")
        return f"{x:.17g}"
    if isinstance(x, str):
        return json.dumps(x, ensure_ascii=True)
    if isinstance(x, (list, tuple)):
        return "[" + ",".join(_fragment(v) for v in x) + "]"
    if isinstance(x, dict):
        items = sorted(x.items(), key=lambda kv: str(kv[0]))
        return "{" + ",".join(
            json.dumps(str(k), ensure_ascii=True) + ":" + _fragment(v)
            for k, v in items) + "}"
    raise TypeError(f"cannot serialize {type(x).__name__}")


def _emit_report(command: str, inputs: dict, result, diagnostics: dict,
                 exact: bool) -> None:
    report = {
        "command": command,
        "inputs": inputs,
        "result": result,
        "diagnostics": diagnostics,
        "exact": exact,
    }
    click.echo(_fragment(report))


def _emit_csv(estimate) -> None:
    lines = ["epsilon,re1,im1,re_j,im_j"]
    for row in estimate.rows():
        lines.append(",".join(f"{v:.17g}" for v in row))
    click.echo("\n".join(lines))


def _quat_floats(q: Quat):
    z1, z2 = complex(q.z1), complex(q.z2)
    return [z1.real, z1.imag, z2.real, z2.imag]


# ---------------------------------------------------------------- helpers

def _resolve_function(spec: str, params: str):
    values: Tuple = ()
    if params:
        values = tuple(Fraction(tok.strip()) for tok in params.split(","))
    return resolve(spec, values)


def _parse_schedule(text: str, support: float) -> EpsilonSchedule:
    if text == "default":
        return EpsilonSchedule.for_radius(support)
    parts = text.split(",")
    if len(parts) != 3:
        raise click.UsageError(
            "--schedule must be 'default' or 'eps0,ratio,count'")
    try:
        return EpsilonSchedule(float(parts[0]), float(parts[1]),
                               int(parts[2]))
    except ValueError as exc:
        raise click.UsageError(f"bad schedule: {exc}")


def _estimate_diagnostics(est, n_eta: int, n_xi: int,
                          schedule: EpsilonSchedule) -> dict:
    return {
        "table": [list(r) for r in est.rows()],
        "converged": est.converged,
        "diff_ratios": list(est.diff_ratios),
        "part": est.part,
        "notes": list(est.notes),
        "rule": {"n_eta": n_eta, "n_xi": n_xi},
        "schedule": {"eps0": schedule.eps0, "ratio": schedule.ratio,
                     "count": schedule.count},
        "threads": _threads(),
    }


def _finish_estimate(command, inputs, est, diagnostics, fmt, strict):
    if fmt == "csv":
        _emit_csv(est)
    else:
        result = {"value": _quat_floats(est.extrapolated),
                  "converged": est.converged}
        _emit_report(command, inputs, result, diagnostics, exact=False)
    if strict and not est.converged:
        raise NotConverged("estimate did not converge on this schedule")


def _guarded(body):
    try:
        body()
    except click.ClickException:
        raise
    except _USAGE_ERRORS as exc:
        raise click.UsageError(str(exc))
    except NotConverged as exc:
        click.echo(f"not converged: {exc}", err=True)
        sys.exit(4)
    except (QresError, ZeroDivisionError, ValueError) as exc:
        click.echo(f"domain error: {exc}", err=True)
        sys.exit(3)


# ---------------------------------------------------------------- commands

@click.group()
@click.version_option(package_name="qres", prog_name="qres")
def main():
    """Quaternionic function analysis: classification, derivatives, and
    residue / principal-value pairings."""


_function_opt = click.option(
    "--function", "-f", "spec", required=True,
    help="Catalogue name, name:EXPR, or a literal 'f1 ; f2' expression.")
_params_opt = click.option(
    "--params", default="", help="Comma-separated real parameters for "
    "catalogue entries that take them.")
_format_opt = click.option(
    "--format", "fmt", type=click.Choice(["json", "csv"]), default="json")
_strict_opt = click.option(
    "--strict", is_flag=True, help="Exit 4 if the estimate is not converged.")
_rule_opts = [
    click.option("--n-eta", default=32, show_default=True),
    click.option("--n-xi", default=64, show_default=True),
]


def _with_rule(fn):
    for opt in reversed(_rule_opts):
        fn = opt(fn)
    return fn


@main.command("classify")
@_function_opt
@_params_opt
@click.option("--partner", "partners", multiple=True,
              help="Partner function for closure checks (repeatable).")
def classify_cmd(spec, params, partners):
    """Classify a function: hyperholomorphic / hypermeromorphic flags,
    residuals, and closure against partners."""
    def body():
        f, label, _ = _resolve_function(spec, params)
        partner_fns = [_resolve_function(p, "")[0] for p in partners]
        c = classify(f, partners=partner_fns)
        result = {
            "hyperholomorphic": c.hyperholomorphic,
            "hypermeromorphic": c.hypermeromorphic,
            "eq3": str(c.eq3_residual),
            "eq4": str(c.eq4_residual),
            "closure": [dict(d) for d in c.closure],
        }
        _emit_report("classify",
                     {"function": label, "params": params,
                      "partners": list(partners)},
                     result,
                     {"notes": list(c.notes), "threads": _threads()},
                     exact=True)
    _guarded(body)


@main.command("apply-d")
@_function_opt
@_params_opt
@click.option("--at", "at_point", default=None,
              help="Evaluate the derivative at a point x1,y1,x2,y2.")
def apply_d_cmd(spec, params, at_point):
    """Apply the Cauchy-Riemann-type operator symbolically."""
    def body():
        f, label, _ = _resolve_function(spec, params)
        d = apply_D(f)
        result = {"d1": str(d.d1), "d2": str(d.d2), "is_zero": d.is_zero}
        if at_point is not None:
            q = parse_point(at_point)
            v1 = d.d1.eval_exact(q.z1, q.z2)
            v2 = d.d2.eval_exact(q.z1, q.z2)
            result["value"] = _quat_floats(Quat(v1, v2))
        _emit_report("apply-d",
                     {"function": label, "params": params,
                      "at": at_point},
                     result, {"threads": _threads()}, exact=True)
    _guarded(body)


@main.command("inverse")
@_function_opt
@_params_opt
@click.option("--at", "at_point", default=None,
              help="Evaluate the inverse at a point x1,y1,x2,y2.")
def inverse_cmd(spec, params, at_point):
    """Pointwise quaternionic reciprocal 1/f as a symbolic function."""
    def body():
        f, label, _ = _resolve_function(spec, params)
        inv = inverse_function(f)
        result = {"f1": str(inv.f1), "f2": str(inv.f2)}
        if at_point is not None:
            q = parse_point(at_point)
            result["value"] = _quat_floats(inv.eval(q))
        _emit_report("inverse",
                     {"function": label, "params": params, "at": at_point},
                     result, {"threads": _threads()}, exact=True)
    _guarded(body)


@main.command("product-rule")
@click.option("--f", "spec_f", required=True)
@click.option("--g", "spec_g", required=True)
@click.option("--params-f", default="")
@click.option("--params-g", default="")
def product_rule_cmd(spec_f, spec_g, params_f, params_g):
    """Residual of the product rule for two hyperholomorphic functions."""
    def body():
        f, label_f, _ = _resolve_function(spec_f, params_f)
        g, label_g, _ = _resolve_function(spec_g, params_g)
        res = check_product_rule(f, g)
        _emit_report("product-rule",
                     {"f": label_f, "g": label_g,
                      "params_f": params_f, "params_g": params_g},
                     {"residual_d1": str(res.d1), "residual_d2": str(res.d2),
                      "is_zero": res.is_zero},
                     {"threads": _threads()}, exact=True)
    _guarded(body)


@main.command("hypermero")
@_function_opt
@_params_opt
def hypermero_cmd(spec, params):
    """Residual system deciding whether 1/f stays hyperholomorphic."""
    def body():
        f, label, _ = _resolve_function(spec, params)
        eq3, eq4 = hypermero_residuals(f)
        _emit_report("hypermero",
                     {"function": label, "params": params},
                     {"eq3": str(eq3), "eq4": str(eq4),
                      "hypermeromorphic": is_hypermeromorphic(f)},
                     {"threads": _threads()}, exact=True)
    _guarded(body)


@main.command("product-compat")
@click.option("--f", "spec_f", required=True)
@click.option("--g", "spec_g", required=True)
@click.option("--params-f", default="")
@click.option("--params-g", default="")
@click.option("--real", "real_form", is_flag=True,
              help="Use the real-component specialization.")
def product_compat_cmd(spec_f, spec_g, params_f, params_g, real_form):
    """Residual system for hypermeromorphy of a product."""
    def body():
        f, label_f, _ = _resolve_function(spec_f, params_f)
        g, label_g, _ = _resolve_function(spec_g, params_g)
        if real_form:
            r1, r2 = real_product_compat_residuals(f, g)
        else:
            r1, r2 = product_compat_residuals(f, g)
        _emit_report("product-compat",
                     {"f": label_f, "g": label_g, "params_f": params_f,
                      "params_g": params_g, "real": real_form},
                     {"residual1": str(r1), "residual2": str(r2),
                      "is_zero": r1.is_zero and r2.is_zero},
                     {"threads": _threads()}, exact=True)
    _guarded(body)


@main.command("residue")
@_function_opt
@_params_opt
@click.option("--phi11", default="0")
@click.option("--phi12", default="0")
@click.option("--phi21", default="0")
@click.option("--phi22", default="0")
@click.option("--R", "radius", default=1.0, show_default=True,
              help="Support radius of the test-form coefficients.")
@click.option("--radial", type=click.Choice(["q", "z1", "z2"]), default="q",
              help="Which modulus the bump cutoff uses.")
@click.option("--schedule", default="default")
@click.option("--no-mirror", is_flag=True,
              help="Drop the conjugate-type half of the density.")
@_with_rule
@_format_opt
@_strict_opt
def residue_cmd(spec, params, phi11, phi12, phi21, phi22, radius, radial,
                schedule, no_mirror, n_eta, n_xi, fmt, strict):
    """Residue pairing of f against a 2-form test datum."""
    def body():
        f, label, _ = _resolve_function(spec, params)
        phi = TestForm2(*(parse_profile(t, radius, radial)
                          for t in (phi11, phi12, phi21, phi22)))
        if phi.is_zero:
            raise click.UsageError("all test-form coefficients are zero")
        sched = _parse_schedule(schedule, phi.support_radius)
        rule = build_quadrature(n_eta, n_xi)
        est = residue_pair(f, phi, rule=rule, schedule=sched,
                           include_mirror=not no_mirror)
        inputs = {"function": label, "params": params, "phi11": phi11,
                  "phi12": phi12, "phi21": phi21, "phi22": phi22,
                  "R": radius, "radial": radial, "schedule": schedule,
                  "mirror": not no_mirror}
        _finish_estimate("residue", inputs, est,
                         _estimate_diagnostics(est, n_eta, n_xi, sched),
                         fmt, strict)
    _guarded(body)


@main.command("pv")
@_function_opt
@_params_opt
@click.option("--psi1", default="0")
@click.option("--psi2", default="0")
@click.option("--R", "radius", default=1.0, show_default=True)
@click.option("--schedule", default="default")
@click.option("--region", type=click.Choice(["metric", "levelset"]),
              default="metric", show_default=True)
@click.option("--part", type=click.Choice(["(1,0)", "(0,1)"]),
              default="(1,0)")
@_with_rule
@_format_opt
@_strict_opt
def pv_cmd(spec, params, psi1, psi2, radius, schedule, region, part, n_eta,
           n_xi, fmt, strict):
    """Principal-value pairing of 1/f against a 3-form test datum."""
    def body():
        f, label, _ = _resolve_function(spec, params)
        psi = TestForm3(*(parse_profile(t, radius, "q")
                          for t in (psi1, psi2)))
        if psi.is_zero:
            raise click.UsageError("all test-form coefficients are zero")
        sched = _parse_schedule(schedule, psi.support_radius)
        rule = build_quadrature(n_eta, n_xi)
        est = pv_pair(f, psi, rule=rule, schedule=sched, region=region,
                      part=part)
        inputs = {"function": label, "params": params, "psi1": psi1,
                  "psi2": psi2, "R": radius, "schedule": schedule,
                  "region": region, "part": part}
        _finish_estimate("pv", inputs, est,
                         _estimate_diagnostics(est, n_eta, n_xi, sched),
                         fmt, strict)
    _guarded(body)


def _parse_complex_list(text: str) -> Tuple[complex, ...]:
    if not text.strip():
        return ()
    out = []
    for tok in text.split(","):
        try:
            out.append(complex(tok.strip().replace("i", "j")))
        except ValueError:
            raise click.UsageError(f"bad complex number {tok.strip()!r}")
    return tuple(out)


@main.command("oracle-1d")
@click.option("--principal", default="1",
              help="Comma list a_-1,a_-2,... of principal coefficients.")
@click.option("--tail", default="", help="Comma list of tail coefficients.")
@click.option("--kind", type=click.Choice(["residue", "pv"]),
              default="residue", show_default=True)
@click.option("--power", default=0, show_default=True,
              help="Test against z^power * bump.")
@click.option("--R", "radius", default=1.0, show_default=True)
@click.option("--schedule", default="default")
@click.option("--n-theta", default=256, show_default=True)
@_format_opt
@_strict_opt
def oracle_1d_cmd(principal, tail, kind, power, radius, schedule, n_theta,
                  fmt, strict):
    """One-complex-variable reference pairings for a Laurent function."""
    def body():
        import numpy as np
        g = Laurent1D(_parse_complex_list(principal),
                      _parse_complex_list(tail))
        if power < 0:
            raise click.UsageError("--power must be nonnegative")

        def phi(z):
            return z ** power * bump(np.abs(z) / radius)

        if schedule == "default":
            sched = EpsilonSchedule(0.25 * radius, 0.55, 14)
        else:
            sched = _parse_schedule(schedule, radius)
        if kind == "residue":
            est = res_limit_1d(g, phi, sched, n_theta)
        else:
            est = pv_1d(g, phi, radius, sched, n_theta)
        inputs = {"principal": principal, "tail": tail, "kind": kind,
                  "power": power, "R": radius, "schedule": schedule,
                  "n_theta": n_theta}
        diag = {
            "table": [list(r) for r in est.rows()],
            "converged": est.converged,
            "diff_ratios": list(est.diff_ratios),
            "part": est.part,
            "notes": list(est.notes),
            "schedule": {"eps0": sched.eps0, "ratio": sched.ratio,
                         "count": sched.count},
            "threads": _threads(),
        }
        _finish_estimate("oracle-1d", inputs, est, diag, fmt, strict)
    _guarded(body)


@main.command("catalogue")
@click.option("--name", default=None, help="Show a single entry.")
def catalogue_cmd(name):
    """List the built-in model functions."""
    def body():
        names = [name] if name else list(NAMES)
        rows = []
        for n in names:
            e = builtin(n)
            rows.append({
                "name": e.name,
                "f1": str(e.f.f1),
                "f2": str(e.f.f2),
                "hyperholomorphic": e.known_flags.hyperholomorphic,
                "hypermeromorphic": e.known_flags.hypermeromorphic,
                "zero_set_kind": e.zero_set_kind,
                "zero_set": e.zero_set,
            })
        _emit_report("catalogue", {"name": name or ""}, rows,
                     {"threads": _threads()}, exact=True)
    _guarded(body)


if __name__ == "__main__":
    main()
