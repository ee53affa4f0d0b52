"""Command-line driver: aggregate, certify, scenario, bench."""

from __future__ import annotations

import itertools
import math
import sys
import time
from dataclasses import replace
from pathlib import Path

import click
import numpy as np

from . import io as mio
from .aggregate import RULES, CandidateBalls, candidate_balls, run_rule, solve_minmax
from .errors import InvalidFaultBudgetError, MebaggError, ParseError, ResilienceViolationError, VALIDATION_ERRORS
from .geometry import _row_norms, meb
from .oracle import worst_designation
from .pointset import _count, _real, as_vector
from .scenarios import (
    STRATEGIES,
    ScenarioSpec,
    gm_convex_violation_instance,
    gm_impossibility_instance,
    lower_bound_construction,
    medoid_counterexample,
    random_instance,
    tangent_unit_balls,
)
from .validity import (
    _certify,
    _tangent_minmax_value,
    check_bias_bound,
    check_box,
    check_c_meb,
    check_convex,
    safe_meb_empty,
    theoretical_bound,
)

EXIT_ERROR = 1
EXIT_CERTIFICATION_FAIL = 2


def _emit(ctx, text: str) -> None:
    out = ctx.obj.get("out")
    if out:
        Path(out).write_text(text)
    else:
        click.echo(text, nl=False)


def _fail(exc: MebaggError):
    click.echo(f"error: {exc}", err=True)
    if isinstance(exc, VALIDATION_ERRORS):
        sys.exit(EXIT_CERTIFICATION_FAIL)
    sys.exit(EXIT_ERROR)


def _parse_vector(text: str) -> np.ndarray:
    try:
        return as_vector([float(c) for c in text.split(",") if c.strip() != ""])
    except ValueError:
        raise ParseError(f"could not parse vector {text!r}; use comma-separated numbers")


@click.group()
@click.option("--tol", type=float, default=1e-9, show_default=True, help="Numeric tolerance for pass/fail checks, finite and >= 0: length checks (convex, box, bias, c-meb on a single honest location) scale it by the honest points' extent; factor checks take it as is.")
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True, help="Seed for randomized commands.")
@click.option("--max-subsets", type=click.IntRange(min=1), default=2_000_000, show_default=True, help="Cap on the support sets of candidate balls (past it only those a violator search picks are checked, or one basis per removable set when they pass it too, and they fail only when the C(n, t) subsets exceed it as well) and on the C(n, n-t) subsets of mda, counted before its search of at most 2^(t+1) - 1 point sets.")
@click.option("--out", type=click.Path(dir_okay=False), default=None, help="Write the report here instead of stdout.")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json", show_default=True, help="Report format where both are supported.")
@click.pass_context
def main(ctx, tol, seed, max_subsets, out, fmt):
    """Byzantine-robust aggregation with enclosing-ball validity checks."""
    ctx.obj = {"tol": tol, "seed": seed, "max_subsets": max_subsets, "out": out, "fmt": fmt}


@main.command()
@click.argument("input_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--rule", type=click.Choice(sorted(RULES)), required=True)
@click.option("-t", "--faults", type=int, default=0, show_default=True, help="Fault budget t.")
@click.option("--allow-low-resilience", is_flag=True, help="Compute minmax-meb even when n <= 2t (no guarantee).")
@click.pass_context
def aggregate(ctx, input_path, rule, faults, allow_low_resilience):
    """Run one aggregation rule on a point file and report the output."""
    try:
        ps = mio.load_points(input_path)
        kwargs = {}
        if rule == "minmax-meb":
            kwargs["allow_low_resilience"] = allow_low_resilience
            kwargs["max_subsets"] = ctx.obj["max_subsets"]
        if rule == "mda":
            kwargs["max_subsets"] = ctx.obj["max_subsets"]
        start = time.perf_counter()
        result = run_rule(rule, ps, faults, **kwargs)
        elapsed = time.perf_counter() - start
    except MebaggError as exc:
        _fail(exc)
    report = {
        "schema": mio.SCHEMA,
        "command": "aggregate",
        "instance": {"n": ps.n, "d": ps.dim, "t": faults, "labeled": ps.labels is not None},
        "rule": rule,
        "output": list(map(float, result.output)),
        "achieved_value": result.achieved_value,
        "chosen_subset": list(result.chosen_subset) if result.chosen_subset else None,
        "chosen_index": result.chosen_index,
        "wall_time_s": elapsed,
    }
    _emit(ctx, mio.report_json(report))


@main.command()
@click.argument("input_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--y", "y_text", required=True, help="Output vector to certify, comma-separated.")
@click.option("-t", "--faults", type=int, default=0, show_default=True)
@click.option("--c", "c_bound", type=float, default=None, help="Relaxation factor to certify against.")
@click.option("--ignore-labels", is_flag=True, help="Use worst-case designations even if labels exist.")
@click.pass_context
def certify(ctx, input_path, y_text, faults, c_bound, ignore_labels):
    """Measure the relaxation factor an output achieves on an instance.

    With honest/byz labels the factor is measured against the true honest
    ball and a certificate set is emitted; without labels the worst factor
    over all size-(n-t) designations is reported.
    """
    try:
        ps = mio.load_points(input_path)
        y = _parse_vector(y_text)
        _count(faults, "t", 0, ps.n, InvalidFaultBudgetError)
        c_bound = None if c_bound is None else _real(c_bound, "relaxation factor c", 1.0)
        start = time.perf_counter()
        if ps.labels is not None and not ignore_labels:
            honest = ps.honest_points()
            tol = ctx.obj["tol"]
            # the achieved factor does not depend on c; 1 is the smallest valid c
            c_meb = check_c_meb(y, honest, 1.0 if c_bound is None else c_bound, tol=tol)
            factor = c_meb.achieved
            certificates = [
                check_convex(y, honest, tol=tol).to_dict(),
                check_box(y, honest, tol=tol).to_dict(),
            ]
            if c_bound is not None:
                certificates.insert(0, c_meb.to_dict())
                certificates.append(check_bias_bound(y, honest, c_bound, tol=tol).to_dict())
            mode = "labeled"
            worst = None
        else:
            balls = candidate_balls(ps, faults, max_subsets=ctx.obj["max_subsets"])
            factor, worst = worst_designation(ps, faults, y, balls=balls)
            certificates = []
            if c_bound is not None:
                # the designation stays as witness on a pass too
                c_meb = replace(
                    _certify(f"c-meb(c={c_bound:g})", factor, c_bound, ctx.obj["tol"], None),
                    witness=list(worst) if worst else None,
                )
                certificates.append(c_meb.to_dict())
            mode = "worst-case"
        elapsed = time.perf_counter() - start
    except MebaggError as exc:
        _fail(exc)
    report = {
        "schema": mio.SCHEMA,
        "command": "certify",
        "mode": mode,
        "instance": {"n": ps.n, "d": ps.dim, "t": faults},
        "y": list(map(float, y)),
        "achieved_factor": factor,
        "worst_designation": list(worst) if worst else None,
        "certificates": certificates,
        "wall_time_s": elapsed,
    }
    _emit(ctx, mio.report_json(report))
    if c_bound is not None and not c_meb.passed:
        sys.exit(EXIT_CERTIFICATION_FAIL)


# each kind's generator and the names of its arguments: the scenario
# options, a config's params and the report's params all go by these names
SCENARIOS = {
    "lower-bound": (lower_bound_construction, ("d", "t")),
    "medoid-ce": (medoid_counterexample, ("t", "x")),
    "gm-impossibility": (gm_impossibility_instance, ("t", "x")),
    "gm-convex": (gm_convex_violation_instance, ("t",)),
    "tangent-balls": (tangent_unit_balls, ("k",)),
    "random": (random_instance, ("n", "t", "d", "spread", "seed", "strategy", "rule")),
}


def _verify_scenario(kind, inst, balls_obj, params, tol, max_subsets):
    """Run the construction's defining assertion; returns (pass, detail)."""
    if kind == "tangent-balls":
        _, value = solve_minmax(balls_obj)
        expected = _tangent_minmax_value(params["k"])
        return abs(value - expected) <= 1e-4, {
            "minmax_value": value,
            "expected_value": expected,
        }
    if kind == "lower-bound":
        cb = candidate_balls(inst.points, params["t"], max_subsets=max_subsets)
        empty, value = safe_meb_empty(cb, tol=max(tol, 1e-9))
        detail = {
            "empty": empty,
            "minmax_value": value,
            "certified": inst.reference["emptiness_certified"],
        }
        return bool(empty) if inst.reference["emptiness_certified"] else True, detail
    if kind == "medoid-ce":
        out = run_rule("medoid", inst.points, params["t"]).output
        expected = [np.array(e) for e in inst.reference["expected_outputs"]]
        in_expected = any(np.linalg.norm(out - e) <= 1e-9 for e in expected)
        hostile = "ECD" if out[0] <= 2.0 else "ABE"
        dist = float(np.linalg.norm(out - inst.balls[hostile].center))
        ok = in_expected and abs(dist - math.sqrt(5.0)) <= 1e-9
        return ok, {
            "medoid": list(map(float, out)),
            "hostile_designation": hostile,
            "distance_to_hostile_center": dist,
            "expected_distance": math.sqrt(5.0),
        }
    if kind == "gm-impossibility":
        out = run_rule("geomedian", inst.points, params["t"]).output
        outside_all = all(
            np.linalg.norm(out - b.center) > b.radius for b in inst.balls.values()
        )
        dist_unit = float(np.linalg.norm(out - inst.balls["ABE"].center))
        return outside_all, {
            "geomedian": list(map(float, out)),
            "outside_all_designation_balls": outside_all,
            "distance_to_unit_center": dist_unit,
            "asymptotic_distance": inst.reference["distance_to_unit_center"],
        }
    if kind == "gm-convex":
        out = run_rule("geomedian", inst.points, params["t"]).output
        worst_gap = min(
            check_convex(out, inst.designation_points(name)).achieved
            for name in inst.designations
        )
        return worst_gap > 0.01, {
            "geomedian": list(map(float, out)),
            "hull_distance": worst_gap,
        }
    return True, {"n": inst.points.n}  # random: no defining property


def _cast_param(name, default, value):
    """``value`` cast to the type of the option's ``default``. A bool, or a
    number with a fraction for an int option, raises ValueError instead of
    being truncated."""
    kind = type(default)
    if isinstance(value, bool) or (kind is int and isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{name} must be of type {kind.__name__}, got {value!r}")
    return kind(value)


@main.command()
@click.argument("kind", type=click.Choice(list(SCENARIOS)), required=False)
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False), default=None, help="Load kind and params from a scenario.json file.")
@click.option("--d", type=int, default=2, show_default=True)
@click.option("-t", "--t", "--faults", type=int, default=None, help="Fault budget t.  [default: 4 for medoid-ce and 5 for gm-impossibility, the smallest they accept; 3 for the others]")
@click.option("--x", type=float, default=10.0, show_default=True)
@click.option("--k", type=int, default=2, show_default=True)
@click.option("--n", type=int, default=8, show_default=True)
@click.option("--spread", type=float, default=1.0, show_default=True)
@click.option("--strategy", type=click.Choice(STRATEGIES), default="uniform-far", show_default=True)
@click.option("--attack-rule", "rule", type=click.Choice(sorted(RULES)), default="medoid", show_default=True)
@click.option("--emit", "emit_dir", type=click.Path(file_okay=False), default=None, help="Write points.csv + scenario.json here.")
@click.option("--verify", is_flag=True, help="Check the construction's defining property.")
@click.pass_context
def scenario(ctx, kind, config_path, emit_dir, verify, **options):
    """Generate a named construction or a random adversarial instance."""
    try:
        given = {}
        if config_path is not None:
            spec = ScenarioSpec.from_dict(mio.json_object(Path(config_path).read_text(), "kind"))
            if kind is not None and kind != spec.kind:
                raise ParseError(f"--config kind {spec.kind!r} conflicts with argument {kind!r}")
            kind, given = spec.kind, spec.params
            if kind not in SCENARIOS:
                raise ParseError(f"unknown scenario kind {kind!r} in config")
        if kind is None:
            raise ParseError("give a scenario kind or --config")
        generate, names = SCENARIOS[kind]
        options["seed"] = ctx.obj["seed"]
        if options["t"] is None:  # the smallest t that medoid-ce and gm-impossibility accept
            options["t"] = {"medoid-ce": 4, "gm-impossibility": 5}.get(kind, 3)
        try:
            # a config's params overlay the options, cast to the options' types
            params = {name: _cast_param(name, options[name], given.get(name, options[name])) for name in names}
        except (TypeError, ValueError) as exc:
            raise ParseError(f"bad scenario param in {config_path}: {exc}")
        made = generate(**params)
        inst, balls_obj = (None, made) if isinstance(made, CandidateBalls) else (made, None)

        if emit_dir:
            out = Path(emit_dir)
            out.mkdir(parents=True, exist_ok=True)
            spec_payload = {"kind": kind, "params": params}
            if inst is not None:
                mio.save_points(inst.points, out / "points.csv")
                if inst.designations:
                    spec_payload["designations"] = {
                        name: list(idx) for name, idx in inst.designations.items()
                    }
            if balls_obj is not None:
                rows = [
                    ",".join(mio.format_vector(c) + [mio.format_float(r)])
                    for c, r in zip(balls_obj.centers(), balls_obj.radii())
                ]
                (out / "balls.csv").write_text("\n".join(rows) + "\n")
            (out / "scenario.json").write_text(mio.report_json(spec_payload))

        passed, detail = (True, {})
        if verify:
            _real(ctx.obj["tol"], "tol")
            passed, detail = _verify_scenario(
                kind, inst, balls_obj, params, ctx.obj["tol"], ctx.obj["max_subsets"]
            )
    except MebaggError as exc:
        _fail(exc)
    report = {
        "schema": mio.SCHEMA,
        "command": "scenario",
        "kind": kind,
        "params": params,
        "n": inst.points.n if inst is not None else None,
        "verified": passed if verify else None,
        "detail": detail,
    }
    _emit(ctx, mio.report_json(report))
    if verify and not passed:
        sys.exit(EXIT_CERTIFICATION_FAIL)


def _csv_cell(key: str, value) -> str:
    """A bench row value as a CSV cell: floats to 17 digits, timings to 6 decimals."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return format(value, ".6f") if key == "wall_time_s" else mio.format_float(value)
    return str(value)


@main.command()
@click.option("--rules", default="mda,medoid,geomedian", show_default=True, help="Comma-separated rule names.")
@click.option("--n-list", default="6,9,12", show_default=True)
@click.option("--t-list", default="1,2", show_default=True)
@click.option("--d-list", default="2,3", show_default=True)
@click.option("--seeds", type=click.IntRange(min=1), default=20, show_default=True, help="Instances per grid cell.")
@click.option("--spread", type=float, default=1.0, show_default=True)
@click.option("--strategy", type=click.Choice(["uniform-far", "cluster"]), default="uniform-far", show_default=True)
@click.pass_context
def bench(ctx, rules, n_list, t_list, d_list, seeds, spread, strategy):
    """Sweep seeded instances over an (n, t, d) grid and compare each rule's
    empirical worst factor to its proven bound."""
    try:
        _real(ctx.obj["tol"], "tol")
        rule_names = [r.strip() for r in rules.split(",") if r.strip()]
        try:
            ns, ts, ds = ([int(v) for v in text.split(",")] for text in (n_list, t_list, d_list))
        except ValueError as exc:
            raise ParseError(f"bad --n-list, --t-list or --d-list: {exc}")
        for r in rule_names:
            if r not in RULES:
                raise ParseError(f"unknown rule {r!r}")
        rows = []
        for rule, n, t, d in itertools.product(rule_names, ns, ts, ds):
            if t >= n:
                continue
            try:
                bound = theoretical_bound(rule, n, t, d)
            except ResilienceViolationError:
                continue  # the rule's guarantee needs an honest majority
            except MebaggError:
                bound = None
            start = time.perf_counter()
            factors = []
            for s in range(seeds):
                inst = random_instance(
                    n, t, d, spread, seed=ctx.obj["seed"] * 100_003 + s, strategy=strategy
                )
                ball = meb(inst.points.honest_points())
                if ball.radius <= 0:
                    continue
                result = run_rule(rule, inst.points, t)
                factors.append(float(_row_norms(result.output - ball.center)) / ball.radius)
            elapsed = time.perf_counter() - start
            max_f = max(factors) if factors else 0.0
            ok = bound is None or max_f <= bound + ctx.obj["tol"] + 1e-6
            rows.append(
                {
                    "rule": rule,
                    "n": n,
                    "t": t,
                    "d": d,
                    "seeds": len(factors),
                    "max_factor": max_f,
                    "mean_factor": sum(factors) / len(factors) if factors else 0.0,
                    "bound": bound,
                    "within_bound": ok,
                    "wall_time_s": elapsed,
                }
            )
    except MebaggError as exc:
        _fail(exc)
    if ctx.obj["fmt"] == "csv":
        lines = ["rule,n,t,d,seeds,max_factor,mean_factor,bound,within_bound,wall_time_s"]
        lines += [",".join(_csv_cell(key, v) for key, v in r.items()) for r in rows]
        _emit(ctx, "\n".join(lines) + "\n")
    else:
        _emit(ctx, mio.report_json({"schema": mio.SCHEMA, "command": "bench", "rows": rows}))
    if not all(r["within_bound"] for r in rows):
        sys.exit(EXIT_CERTIFICATION_FAIL)


if __name__ == "__main__":
    main()
