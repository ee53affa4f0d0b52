"""Command-line driver: aggregate, certify, scenario, bench."""

from __future__ import annotations

import itertools
import json
import math
import sys
import time
from pathlib import Path

import click
import numpy as np

from . import io as mio
from .aggregate import RULES, candidate_balls, run_rule, solve_minmax
from .errors import MebaggError, ParseError, VALIDATION_ERRORS
from .geometry import meb
from .oracle import worst_designation
from .pointset import as_vector
from .scenarios import (
    gm_convex_violation_instance,
    gm_impossibility_instance,
    lower_bound_construction,
    medoid_counterexample,
    random_instance,
    tangent_unit_balls,
)
from .validity import (
    Certificate,
    check_bias_bound,
    check_box,
    check_c_meb,
    check_convex,
    safe_meb_empty,
    theoretical_bound,
)

EXIT_OK = 0
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
@click.option("--tol", type=float, default=1e-9, show_default=True, help="Numeric tolerance for pass/fail checks.")
@click.option("--seed", type=int, default=0, show_default=True, help="Seed for randomized commands.")
@click.option("--max-subsets", type=int, default=2_000_000, show_default=True, help="Cap on the support sets or subsets enumerated for candidate balls (they fail only when both exceed it) and on the C(n, n-t) subsets of mda, counted before it prunes those that cannot beat an attained diameter.")
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
                # built directly: the designation stays as witness on a pass too
                c_meb = Certificate(
                    condition=f"c-meb(c={c_bound:g})",
                    achieved=factor,
                    bound=c_bound,
                    passed=factor <= c_bound + ctx.obj["tol"],
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
    if c_bound is not None and factor > c_bound + ctx.obj["tol"]:
        sys.exit(EXIT_CERTIFICATION_FAIL)


def _verify_scenario(kind, inst, balls_obj, params, tol, max_subsets):
    """Run the construction's defining assertion; returns (pass, detail)."""
    if kind == "tangent-balls":
        k = params["k"]
        _, value = solve_minmax(balls_obj)
        expected = (k - 1.0) / (k + 1.0 + math.sqrt(2.0 * (k + 1.0) * k))
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
        result = run_rule("medoid", inst.points, params["t"])
        out = result.output
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
        result = run_rule("geomedian", inst.points, params["t"])
        out = result.output
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
        result = run_rule("geomedian", inst.points, params["t"])
        out = result.output
        worst_gap = min(
            check_convex(out, inst.designation_points(name)).achieved
            for name in inst.designations
        )
        return worst_gap > 0.01, {
            "geomedian": list(map(float, out)),
            "hull_distance": worst_gap,
        }
    if kind == "random":
        return True, {"n": inst.points.n}
    raise MebaggError(f"no verifier for scenario kind {kind!r}")


SCENARIO_KINDS = (
    "lower-bound",
    "medoid-ce",
    "gm-impossibility",
    "gm-convex",
    "tangent-balls",
    "random",
)


@main.command()
@click.argument("kind", type=click.Choice(SCENARIO_KINDS), required=False)
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False), default=None, help="Load kind and params from a scenario.json file.")
@click.option("--d", "dim", type=int, default=2, show_default=True)
@click.option("-t", "--t", "--faults", "faults", type=int, default=3, show_default=True)
@click.option("--x", type=float, default=10.0, show_default=True)
@click.option("--k", type=int, default=2, show_default=True)
@click.option("--n", type=int, default=8, show_default=True)
@click.option("--spread", type=float, default=1.0, show_default=True)
@click.option("--strategy", type=click.Choice(["uniform-far", "cluster", "worst-case"]), default="uniform-far", show_default=True)
@click.option("--attack-rule", type=click.Choice(sorted(RULES)), default="medoid", show_default=True)
@click.option("--emit", "emit_dir", type=click.Path(file_okay=False), default=None, help="Write points.csv + scenario.json here.")
@click.option("--verify", is_flag=True, help="Check the construction's defining property.")
@click.pass_context
def scenario(ctx, kind, config_path, dim, faults, x, k, n, spread, strategy, attack_rule, emit_dir, verify):
    """Generate a named construction or a random adversarial instance."""
    try:
        if config_path is not None:
            from .scenarios import ScenarioSpec

            spec = ScenarioSpec.from_dict(json.loads(Path(config_path).read_text()))
            if kind is not None and kind != spec.kind:
                raise ParseError(f"--config kind {spec.kind!r} conflicts with argument {kind!r}")
            kind = spec.kind
            if kind not in SCENARIO_KINDS:
                raise ParseError(f"unknown scenario kind {kind!r} in config")
            p = spec.params
            dim = int(p.get("d", dim))
            faults = int(p.get("t", faults))
            x = float(p.get("x", x))
            k = int(p.get("k", k))
            n = int(p.get("n", n))
            spread = float(p.get("spread", spread))
            strategy = p.get("strategy", strategy)
        if kind is None:
            raise ParseError("give a scenario kind or --config")
        balls_obj = None
        if kind == "tangent-balls":
            balls_obj = tangent_unit_balls(k)
            inst = None
            params = {"k": k}
        elif kind == "lower-bound":
            inst = lower_bound_construction(dim, faults)
            params = {"d": dim, "t": faults}
        elif kind == "medoid-ce":
            inst = medoid_counterexample(faults, x)
            params = {"t": faults, "x": x}
        elif kind == "gm-impossibility":
            inst = gm_impossibility_instance(faults, x)
            params = {"t": faults, "x": x}
        elif kind == "gm-convex":
            inst = gm_convex_violation_instance(faults)
            params = {"t": faults}
        else:
            inst = random_instance(
                n, faults, dim, spread, ctx.obj["seed"], strategy=strategy, rule=attack_rule
            )
            params = {"n": n, "t": faults, "d": dim, "spread": spread,
                      "seed": ctx.obj["seed"], "strategy": strategy}

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
                    ",".join(mio.format_vector(b.center) + [mio.format_float(b.radius)])
                    for b in balls_obj
                ]
                (out / "balls.csv").write_text("\n".join(rows) + "\n")
            (out / "scenario.json").write_text(mio.report_json(spec_payload))

        passed, detail = (True, {})
        if verify:
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


@main.command()
@click.option("--rules", default="mda,medoid,geomedian", show_default=True, help="Comma-separated rule names.")
@click.option("--n-list", default="6,9,12", show_default=True)
@click.option("--t-list", default="1,2", show_default=True)
@click.option("--d-list", default="2,3", show_default=True)
@click.option("--seeds", type=int, default=20, show_default=True, help="Instances per grid cell.")
@click.option("--spread", type=float, default=1.0, show_default=True)
@click.option("--strategy", type=click.Choice(["uniform-far", "cluster"]), default="uniform-far", show_default=True)
@click.pass_context
def bench(ctx, rules, n_list, t_list, d_list, seeds, spread, strategy):
    """Sweep seeded instances over an (n, t, d) grid and compare each rule's
    empirical worst factor to its proven bound."""
    try:
        rule_names = [r.strip() for r in rules.split(",") if r.strip()]
        ns = [int(v) for v in n_list.split(",")]
        ts = [int(v) for v in t_list.split(",")]
        ds = [int(v) for v in d_list.split(",")]
        for r in rule_names:
            if r not in RULES:
                raise ParseError(f"unknown rule {r!r}")
        rows = []
        any_violation = False
        for rule, n, t, d in itertools.product(rule_names, ns, ts, ds):
            if t >= n:
                continue
            if rule in ("medoid", "geomedian", "minmax-meb") and n <= 2 * t:
                continue
            start = time.perf_counter()
            factors = []
            for s in range(seeds):
                inst = random_instance(
                    n, t, d, spread, seed=ctx.obj["seed"] * 100_003 + s, strategy=strategy
                )
                honest = inst.points.honest_points()
                ball = meb(honest)
                if ball.radius <= 0:
                    continue
                result = run_rule(rule, inst.points, t)
                dist = float(np.linalg.norm(result.output - ball.center))
                factors.append(dist / ball.radius)
            elapsed = time.perf_counter() - start
            try:
                bound = theoretical_bound(rule, n, t, d)
            except MebaggError:
                bound = None
            max_f = max(factors) if factors else 0.0
            ok = bound is None or max_f <= bound + ctx.obj["tol"] + 1e-6
            any_violation = any_violation or not ok
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
        header = "rule,n,t,d,seeds,max_factor,mean_factor,bound,within_bound,wall_time_s"
        lines = [header]
        for r in rows:
            lines.append(
                ",".join(
                    [
                        r["rule"],
                        str(r["n"]),
                        str(r["t"]),
                        str(r["d"]),
                        str(r["seeds"]),
                        mio.format_float(r["max_factor"]),
                        mio.format_float(r["mean_factor"]),
                        "" if r["bound"] is None else mio.format_float(r["bound"]),
                        str(r["within_bound"]).lower(),
                        format(r["wall_time_s"], ".6f"),
                    ]
                )
            )
        _emit(ctx, "\n".join(lines) + "\n")
    else:
        _emit(ctx, mio.report_json({"schema": mio.SCHEMA, "command": "bench", "rows": rows}))
    if any_violation:
        sys.exit(EXIT_CERTIFICATION_FAIL)


if __name__ == "__main__":
    main()
