import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from mebagg import ParseError, PointSet
from mebagg import io as mio
from mebagg.cli import SCENARIOS, main
from mebagg.io import (
    load_points,
    points_from_csv,
    points_from_json,
    points_to_csv,
    points_to_json,
    save_points,
    validate_report,
)

# ---------------------------------------------------------------------------
# file formats


def test_csv_round_trip_bit_identical():
    ps = PointSet(np.array([[0.1, 0.2], [1 / 3,
                                         math.pi], [-7.25, 1e-17]]))
    text = points_to_csv(ps)
    again = points_to_csv(points_from_csv(text))
    assert text == again


def test_csv_labels_round_trip():
    ps = PointSet(np.array([[0.0, 1.0], [2.0, 3.0]]), labels=("honest", "byz"))
    back = points_from_csv(points_to_csv(ps))
    assert back.labels == ("honest", "byz")


def test_csv_parse_error_reports_location():
    with pytest.raises(ParseError) as err:
        points_from_csv("1.0,2.0\n1.0,oops\n")
    assert "line 2" in str(err.value)
    assert err.value.line == 2 and err.value.column == 2


def test_csv_rejects_ragged_rows():
    with pytest.raises(ParseError):
        points_from_csv("1.0,2.0\n1.0\n")


def test_csv_rejects_partial_labels():
    with pytest.raises(ParseError):
        points_from_csv("1.0,2.0,honest\n3.0,4.0\n")


def test_json_round_trip():
    ps = PointSet(np.array([[0.5, -1.5]]), labels=("honest",))
    back = points_from_json(points_to_json(ps))
    assert np.array_equal(back.points, ps.points)
    assert back.labels == ps.labels


def test_load_save_by_extension(tmp_path):
    ps = PointSet(np.array([[1.0], [2.0]]))
    for name in ("pts.csv", "pts.json"):
        path = tmp_path / name
        save_points(ps, path)
        assert np.array_equal(load_points(path).points, ps.points)


# ---------------------------------------------------------------------------
# CLI commands


@pytest.fixture
def runner():
    return CliRunner()


def write_interval_csv(tmp_path):
    path = tmp_path / "points.csv"
    path.write_text("0\n1\n10\n")
    return path


def _strict_json(text):
    """``text`` parsed as RFC 8259 JSON: NaN and Infinity tokens raise. Every
    report these tests read goes through it."""

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=reject)


def test_aggregate_minmax_on_interval(runner, tmp_path):
    path = write_interval_csv(tmp_path)
    result = runner.invoke(main, ["aggregate", str(path), "--rule", "minmax-meb", "-t", "1"])
    assert result.exit_code == 0, result.output
    report = _strict_json(result.output)
    assert abs(report["output"][0] - 1.0) <= 1e-6
    assert report["rule"] == "minmax-meb"
    assert report["schema"] == "mebagg-report/1"


def test_aggregate_mean_t0(runner, tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("0,0\n2,4\n")
    result = runner.invoke(main, ["aggregate", str(path), "--rule", "mean"])
    assert result.exit_code == 0
    assert _strict_json(result.output)["output"] == [1.0, 2.0]


def test_aggregate_mean_holds_when_the_coordinate_sum_passes_the_float_range(runner, tmp_path):
    # the first coordinates sum past the float range; their mean does not
    path = tmp_path / "p.csv"
    path.write_text("1.5e308,0\n1.7e308,1\n1.6e308,3\n")
    result = runner.invoke(main, ["aggregate", str(path), "--rule", "mean"])
    assert result.exit_code == 0, result.output
    assert _strict_json(result.output)["output"] == [1.6e308, 4.0 / 3.0]


def test_aggregate_malformed_csv_exits_1(runner, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\nx,y\n")
    result = runner.invoke(main, ["aggregate", str(path), "--rule", "mean"])
    assert result.exit_code == 1
    assert "line 2" in result.output


@pytest.mark.parametrize(
    "payload, field",
    [
        ('{"points": [["a", 1], [2, 3]]}', "points"),
        ('{"points": [[1, 2], [3]]}', "points"),
        ('{"points": [[1, 2], [3, 4], [5, 6]], "labels": "honest"}', "labels"),
        ('{"points": [[1, 2], [3, 4]], "labels": [["honest"], "byz"]}', "labels"),
    ],
    ids=["non-numeric", "ragged", "labels-string", "labels-not-strings"],
)
def test_aggregate_malformed_json_exits_1(runner, tmp_path, payload, field):
    path = tmp_path / "bad.json"
    path.write_text(payload)
    result = runner.invoke(main, ["aggregate", str(path), "--rule", "mean"])
    assert result.exit_code == 1, result.output
    assert result.output.startswith(f'error: "{field}" must be')


def test_aggregate_resilience_violation_exits_2(runner, tmp_path):
    path = write_interval_csv(tmp_path)
    result = runner.invoke(main, ["aggregate", str(path), "--rule", "minmax-meb", "-t", "2"])
    assert result.exit_code == 2


@pytest.mark.parametrize(
    "command",
    [["aggregate", "--rule", "medoid", "-t", "99"], ["certify", "--y=1,0", "-t", "-3"]],
    ids=["medoid-ignores-t", "labeled-certify"],
)
def test_a_fault_budget_outside_0_to_n_is_rejected(runner, tmp_path, command):
    # both reported the bad t and exited 0, since neither path reads t
    path = tmp_path / "p.csv"
    path.write_text("0,0,honest\n2,0,honest\n9,9,byz\n")
    result = runner.invoke(main, [command[0], str(path), *command[1:]])
    assert result.exit_code == 2, result.output
    assert result.output.startswith("error: t must be an integer >= 0 and < 3, got ")


def test_aggregate_report_determinism(runner, tmp_path):
    path = write_interval_csv(tmp_path)
    outputs = []
    for _ in range(2):
        result = runner.invoke(main, ["aggregate", str(path), "--rule", "mda", "-t", "1"])
        stripped = re.sub(r'"wall_time_s": [^,\n]+', '"wall_time_s": 0', result.output)
        outputs.append(stripped)
    assert outputs[0] == outputs[1]


def test_certify_labeled_counterexample(runner, tmp_path):
    # honest designation around (3,0): the top-left cluster point scores
    # sqrt(5) and fails c=2
    from mebagg import medoid_counterexample
    from mebagg.io import save_points

    inst = medoid_counterexample(8, 10.0)
    idx = set(inst.designations["ECD"])
    labels = tuple("honest" if i in idx else "byz" for i in range(inst.points.n))
    path = tmp_path / "ce.csv"
    save_points(PointSet(inst.points.points, labels), path)
    result = runner.invoke(
        main, ["certify", str(path), "--y", "1,1", "-t", "8", "--c", "2"]
    )
    assert result.exit_code == 2
    report = _strict_json(result.output)
    assert abs(report["achieved_factor"] - math.sqrt(5)) <= 1e-9
    conditions = {c["condition"]: c for c in report["certificates"]}
    assert not conditions["c-meb(c=2)"]["pass"]


def test_certify_center_passes(runner, tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("0,0,honest\n2,0,honest\n9,9,byz\n")
    result = runner.invoke(main, ["certify", str(path), "--y", "1,0", "-t", "1", "--c", "1"])
    assert result.exit_code == 0
    assert _strict_json(result.output)["achieved_factor"] <= 1e-9


def test_certify_labeled_coincident_honest_points(runner, tmp_path):
    # a zero-radius honest ball: the reported factor is the c-meb
    # certificate's; it and the box and bias certificates all compare
    # lengths at a tolerance of the honest extent, 0 here, plus a rounding
    # floor, so y one rounding off the location passes and y 1e-8 off misses
    path = tmp_path / "p.csv"
    path.write_text("1000,1000,honest\n" * 3 + "5000,5000,byz\n")
    assert float("1000.0000000000001") == np.nextafter(1000.0, 2000.0)
    result = runner.invoke(
        main, ["certify", str(path), "--y=1000.0000000000001,1000", "--c=1.5", "-t", "1"]
    )
    assert result.exit_code == 0, result.output
    report = _strict_json(result.output)
    certs = {c["condition"]: c for c in report["certificates"]}
    c_meb = certs["c-meb(c=1.5)"]
    assert c_meb["pass"]
    assert report["achieved_factor"] == c_meb["achieved"] == 0.0
    assert certs["box"]["pass"]
    assert certs["bias(c=1.5)"]["pass"]

    result = runner.invoke(
        main, ["certify", str(path), "--y=1000.00000001,1000", "--c=1.5", "-t", "1"]
    )
    assert result.exit_code == 2, result.output
    report = _strict_json(result.output)
    certs = {c["condition"]: c for c in report["certificates"]}
    # an infinite factor is written as the string "inf": reports are strict JSON
    assert report["achieved_factor"] == certs["c-meb(c=1.5)"]["achieved"] == "inf"
    assert not any(certs[k]["pass"] for k in ("c-meb(c=1.5)", "box", "bias(c=1.5)"))


def test_certify_in_high_dimension_finishes(tmp_path):
    # 100 honest points in R^1000 and one Byzantine point: the honest ball has
    # dozens of points on its sphere. A separate process with a timeout makes a
    # solver that walks subsets fail the suite instead of hanging it
    rng = np.random.default_rng(3)
    pts = np.vstack([rng.normal(size=(100, 1000)), np.full((1, 1000), 10.0)])
    path = tmp_path / "hd.csv"
    save_points(PointSet(pts, ("honest",) * 100 + ("byz",)), path)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "mebagg.cli", "certify", str(path), "--y=" + ",".join(["0"] * 1000),
         "-t", "1", "--c", "1.5"],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    report = _strict_json(proc.stdout)
    assert validate_report(report) == []
    assert report["command"] == "certify" and len(report["y"]) == 1000


def test_certify_unlabeled_worst_case(runner, tmp_path):
    path = write_interval_csv(tmp_path)
    result = runner.invoke(main, ["certify", str(path), "--y", "1", "-t", "1"])
    assert result.exit_code == 0
    report = _strict_json(result.output)
    # y=1 sits in every candidate interval, the worst ratio stays below 1
    assert report["achieved_factor"] <= 1.0 + 1e-9
    assert report["mode"] == "worst-case"


def test_certify_ignore_labels_keeps_the_designation_on_a_pass(runner, tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("0,0,honest\n2,0,honest\n9,9,byz\n")
    result = runner.invoke(
        main, ["certify", str(path), "--y=1,0", "-t", "1", "--c", "3", "--ignore-labels"]
    )
    assert result.exit_code == 0, result.output
    report = _strict_json(result.output)
    assert report["mode"] == "worst-case"
    assert report["worst_designation"] == [1, 2]
    assert report["certificates"] == [
        {
            "condition": "c-meb(c=3)",
            "achieved": report["achieved_factor"],
            "bound": 3.0,
            "pass": True,
            "witness": [1, 2],
        }
    ]


@pytest.mark.parametrize("c", ["0.5", "nan"])
@pytest.mark.parametrize("mode", [[], ["--ignore-labels"]], ids=["labeled", "worst-case"])
def test_certify_rejects_a_factor_below_one(runner, tmp_path, c, mode):
    path = tmp_path / "p.csv"
    path.write_text("0,0,honest\n2,0,honest\n9,9,byz\n")
    result = runner.invoke(main, ["certify", str(path), "--y=1,0", "-t", "1", "--c", c, *mode])
    assert result.exit_code == 2, result.output
    assert result.output.startswith("error: relaxation factor c must be >= 1")


@pytest.mark.parametrize("mode", [[], ["--ignore-labels"]], ids=["labeled", "worst-case"])
def test_certify_rejects_an_infinite_factor(runner, tmp_path, mode):
    # an infinite bound would print as Infinity, which is not JSON
    path = tmp_path / "p.csv"
    path.write_text("0,0,honest\n2,0,honest\n9,9,byz\n")
    result = runner.invoke(main, ["certify", str(path), "--y=1,0", "-t", "1", "--c", "inf", *mode])
    assert result.exit_code == 2, result.output
    assert result.output.startswith("error: relaxation factor c must be >= 1 and finite, got inf")


@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
@pytest.mark.parametrize(
    "command",
    [["certify", "--y=1,0", "-t", "1", "--c", "3"],
     ["certify", "--y=1,0", "-t", "1", "--c", "3", "--ignore-labels"],
     ["bench", "--rules", "medoid", "--n-list", "5", "--t-list", "1", "--seeds", "1"],
     ["scenario", "lower-bound", "--d", "2", "-t", "2", "--verify"]],
    ids=["labeled", "worst-case", "bench", "scenario"],
)
def test_a_negative_or_non_finite_tol_is_rejected(runner, tmp_path, tol, command):
    # at nan every certificate used to fail while certify exited 0, and
    # scenario --verify replaced a negative tol with 1e-9
    path = tmp_path / "p.csv"
    path.write_text("0,0,honest\n2,0,honest\n9,9,byz\n")
    if command[0] == "certify":
        command = [command[0], str(path), *command[1:]]
    result = runner.invoke(main, ["--tol", tol, *command])
    assert result.exit_code == 2, result.output
    assert result.output.startswith(f"error: tol must be >= 0 and finite, got {float(tol)}")


@pytest.mark.parametrize("cap", ["0", "-5"])
def test_max_subsets_below_one_is_rejected(runner, tmp_path, cap):
    path = write_interval_csv(tmp_path)
    result = runner.invoke(
        main, ["--max-subsets", cap, "aggregate", str(path), "--rule", "minmax-meb", "-t", "1"]
    )
    assert result.exit_code == 2, result.output
    assert "Invalid value for '--max-subsets'" in result.output


@pytest.mark.parametrize(
    "option, value", [("--seeds", "0"), ("--seeds", "-3"), ("--seed", "-1")]
)
def test_bench_seed_counts_out_of_range_are_rejected(runner, option, value):
    # --seeds 0 ran no instance and reported the empty cell within its bound,
    # and --seed -1 failed on a derived seed of -100003
    grid = ["--rules", "medoid", "--n-list", "5", "--t-list", "1"]
    command = ["bench", *grid, option, value] if option == "--seeds" else [option, value, "bench", *grid]
    result = runner.invoke(main, command)
    assert result.exit_code == 2, result.output
    assert f"Invalid value for '{option}'" in result.output


def test_scenario_tangent_balls_verify(runner):
    result = runner.invoke(main, ["scenario", "tangent-balls", "--k", "2", "--verify"])
    assert result.exit_code == 0, result.output
    report = _strict_json(result.output)
    assert report["verified"] is True
    assert abs(report["detail"]["minmax_value"] - 0.1547005) <= 1e-4


def test_scenario_lower_bound_verify(runner):
    result = runner.invoke(
        main, ["scenario", "lower-bound", "--d", "3", "-t", "3", "--verify"]
    )
    assert result.exit_code == 0, result.output
    report = _strict_json(result.output)
    assert report["detail"]["empty"] is True


def test_scenario_medoid_ce_verify_large_t(runner):
    result = runner.invoke(
        main, ["scenario", "medoid-ce", "-t", "12", "--x", "10", "--verify"]
    )
    assert result.exit_code == 0, result.output
    report = _strict_json(result.output)
    assert abs(report["detail"]["distance_to_hostile_center"] - math.sqrt(5)) <= 1e-9


def test_scenario_medoid_ce_verify_small_t_fails(runner):
    # the selection race crosses over only at t=12; at t=8 the construction
    # does not deliver its advertised property and verification must say so
    result = runner.invoke(
        main, ["scenario", "medoid-ce", "-t", "8", "--x", "10", "--verify"]
    )
    assert result.exit_code == 2
    report = _strict_json(result.output)
    assert report["verified"] is False
    assert report["detail"]["medoid"] == [2.0, 0.0]


def test_scenario_default_t_is_the_smallest_the_kind_accepts(runner):
    # without -t, each kind runs at a fault budget it accepts
    result = runner.invoke(main, ["scenario", "gm-impossibility", "--verify"])
    assert result.exit_code == 0, result.output
    report = _strict_json(result.stdout)
    assert report["params"]["t"] == 5 and report["verified"] is True
    # t = 4 is below the t = 12 crossover of the known-red medoid
    # counterexample (README, "Known red"): verify reports the failure
    result = runner.invoke(main, ["scenario", "medoid-ce", "--verify"])
    assert result.exit_code == 2
    assert "error:" not in result.output
    report = _strict_json(result.stdout)
    assert validate_report(report) == []
    assert report["params"]["t"] == 4 and report["verified"] is False
    assert report["detail"]["medoid"] == [2.0, 0.0]
    # the other kinds keep t = 3
    result = runner.invoke(main, ["scenario", "gm-convex"])
    assert result.exit_code == 0 and _strict_json(result.stdout)["params"]["t"] == 3


def test_scenario_emit_files(runner, tmp_path):
    out = tmp_path / "scen"
    result = runner.invoke(
        main,
        ["scenario", "gm-convex", "-t", "3", "--emit", str(out)],
    )
    assert result.exit_code == 0
    assert (out / "points.csv").exists()
    spec = _strict_json((out / "scenario.json").read_text())
    assert spec["kind"] == "gm-convex"
    assert load_points(out / "points.csv").n == 10


def test_scenario_config_round_trip(runner, tmp_path):
    out = tmp_path / "scen"
    first = runner.invoke(
        main, ["scenario", "lower-bound", "--d", "3", "--t", "3", "--emit", str(out)]
    )
    assert first.exit_code == 0
    second = runner.invoke(
        main, ["scenario", "--config", str(out / "scenario.json"), "--verify"]
    )
    assert second.exit_code == 0, second.output
    report = _strict_json(second.output)
    assert report["kind"] == "lower-bound"
    assert report["detail"]["empty"] is True


# every kind at arguments other than the defaults, random also at another --seed
ROUND_TRIPS = [
    ["scenario", "lower-bound", "--d", "3", "-t", "4"],
    ["scenario", "medoid-ce", "-t", "6", "--x", "7.5"],
    ["scenario", "gm-impossibility", "-t", "6", "--x", "20"],
    ["scenario", "gm-convex", "-t", "4"],
    ["scenario", "tangent-balls", "--k", "3"],
    ["--seed", "3", "scenario", "random", "--n", "7", "-t", "2", "--d", "3", "--spread", "2.5",
     "--strategy", "cluster"],
    ["--seed", "5", "scenario", "random", "--strategy", "worst-case", "--attack-rule", "mda"],
]


def test_round_trips_cover_every_scenario_kind():
    assert {argv[argv.index("scenario") + 1] for argv in ROUND_TRIPS} == set(SCENARIOS)


@pytest.mark.parametrize("argv", ROUND_TRIPS, ids=[
    "lower-bound", "medoid-ce", "gm-impossibility", "gm-convex", "tangent-balls", "random-cluster",
    "random-worst-case",
])
def test_scenario_config_reproduces_the_emitted_scenario(runner, tmp_path, argv):
    first = runner.invoke(main, [*argv, "--emit", str(tmp_path / "a")])
    assert first.exit_code == 0, first.output
    second = runner.invoke(
        main, ["scenario", "--config", str(tmp_path / "a" / "scenario.json"), "--emit", str(tmp_path / "b")]
    )
    assert second.exit_code == 0, second.output
    assert _strict_json(second.output)["params"] == _strict_json(first.output)["params"]
    written = sorted(f.name for f in (tmp_path / "a").iterdir())
    assert written == sorted(f.name for f in (tmp_path / "b").iterdir())
    for name in written:
        assert (tmp_path / "a" / name).read_text() == (tmp_path / "b" / name).read_text(), name


@pytest.mark.parametrize(
    "payload",
    [
        "{not json",
        "5",
        '{"kind": "lower-bound", "params": {"d": "three"}}',
        '{"kind": "tangent-balls", "params": {"k": 2.7}}',
        '{"kind": "medoid-ce", "params": {"t": true}}',
    ],
    ids=["invalid-json", "not-an-object", "uncastable-param", "fractional-int-param", "bool-param"],
)
def test_scenario_malformed_config_is_an_error(runner, tmp_path, payload):
    path = tmp_path / "scenario.json"
    path.write_text(payload)
    result = runner.invoke(main, ["scenario", "--config", str(path)])
    assert result.exit_code == 1, result.output
    assert result.output.startswith("error: ")


def test_scenario_gm_convex_verify(runner):
    result = runner.invoke(main, ["scenario", "gm-convex", "-t", "50", "--verify"])
    assert result.exit_code == 0, result.output
    assert _strict_json(result.output)["detail"]["hull_distance"] > 0.01


@pytest.mark.parametrize("option", ["--n-list", "--t-list", "--d-list"])
def test_bench_malformed_list_is_an_error(runner, option):
    result = runner.invoke(main, ["bench", option, "5,x"])
    assert result.exit_code == 1, result.output
    assert result.output.startswith("error: ")


def test_bench_t0_within_bounds(runner):
    result = runner.invoke(
        main,
        [
            "--format", "csv",
            "bench",
            "--rules", "mda,medoid,geomedian",
            "--n-list", "5,7",
            "--t-list", "0,1",
            "--d-list", "2",
            "--seeds", "5",
        ],
    )
    assert result.exit_code == 0, result.output
    lines = result.output.strip().splitlines()
    assert lines[0].startswith("rule,n,t,d,seeds,max_factor")
    rows = [line.split(",") for line in lines[1:]]
    assert rows
    for row in rows:
        assert row[8] == "true"
        if row[2] == "0":
            assert float(row[5]) <= 1.0 + 1e-9


def test_bench_minmax_stays_below_sqrt2(runner):
    result = runner.invoke(
        main,
        ["bench", "--rules", "minmax-meb", "--n-list", "5,7", "--t-list", "1,2",
         "--d-list", "2", "--seeds", "5"],
    )
    assert result.exit_code == 0, result.output
    for row in _strict_json(result.output)["rows"]:
        assert row["within_bound"]
        assert row["max_factor"] < math.sqrt(2) + 1e-6


def test_bench_skips_mda_without_an_honest_majority(runner):
    # mda has no finite bound at n <= 2t, as no rule has
    result = runner.invoke(
        main, ["bench", "--rules", "mda", "--n-list", "5", "--t-list", "3", "--d-list", "2"]
    )
    assert result.exit_code == 0, result.output
    assert _strict_json(result.output)["rows"] == []


def test_bench_json_determinism(runner):
    args = ["bench", "--rules", "medoid", "--n-list", "5", "--t-list", "1",
            "--d-list", "2", "--seeds", "3"]
    outs = []
    for _ in range(2):
        result = runner.invoke(main, args)
        assert result.exit_code == 0
        stripped = re.sub(r'"wall_time_s": [^,\n]+', '"wall_time_s": 0', result.output)
        outs.append(stripped)
    assert outs[0] == outs[1]


def test_bench_factor_holds_at_any_spread(runner):
    factors = []
    for spread in ("1e-200", "1", "1e200"):
        result = runner.invoke(
            main, ["bench", "--rules", "medoid,mda,geomedian", "--n-list", "5", "--t-list", "1",
                   "--d-list", "2", "--seeds", "3", "--spread", spread],
        )
        assert result.exit_code == 0, result.output
        factors.append([row["max_factor"] for row in _strict_json(result.output)["rows"]])
    assert np.allclose(factors[0], factors[1], rtol=1e-9, atol=0.0)
    assert np.allclose(factors[2], factors[1], rtol=1e-9, atol=0.0)


def test_out_flag_writes_file(runner, tmp_path):
    src = tmp_path / "p.csv"
    src.write_text("0,0\n1,1\n")
    dest = tmp_path / "report.json"
    result = runner.invoke(
        main, ["--out", str(dest), "aggregate", str(src), "--rule", "mean"]
    )
    assert result.exit_code == 0
    assert _strict_json(dest.read_text())["rule"] == "mean"


def test_reports_validate_against_shipped_schema(runner, tmp_path):
    path = write_interval_csv(tmp_path)
    # one honest location: the honest ball has radius 0, so the factor is infinite
    point = tmp_path / "point.csv"
    point.write_text("1,1,honest\n1,1,honest\n1,1,honest\n5,5,byz\n")
    cmds = [
        (["aggregate", str(path), "--rule", "medoid", "-t", "1"], 0),
        (["certify", str(path), "--y", "1", "-t", "1", "--c", "2"], 0),
        (["certify", str(point), "--y", "2,2", "--c", "2", "-t", "1"], 2),
        (["scenario", "tangent-balls", "--k", "2", "--verify"], 0),
        (["scenario", "gm-impossibility", "-t", "5", "--verify"], 0),
        (["scenario", "random", "--verify"], 0),
        (["bench", "--rules", "medoid", "--n-list", "5", "--t-list", "1",
          "--d-list", "2", "--seeds", "2"], 0),
    ]
    reports = []
    for cmd, code in cmds:
        result = runner.invoke(main, cmd)
        assert result.exit_code == code, (cmd, result.output)
        reports.append(_strict_json(result.output))
        assert validate_report(reports[-1]) == [], (cmd, validate_report(reports[-1]))
    assert reports[2]["achieved_factor"] == reports[2]["certificates"][0]["achieved"] == "inf"
    assert [r["verified"] for r in reports[3:6]] == [True, True, True]


@pytest.mark.parametrize(
    "edit, problem",
    [(lambda r: r.update(command="plot"), "unknown command 'plot'"),
     (lambda r: r.update(schema="mebagg-report/0"), "schema tag 'mebagg-report/0'"),
     (lambda r: r.pop("y"), "field 'y' missing"),
     (lambda r: r.update(achieved_factor="Infinity"), "field 'achieved_factor' has wrong type"),
     (lambda r: r["certificates"][0].pop("bound"), "certificate field 'bound' missing"),
     (lambda r: r["certificates"][0].update(achieved=None), "certificate field 'achieved' has wrong type")],
    ids=["command", "schema-tag", "missing-field", "wrong-type", "certificate-missing-key",
         "certificate-wrong-type"],
)
def test_validate_report_names_each_problem(runner, tmp_path, edit, problem):
    path = write_interval_csv(tmp_path)
    result = runner.invoke(main, ["certify", str(path), "--y", "1", "-t", "1", "--c", "2"])
    report = _strict_json(result.output)
    edit(report)
    assert validate_report(report) == [problem]


def test_validate_report_reads_the_schema_once(runner, tmp_path, monkeypatch):
    path = write_interval_csv(tmp_path)
    report = _strict_json(runner.invoke(main, ["certify", str(path), "--y", "1", "-t", "1", "--c", "2"]).output)
    reads, read_text = [], Path.read_text

    def counting(self, *args, **kwargs):
        if self.name == "report_schema.json":
            reads.append(self)
        return read_text(self, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", counting)
    mio._report_schema.cache_clear()
    assert validate_report(report) == validate_report(report) == []
    assert len(reads) == 1
