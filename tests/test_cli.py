import json
import math
import re

import numpy as np
import pytest
from click.testing import CliRunner

from mebagg import ParseError, PointSet
from mebagg.cli import main
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


def test_aggregate_minmax_on_interval(runner, tmp_path):
    path = write_interval_csv(tmp_path)
    result = runner.invoke(main, ["aggregate", str(path), "--rule", "minmax-meb", "-t", "1"])
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    assert abs(report["output"][0] - 1.0) <= 1e-6
    assert report["rule"] == "minmax-meb"
    assert report["schema"] == "mebagg-report/1"


def test_aggregate_mean_t0(runner, tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("0,0\n2,4\n")
    result = runner.invoke(main, ["aggregate", str(path), "--rule", "mean"])
    assert result.exit_code == 0
    assert json.loads(result.output)["output"] == [1.0, 2.0]


def test_aggregate_malformed_csv_exits_1(runner, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\nx,y\n")
    result = runner.invoke(main, ["aggregate", str(path), "--rule", "mean"])
    assert result.exit_code == 1
    assert "line 2" in result.output


def test_aggregate_resilience_violation_exits_2(runner, tmp_path):
    path = write_interval_csv(tmp_path)
    result = runner.invoke(main, ["aggregate", str(path), "--rule", "minmax-meb", "-t", "2"])
    assert result.exit_code == 2


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
    report = json.loads(result.output)
    assert abs(report["achieved_factor"] - math.sqrt(5)) <= 1e-9
    conditions = {c["condition"]: c for c in report["certificates"]}
    assert not conditions["c-meb(c=2)"]["pass"]


def test_certify_center_passes(runner, tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("0,0,honest\n2,0,honest\n9,9,byz\n")
    result = runner.invoke(main, ["certify", str(path), "--y", "1,0", "-t", "1", "--c", "1"])
    assert result.exit_code == 0
    assert json.loads(result.output)["achieved_factor"] <= 1e-9


def test_certify_labeled_coincident_honest_points(runner, tmp_path):
    # a zero-radius honest ball: the reported factor is the c-meb
    # certificate's; it and the box and bias certificates all compare
    # lengths at a tolerance that scales with the coordinates
    path = tmp_path / "p.csv"
    path.write_text("1000,1000,honest\n" * 3 + "5000,5000,byz\n")
    result = runner.invoke(
        main, ["certify", str(path), "--y=1000.00000001,1000", "--c=1.5", "-t", "1"]
    )
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    certs = {c["condition"]: c for c in report["certificates"]}
    c_meb = certs["c-meb(c=1.5)"]
    assert c_meb["pass"]
    assert report["achieved_factor"] == c_meb["achieved"] == 0.0
    assert certs["box"]["pass"]
    assert certs["bias(c=1.5)"]["pass"]


def test_certify_unlabeled_worst_case(runner, tmp_path):
    path = write_interval_csv(tmp_path)
    result = runner.invoke(main, ["certify", str(path), "--y", "1", "-t", "1"])
    assert result.exit_code == 0
    report = json.loads(result.output)
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
    report = json.loads(result.output)
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


def test_scenario_tangent_balls_verify(runner):
    result = runner.invoke(main, ["scenario", "tangent-balls", "--k", "2", "--verify"])
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    assert report["verified"] is True
    assert abs(report["detail"]["minmax_value"] - 0.1547005) <= 1e-4


def test_scenario_lower_bound_verify(runner):
    result = runner.invoke(
        main, ["scenario", "lower-bound", "--d", "3", "-t", "3", "--verify"]
    )
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    assert report["detail"]["empty"] is True


def test_scenario_medoid_ce_verify_large_t(runner):
    result = runner.invoke(
        main, ["scenario", "medoid-ce", "-t", "12", "--x", "10", "--verify"]
    )
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    assert abs(report["detail"]["distance_to_hostile_center"] - math.sqrt(5)) <= 1e-9


def test_scenario_medoid_ce_verify_small_t_fails(runner):
    # the selection race crosses over only at t=12; at t=8 the construction
    # does not deliver its advertised property and verification must say so
    result = runner.invoke(
        main, ["scenario", "medoid-ce", "-t", "8", "--x", "10", "--verify"]
    )
    assert result.exit_code == 2
    report = json.loads(result.output)
    assert report["verified"] is False
    assert report["detail"]["medoid"] == [2.0, 0.0]


def test_scenario_emit_files(runner, tmp_path):
    out = tmp_path / "scen"
    result = runner.invoke(
        main,
        ["scenario", "gm-convex", "-t", "3", "--emit", str(out)],
    )
    assert result.exit_code == 0
    assert (out / "points.csv").exists()
    spec = json.loads((out / "scenario.json").read_text())
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
    report = json.loads(second.output)
    assert report["kind"] == "lower-bound"
    assert report["detail"]["empty"] is True


def test_scenario_gm_convex_verify(runner):
    result = runner.invoke(main, ["scenario", "gm-convex", "-t", "50", "--verify"])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["detail"]["hull_distance"] > 0.01


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
    for row in json.loads(result.output)["rows"]:
        assert row["within_bound"]
        assert row["max_factor"] < math.sqrt(2) + 1e-6


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


def test_out_flag_writes_file(runner, tmp_path):
    src = tmp_path / "p.csv"
    src.write_text("0,0\n1,1\n")
    dest = tmp_path / "report.json"
    result = runner.invoke(
        main, ["--out", str(dest), "aggregate", str(src), "--rule", "mean"]
    )
    assert result.exit_code == 0
    assert json.loads(dest.read_text())["rule"] == "mean"


def test_reports_validate_against_shipped_schema(runner, tmp_path):
    path = write_interval_csv(tmp_path)
    cmds = [
        ["aggregate", str(path), "--rule", "medoid", "-t", "1"],
        ["certify", str(path), "--y", "1", "-t", "1", "--c", "2"],
        ["scenario", "tangent-balls", "--k", "2", "--verify"],
        ["bench", "--rules", "medoid", "--n-list", "5", "--t-list", "1",
         "--d-list", "2", "--seeds", "2"],
    ]
    for cmd in cmds:
        result = runner.invoke(main, cmd)
        assert result.exit_code == 0, (cmd, result.output)
        report = json.loads(result.output)
        assert validate_report(report) == [], (cmd, validate_report(report))
