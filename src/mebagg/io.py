"""Point-set file formats and report serialization.

CSV: one point per row, plain decimal columns, optional trailing label
column ``honest``/``byz``. JSON: {"points": [[...]], "labels": [...]}.
Floats are written with 17 significant digits so a write/read round trip is
exact for doubles.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import ParseError
from .pointset import BYZANTINE, HONEST, PointSet

SCHEMA = "mebagg-report/1"


def format_float(x: float) -> str:
    return format(float(x), ".17g")


def format_vector(v) -> list[str]:
    return [format_float(x) for x in np.asarray(v, dtype=float).reshape(-1)]


def points_to_csv(ps: PointSet) -> str:
    lines = []
    for i in range(ps.n):
        cells = format_vector(ps.points[i])
        if ps.labels is not None:
            cells.append(ps.labels[i])
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def points_from_csv(text: str) -> PointSet:
    rows: list[list[float]] = []
    labels: list[str] = []
    saw_label = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        cells = [c.strip() for c in line.split(",")]
        label = None
        if cells and cells[-1] in (HONEST, BYZANTINE):
            label = cells.pop()
        values = []
        for col, cell in enumerate(cells, start=1):
            try:
                values.append(float(cell))
            except ValueError:
                raise ParseError(f"not a number: {cell!r}", line=lineno, column=col)
        if not values:
            raise ParseError("row has no coordinates", line=lineno)
        if rows and len(values) != len(rows[0]):
            raise ParseError(
                f"row has {len(values)} coordinates, expected {len(rows[0])}",
                line=lineno,
            )
        if rows and saw_label != (label is not None):
            raise ParseError("labels must be present on every row or none", line=lineno)
        saw_label = label is not None
        rows.append(values)
        labels.append(label or HONEST)
    if not rows:
        raise ParseError("no points found in input")
    return PointSet(np.array(rows), tuple(labels) if saw_label else None)


def points_to_json(ps: PointSet) -> str:
    payload: dict = {"points": [[float(x) for x in row] for row in ps.points]}
    if ps.labels is not None:
        payload["labels"] = list(ps.labels)
    return json.dumps(payload, indent=2) + "\n"


def json_object(text: str, key: str) -> dict:
    """``text`` parsed as a JSON object that has a ``key`` field; anything
    else raises ParseError, with the line and column of malformed JSON."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno, column=exc.colno)
    if not isinstance(payload, dict) or key not in payload:
        raise ParseError(f'JSON input must be an object with a "{key}" field')
    return payload


def points_from_json(text: str) -> PointSet:
    payload = json_object(text, "points")
    labels = payload.get("labels")
    if labels is not None and not (
        isinstance(labels, list) and all(isinstance(label, str) for label in labels)
    ):
        raise ParseError('"labels" must be a list of strings')
    try:
        pts = np.asarray(payload["points"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f'"points" must be rows of numbers of one length: {exc}')
    return PointSet(pts, tuple(labels) if labels else None)


def load_points(path: str | Path) -> PointSet:
    path = Path(path)
    text = path.read_text()
    if path.suffix.lower() == ".json":
        return points_from_json(text)
    return points_from_csv(text)


def save_points(ps: PointSet, path: str | Path) -> None:
    path = Path(path)
    if path.suffix.lower() == ".json":
        path.write_text(points_to_json(ps))
    else:
        path.write_text(points_to_csv(ps))


def report_json(report: dict) -> str:
    """Serialize a report dict deterministically (insertion order kept). A
    non-finite number is written as the string "inf", "-inf" or "nan", so the
    text is strict JSON."""
    return json.dumps(_plain(report), indent=2, allow_nan=False) + "\n"


def _plain(obj):
    """``obj`` with numpy arrays and scalars as Python lists and numbers, and
    non-finite floats as their names."""
    if isinstance(obj, dict):
        return {key: _plain(v) for key, v in obj.items()}
    if isinstance(obj, np.ndarray):
        obj = obj.reshape(-1).astype(float).tolist()
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    return repr(obj) if isinstance(obj, float) and not math.isfinite(obj) else obj


def _type_ok(value, spec: str) -> bool:
    for alt in spec.split("|"):
        if alt == "null" and value is None:
            return True
        if alt == "any":
            return True
        if alt == "str" and isinstance(value, str):
            return True
        if alt == "bool" and isinstance(value, bool):
            return True
        if alt == "int" and isinstance(value, int) and not isinstance(value, bool):
            return True
        if alt == "number" and (
            isinstance(value, (int, float)) and not isinstance(value, bool)
            or isinstance(value, str) and value in ("inf", "-inf", "nan")  # as ``_plain`` writes them
        ):
            return True
        if alt == "dict" and isinstance(value, dict):
            return True
        if alt.startswith("list") and isinstance(value, list):
            inner = alt[5:-1] if alt != "list" else "any"
            if all(_type_ok(v, inner) for v in value):
                return True
    return False


@lru_cache(maxsize=1)
def _report_schema() -> dict:  # read once per process; callers must not change it
    return json.loads((Path(__file__).parent / "report_schema.json").read_text())


def validate_report(report: dict) -> list[str]:
    """Check a report against the shipped schema; returns problems found."""
    schema = _report_schema()
    problems: list[str] = []
    command = report.get("command")
    spec = schema["commands"].get(command)
    if spec is None:
        return [f"unknown command {command!r}"]
    if report.get("schema") != schema["schema"]:
        problems.append(f"schema tag {report.get('schema')!r}")
    problems += _field_problems(report, spec, "field")
    for cert in report.get("certificates", []):
        problems += _field_problems(cert, schema["certificate"], "certificate field")
    return problems


def _field_problems(obj: dict, spec: dict, what: str) -> list[str]:
    """The required fields ``obj`` lacks and the typed fields it holds with a wrong type."""
    missing = [f"{what} {key!r} missing" for key in spec["required"] if key not in obj]
    return missing + [
        f"{what} {key!r} has wrong type"
        for key, tspec in spec["types"].items()
        if key in obj and not _type_ok(obj[key], tspec)
    ]
