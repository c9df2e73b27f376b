"""CLI: job validation, pipelines, canned examples, polygon emission."""

import json
import time
from fractions import Fraction

import pytest

from padicdisc.cli import (
    emit_polygon,
    example_spec,
    main,
    run,
    run_example,
    serialize_report,
    validate_jobspec,
)
from padicdisc.errors import SchemaError, SelectorError, UnknownExample
from padicdisc import FieldDescriptor, TruncatedSeries
from padicdisc import jsonio


def test_schema_rejects_low_order():
    spec = example_spec("p2-trivial")
    spec["N"] = 4
    with pytest.raises(SchemaError):
        validate_jobspec(spec)


def test_schema_rejects_low_digits():
    spec = example_spec("p2-trivial")
    spec["field"]["digits"] = 4
    with pytest.raises(SchemaError):
        validate_jobspec(spec)


def test_schema_rejects_missing_and_unknown():
    with pytest.raises(SchemaError):
        validate_jobspec({"field": {"p": 2}})
    spec = example_spec("p2-trivial")
    spec["outputs"] = ["tree", "nonsense"]
    with pytest.raises(SchemaError):
        validate_jobspec(spec)


def test_run_p2_trivial_report():
    report = run(example_spec("p2-trivial"))
    assert not report["errors"]
    assert all(check["passed"] for check in report["checks"])
    tree = report["outputs"]["tree"]
    assert tree["branch_points"] == [
        {"t_radius": "1", "branch_radius": "2", "delta": 2, "branches": [[0], [1]]}]
    basis = report["outputs"]["optimal"]
    assert [col["predicted_q"] for col in basis["columns"]] == ["0", "2"]
    assert [col["estimated_q"] for col in basis["columns"]] == ["0", "2"]


def test_run_p3_trivial_report():
    report = run(example_spec("p3-trivial"))
    assert not report["errors"]
    assert all(check["passed"] for check in report["checks"])
    basis = report["outputs"]["optimal"]
    assert [col["predicted_q"] for col in basis["columns"]] == ["0", "3/2", "3/2"]


def test_run_is_deterministic():
    a = serialize_report(run(example_spec("p2-trivial")))
    b = serialize_report(run(example_spec("p2-trivial")))
    assert a == b


def test_run_short_circuits_outputs():
    spec = example_spec("p2-trivial")
    spec["outputs"] = ["tree"]
    report = run(spec)
    assert set(report["outputs"]) == {"tree"}
    assert report["checks"] == []


def test_run_total_on_failing_stage():
    # non-etale morphism: direct-image stages report structured errors,
    # tree and vandermonde still emitted
    spec = example_spec("p2-trivial")
    spec["morphism"] = {"f": ["0", "0", "1"], "d": 2, "hints": None}
    del spec["morphism"]["hints"]
    spec["center"] = "16"
    report = run(spec)
    assert any(err["error"] == "NotEtale" for err in report["errors"])
    assert "tree" in report["outputs"]


def test_run_rank2_module_fundamental_only():
    # rank > 1 pipelines emit fundamental solutions; the optimal stage needs
    # caller-asserted upstairs bases, so it reports a structured error
    spec = example_spec("p2-trivial")
    spec["module"] = {"rank": 2, "A": [[["0"], ["0"]], [["0"], ["-1"]]]}
    report = run(spec)
    assert len(report["outputs"]["fundamental"]) == 4
    assert any(err["stage"] == "optimal" for err in report["errors"])
    assert "direct-image" in report["outputs"]


def test_order_and_digits_overrides():
    spec = example_spec("p2-trivial", order=16, digits=32)
    assert spec["N"] == 16 and spec["field"]["digits"] == 32
    report = run(spec)
    assert all(c["passed"] for c in report["checks"])
    tree = report["outputs"]["tree"]
    assert tree["branch_points"][0]["branch_radius"] == "2"


def test_run_examples_all_pass():
    for name in ("p2-trivial", "p2-exp", "p3-trivial"):
        result = run_example(name)
        assert result["passed"], name
        blocking = [row for row in result["diffs"] if row.get("blocking", True)]
        assert all(row["match"] for row in blocking)
        assert all(c["passed"] for c in result["report"]["checks"])


def test_run_example_reports_known_discrepancy():
    result = run_example("p2-exp")
    flagged = [row for row in result["diffs"] if not row.get("blocking", True)]
    assert len(flagged) == 1
    assert not flagged[0]["match"]
    assert "discrepancy" in flagged[0]["note"]


def test_unknown_example():
    with pytest.raises(UnknownExample):
        run_example("p5-trivial")


def test_emit_polygon_fp_trend():
    data = emit_polygon(example_spec("p2-trivial"), "fp")
    assert data["tail_estimate"] == {"q": "2", "stable": True}
    # vertices trend to slope -2: the widest edge between recorded vertices
    verts = [(int(i), Fraction(v)) for i, v in data["vertices"]]
    slopes = [(y2 - y1) / (x2 - x1) for (x1, y1), (x2, y2) in zip(verts, verts[1:])]
    assert min(slopes) <= -Fraction(31, 16)


def test_emit_polygon_p3_hull():
    data = emit_polygon(example_spec("p3-trivial"), "f")
    assert data["vertices"] == [["1", "1"], ["3", "0"]]


def test_emit_polygon_constant_module_entry():
    spec = example_spec("p2-exp")
    data = emit_polygon(spec, "A[0][0]")
    assert data["vertices"] == [["0", "0"]]


def test_emit_polygon_selector_error():
    with pytest.raises(SelectorError):
        emit_polygon(example_spec("p2-trivial"), "B[0][0]")


def test_main_exit_codes(tmp_path):
    out = tmp_path / "report.json"
    code = main(["--example", "p2-trivial", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["passed"]

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"field": {"p": 2}, "N": 4,
                               "morphism": {"f": ["0", "2", "1"], "d": 2}}))
    assert main(["--spec", str(bad)]) == 2


def test_main_byte_identical(tmp_path):
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["--example", "p3-trivial", "--out", str(r1)]) == 0
    assert main(["--example", "p3-trivial", "--out", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_main_polygon_csv(tmp_path, capsys):
    code = main(["--example", "p2-trivial", "--polygon", "fp", "--format", "csv"])
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("kind,x,y")


# -- json round trips ------------------------------------------------------------------

def test_scalar_json_roundtrip(q3pi):
    from padicdisc import root_of_unity
    z = root_of_unity(3, q3pi)
    data = jsonio.scalar_to_json(z)
    assert data["val"] == "0"
    back = jsonio.scalar_from_json(data, q3pi)
    assert (back - z).is_zero()


def test_scalar_json_coords_are_normalized(q2):
    # [m, e] is m * p^e with the field's digits beyond its valuation
    four = jsonio.scalar_from_json({"coords": [["4", "0"]]}, q2)
    assert four.valuation() == 2
    assert four.coords == q2.from_rational(4).coords
    minus_three = jsonio.scalar_from_json({"coords": [["-3", "0"]]}, q2)
    assert minus_three.coords == q2.from_rational(-3).coords


def test_series_json_roundtrip(q2):
    f = TruncatedSeries.from_rationals(q2, "t", 0, [1, Fraction(1, 2), 3], order=8)
    back = jsonio.series_from_json(jsonio.series_to_json(f), q2)
    assert back.var == "t" and back.order == 8
    assert (back - f).is_zero()


def test_field_json_roundtrip(q3pi):
    data = jsonio.field_to_json(q3pi)
    assert data == {"p": 3, "ext": {"poly": ["3", "0", "1"], "e": 2, "f": 1},
                    "digits": 64}
    back = jsonio.field_from_json(data)
    assert back == q3pi



@pytest.mark.parametrize("name, section, key, value", [
    ("p2-trivial", "field", "p", 4),
    ("p2-trivial", "morphism", "d", "two"),
    ("p3-trivial", "field", "ext", {"poly": ["3", "1"], "e": 1, "f": 1}),
    ("p2-trivial", "field", "p", 2 ** 61 - 1),
    # x^17 + x^3 + 1 is irreducible over F_2
    ("p2-trivial", "field", "ext", {"poly": ["1", "0", "0", "1"] + ["0"] * 13 + ["1"],
                                    "e": 1, "f": 17}),
], ids=["p=4", "d=two", "degree-1 ext", "p=2^61-1", "p^f=2^17"])
def test_malformed_field_and_degree_are_schema_errors(name, section, key, value, tmp_path):
    spec = example_spec(name)
    spec[section][key] = value
    start = time.perf_counter()
    with pytest.raises(SchemaError):
        run(spec)
    assert time.perf_counter() - start < 1.0
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["--spec", str(path)]) == 2
