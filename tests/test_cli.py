"""CLI: job validation, pipelines, canned examples, polygon emission."""

import ast
import copy
import gc
import json
import os
import subprocess
import sys
import time
import tracemalloc
import weakref
from fractions import Fraction
from functools import reduce
from operator import getitem
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import padicdisc
from padicdisc import cli

from padicdisc.cli import (
    emit_polygon,
    example_spec,
    main,
    run,
    run_example,
    serialize_report,
)
from padicdisc.errors import (
    InvalidField,
    PadicDiscError,
    RootsNotInDeclaredField,
    SchemaError,
    SelectorError,
    UnknownExample,
)
from padicdisc import FieldDescriptor, TruncatedSeries
from padicdisc import fiber, jsonio
from padicdisc.morphism import MAX_ORDER, MAX_RANK
from conftest import zeta3

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_schema_rejects_low_order():
    spec = example_spec("p2-trivial")
    spec["N"] = 4
    with pytest.raises(SchemaError):
        run(spec)


def test_schema_rejects_low_digits():
    spec = example_spec("p2-trivial")
    spec["field"]["digits"] = 4
    with pytest.raises(SchemaError):
        run(spec)


def test_schema_rejects_missing_and_unknown():
    with pytest.raises(SchemaError):
        run({"field": {"p": 2}})
    spec = example_spec("p2-trivial")
    spec["outputs"] = ["tree", "nonsense"]
    with pytest.raises(SchemaError):
        run(spec)


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
    assert payload["checks"] and all(c["passed"] for c in payload["checks"])

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"field": {"p": 2}, "N": 4,
                               "morphism": {"f": ["0", "2", "1"], "d": 2}}))
    assert main(["--spec", str(bad)]) == 2


def test_main_unwritable_out_is_an_error(tmp_path, capsys):
    out = tmp_path / "missing" / "r.json"
    assert main(["--example", "p2-trivial", "--series-order", "8", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot write report %s: " % out)
    assert not out.exists()


def test_main_byte_identical(tmp_path):
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["--example", "p3-trivial", "--out", str(r1)]) == 0
    assert main(["--example", "p3-trivial", "--out", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_spec_keeps_its_seed_without_the_flag(tmp_path, capsys):
    spec = example_spec("p3-trivial", order=16, seed=5)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["--spec", str(path)]) == 0
    text = capsys.readouterr().out
    assert text == serialize_report(run(spec))
    assert json.loads(text)["spec"]["seed"] == 5
    assert main(["--spec", str(path), "--seed", "7"]) == 0
    assert json.loads(capsys.readouterr().out)["spec"]["seed"] == 7


@pytest.mark.parametrize("path", [("N",), ("field", "p"), ("field", "digits"),
                                  ("field", "ext", "e"), ("field", "ext", "f"),
                                  ("morphism", "d"), ("module", "rank"), ("seed",)],
                         ids=lambda path: ".".join(path))
def test_json_booleans_are_not_integers(path, tmp_path):
    spec = example_spec("p3-trivial", order=16)
    *head, key = path
    reduce(getitem, head, spec)[key] = True
    with pytest.raises(SchemaError):
        run(spec)
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(spec))
    assert main(["--spec", str(spec_file)]) == 2


def test_series_order_true_is_not_an_integer(tmp_path):
    spec = example_spec("p2-exp", order=16)
    spec["module"]["A"] = [[{"center": "0", "coeffs": ["-1"], "N": True}]]
    with pytest.raises(SchemaError, match="N that is an integer >= 1"):
        run(spec)
    with pytest.raises(SchemaError, match="N that is an integer >= 1"):
        jsonio.series_from_json({"center": "0", "coeffs": ["-1"], "N": True},
                                FieldDescriptor(2, digits=16))
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(spec))
    assert main(["--spec", str(spec_file)]) == 2


def test_a_job_leaves_no_reference_cycles(monkeypatch):
    """With the cyclic collector off, each job's objects are freed by their
    reference counts alone: its field and everything cached on it included."""
    if str(PERFBENCH) not in sys.path:
        sys.path.append(str(PERFBENCH))
    import workloads
    specs = [example_spec(name, order=16) for name in ("p2-trivial", "p2-exp", "p3-trivial")]
    specs += [job["spec"] for job in workloads.fiber_jobs(3)[:40]]
    fields = []
    field_from_json = jsonio.field_from_json

    def read_field(x):
        fld = field_from_json(x)
        fields.append(weakref.ref(fld))
        return fld

    monkeypatch.setattr(jsonio, "field_from_json", read_field)
    gc.collect()
    gc.disable()
    try:
        for spec in specs:
            run(spec)
            assert gc.collect() == 0
            assert fields.pop()() is None
    finally:
        gc.enable()


def test_main_polygon_json_is_the_stdlib_text(capsys):
    assert main(["--example", "p3-trivial", "--polygon", "f"]) == 0
    data = emit_polygon(example_spec("p3-trivial"), "f")
    assert capsys.readouterr().out == json.dumps(data, sort_keys=True, indent=2) + "\n"


def test_main_polygon_csv(tmp_path, capsys):
    code = main(["--example", "p2-trivial", "--polygon", "fp", "--format", "csv"])
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("kind,x,y")


@pytest.mark.parametrize("selector", ["A[-1][-1]", "A[-1][0]", "A[ 0 ][0_0]", "A[+0][0]",
                                      "A[٠][0]", "A[0][0][0]", "A[1][0]"])
def test_malformed_or_out_of_range_module_selectors_exit_2(selector, capsys):
    # only A[i][j] with decimal digits and both indices below the rank names an entry
    with pytest.raises(SelectorError):
        emit_polygon(example_spec("p2-exp"), selector)
    assert main(["--example", "p2-exp", "--polygon", selector]) == 2
    assert capsys.readouterr().err.startswith("error: SelectorError: ")


@pytest.mark.parametrize("args, message", [
    (["--spec", "spec.json", "--example", "p2-trivial"], "not allowed with argument"),
    (["--spec", "spec.json", "--example", "p2-trivial", "--polygon", "f"],
     "not allowed with argument"),
    (["--polygon", "f"], "one of the arguments --spec --example is required"),
], ids=["both", "both with --polygon", "neither"])
def test_exactly_one_of_spec_and_example_or_exit_2(args, message, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "spec.json").write_text(json.dumps(example_spec("p3-trivial")))
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("name", ["p2-trivial", "p2-exp", "p3-trivial"])
def test_main_example_writes_its_golden_report(name, tmp_path):
    out = tmp_path / "report.json"
    assert main(["--example", name, "--out", str(out)]) == 0
    golden = Path(__file__).resolve().parent / "golden" / ("%s_N32.json" % name)
    assert out.read_bytes() == golden.read_bytes()


# -- json round trips ------------------------------------------------------------------

def test_scalar_json_roundtrip(q3pi):
    z = zeta3(q3pi)
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
    data = {"p": 3, "ext": {"poly": ["3", "0", "1"], "e": 2, "f": 1}, "digits": 64}
    assert jsonio.field_from_json(data) == q3pi
    assert jsonio.field_from_json({"p": 3}) == FieldDescriptor(3, digits=64)



@pytest.mark.parametrize("name, section, key, value", [
    ("p2-trivial", "field", "p", 4),
    ("p2-trivial", "morphism", "d", "two"),
    ("p3-trivial", "field", "ext", {"poly": ["3", "1"], "e": 1, "f": 1}),
    ("p2-trivial", "field", "p", 2 ** 61 - 1),
    # x^17 + x^3 + 1 is irreducible over F_2
    ("p2-trivial", "field", "ext", {"poly": ["1", "0", "0", "1"] + ["0"] * 13 + ["1"],
                                    "e": 1, "f": 17}),
    # v(9) = 2: the FieldDescriptor error becomes a SchemaError, not a bare ValueError
    ("p3-trivial", "field", "ext", {"poly": ["9", "0", "1"], "e": 2, "f": 1}),
    # x^17 + 2: above MAX_DEGREE, rejected before the field is built
    ("p2-trivial", "field", "ext", {"poly": ["2"] + ["0"] * 16 + ["1"], "e": 17, "f": 1}),
], ids=["p=4", "d=two", "degree-1 ext", "p=2^61-1", "p^f=2^17", "non-Eisenstein ext",
        "degree 17"])
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


def _spec_with(name, section, key, value):
    spec = example_spec(name)
    spec[section][key] = value
    return spec


@pytest.mark.parametrize("spec", [
    _spec_with("p2-trivial", "morphism", "f", ["x"]),
    _spec_with("p2-trivial", "module", "A", 5),
    _spec_with("p3-trivial", "field", "ext", {"poly": ["3", "0", "1"], "e": -1, "f": -2}),
    _spec_with("p2-trivial", "morphism", "f", ["0", "0", "0", "1"]),
], ids=["f=[x]", "A=5", "e=-1,f=-2", "degree 2 against slope 3"])
def test_malformed_specs_never_escape_as_bare_exceptions(spec, tmp_path):
    try:
        run(spec)
    except PadicDiscError:
        pass
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["--spec", str(path)]) in (1, 2)


def _set(spec, path, value):
    *head, key = path
    reduce(getitem, head, spec)[key] = value
    return spec


@pytest.mark.parametrize("name, path, value", [
    ("p2-trivial", ("center",), "1/2"),
    ("p3-trivial", ("center",), ["1/3", "0"]),
    ("p2-trivial", ("center",), "1"),
    ("p3-trivial", ("center",), ["1", "1"]),
    ("p2-trivial", ("module", "A"), [[{"center": "2", "coeffs": ["0", "1"], "N": 16}]]),
    ("p2-trivial", ("morphism", "f"), {"center": "2", "coeffs": ["0", "2", "1"], "N": 16}),
    ("p2-exp", ("module", "A"), [[{"center": "0", "coeffs": ["-1"], "N": 4}]]),
    ("p2-exp", ("module", "A"), [[{"center": "0", "coeffs": ["-1"]}]]),
], ids=["center 1/2", "center 1/3 in Q3(pi)", "center 1", "center 1+pi in Q3(pi)",
        "A off center", "f off center", "A to N=4", "A to N=1"])
def test_inputs_outside_the_disc_are_schema_errors(name, path, value, tmp_path):
    spec = _set(example_spec(name, order=16), path, value)
    with pytest.raises(SchemaError):
        run(spec)
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(spec))
    assert main(["--spec", str(spec_file)]) == 2


@pytest.mark.parametrize("name, path, value", [
    ("p2-trivial", ("morphism", "f"),
     {"center": "0", "coeffs": ["0", "2", "1"], "N": 12, "var": "x"}),
    ("p2-exp", ("module", "A"), [[{"center": "0", "coeffs": ["-1"], "N": 12, "var": "x"}]]),
], ids=["f in x", "A in x"])
def test_spec_series_in_another_variable_than_t_exit_2(name, path, value, tmp_path, capsys):
    spec = _set(example_spec(name, order=12), path, value)
    with pytest.raises(SchemaError, match="must be a series in t, got var 'x'"):
        run(spec)
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(spec))
    assert main(["--spec", str(spec_file)]) == 2
    assert capsys.readouterr().err.startswith("error: SchemaError: ")


def test_format_csv_without_polygon_exit_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--example", "p2-trivial", "--format", "csv"])
    assert exc.value.code == 2
    assert "--format csv needs --polygon" in capsys.readouterr().err
    out = tmp_path / "report.json"
    assert main(["--example", "p2-trivial", "--series-order", "12", "--format", "json",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["checks"]


def test_series_object_inputs_at_center_0_read_as_lists():
    plain = run(example_spec("p2-exp", order=16))
    spec = _set(example_spec("p2-exp", order=16), ("module", "A"),
                [[{"center": "0", "coeffs": ["-1"], "N": 20}]])
    _set(spec, ("morphism", "f"), {"center": "0", "coeffs": ["0", "2", "1"], "N": 16})
    assert run(spec)["outputs"] == plain["outputs"]


@pytest.mark.parametrize("text", ["[1, 2]", "{bad", "\"spec\"", None],
                         ids=["list", "not JSON", "string", "missing file"])
def test_unusable_spec_files_exit_2(text, tmp_path):
    spec_file = tmp_path / "spec.json"
    if text is not None:
        spec_file.write_text(text)
    assert main(["--spec", str(spec_file), "--series-order", "9", "--digits", "16",
                 "--seed", "3"]) == 2


def test_digits_override_leaves_a_malformed_field_to_validation(tmp_path):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(_set(example_spec("p2-trivial"), ("field",), 5)))
    assert main(["--spec", str(spec_file), "--digits", "16"]) == 2


@pytest.mark.parametrize("flag", ["--series-order", "--digits"])
@pytest.mark.parametrize("source", ["example", "spec"])
def test_zero_order_or_digits_exit_2(flag, source, tmp_path, capsys):
    # 0 is a value, not a missing flag: it reaches validation, which needs >= 8
    args = ["--example", "p2-trivial"]
    if source == "spec":
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(example_spec("p2-trivial")))
        args = ["--spec", str(spec_file)]
    assert main(args + [flag, "0"]) == 2
    assert "must be an integer >= 8" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["example", "spec"])
def test_digits_above_the_cap_exit_2(source, tmp_path, capsys):
    # 5000 digits of 1/3 would be known modulo 2^5000, past _EXACT: its
    # precision would read as exact and serialize as "prec": "inf"
    if source == "spec":
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(_set(example_spec("p2-trivial"), ("field", "digits"),
                                             5000)))
        args = ["--spec", str(spec_file)]
    else:
        args = ["--example", "p2-trivial", "--digits", "5000"]
    assert main(args) == 2
    assert "precision cap must be in 1 .. 2048" in capsys.readouterr().err
    assert FieldDescriptor(2, digits=2048).from_rational(Fraction(1, 3)).precision() == 2048


@pytest.mark.parametrize("name, path, value", [
    ("p2-trivial", ("center",), str(2 ** 4090) + "/3"),
    ("p3-trivial", ("center",), ["0", str(3 ** 4032)]),
    ("p2-exp", ("module", "A"), [[[{"coords": [["-1", "4090"]]}]]]),
    ("p2-trivial", ("center",), {"coords": [["1", "100000"]]}),
    ("p2-trivial", ("center",), {"coords": [["3", "5000"]]}),
], ids=["rational", "coordinate list", "coords pairs", "coords 2^100000", "coords 3*2^5000"])
def test_spec_scalar_past_exact_precision_exit_2(name, path, value, tmp_path):
    # each value has 64 digits beyond a valuation of 4032 or more: they would
    # be known modulo p^4096 or beyond, where a precision reads as exact (a
    # valuation of 4096 or more is no exact zero either)
    spec = _set(example_spec(name, order=16), path, value)
    with pytest.raises(SchemaError, match="reaches past precision"):
        run(spec)
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(spec))
    assert main(["--spec", str(spec_file)]) == 2


def test_scalar_reader_keeps_precision_below_exact():
    q2 = FieldDescriptor(2, digits=1024)
    for value in (str(2 ** 3100) + "/3", [str(2 ** 3100)], {"coords": [["1", "3072"]]},
                  {"coords": [["1", "100000"]]}, {"coords": [["3", "5000"]]}):
        with pytest.raises(SchemaError):
            jsonio.scalar_from_json(value, q2)
    assert jsonio.scalar_from_json({"coords": [["0", "5000"]]}, q2).is_exact_zero()
    # 1024 digits beyond valuation 3000 end at 4024, below _EXACT = 4096
    x = jsonio.scalar_from_json(str(2 ** 3000) + "/3", q2)
    assert x.precision() == 4024
    assert jsonio.scalar_to_json(x)["prec"] == "4024"
    assert jsonio.scalar_from_json({"coords": [["1", "3071"]]}, q2).precision() == 4095


@pytest.mark.parametrize("kwargs", [
    {"p": 4},
    {"p": 2 ** 127 - 1},
    {"p": 2, "digits": 0},
    {"p": 2, "digits": 2049},
    {"p": 3, "poly": [9, 0, 1], "e": 2, "f": 1},
    {"p": 3, "poly": [3, 0, 1], "e": -1, "f": -2},
    {"p": 2, "poly": [1, 0, 1], "e": 1, "f": 2},
    {"p": 2, "poly": [2] + [0] * 16 + [1], "e": 17, "f": 1},
], ids=["p=4", "p undecided", "digits=0", "digits=2049", "non-Eisenstein", "e=-1,f=-2",
        "reducible", "degree 17"])
def test_field_descriptor_errors_are_invalid_field(kwargs):
    with pytest.raises(InvalidField) as info:
        FieldDescriptor(**kwargs)
    assert isinstance(info.value, PadicDiscError) and isinstance(info.value, ValueError)


def test_extension_degree_at_the_cap_loads():
    """x^16 + 2, of degree MAX_DEGREE, passes the spec reader."""
    spec = example_spec("p2-trivial")
    spec["field"]["ext"] = {"poly": ["2"] + ["0"] * 15 + ["1"], "e": 16, "f": 1}
    pi = cli._load(spec).get("field").uniformizer()
    assert (pi ** 16 + 2).is_zero()


@pytest.mark.parametrize("value", [
    5, None, "x", "1/0", "inf", [], ["1", "0"], {}, {"coords": 3},
    {"coords": [["1", "0"], ["1", "0"]]}, {"coords": [["1"]]}, {"coords": [["1", "x"]]},
    {"coords": [["1", "0"]], "prec": None}, "1e200000", "1e2000000",
    {"coords": [[1.5, 0]]}, {"coords": [[True, 0]]}, {"coords": [["1", 0.9]]},
    {"coords": [["1", False]]}, {"coords": [["1.0", "0"]]}, {"coords": [[" 1", "0"]]},
    {"coords": [["1_0", "0"]]}, [True], {"coords": [["1", "0"]], "prec": True}, True,
], ids=repr)
def test_scalar_reader_is_total(q2, value):
    start = time.perf_counter()
    with pytest.raises(SchemaError):
        jsonio.scalar_from_json(value, q2)
    assert time.perf_counter() - start < 1


def test_literal_bound_keeps_short_literals():
    assert jsonio.parse_frac("3/2") == Fraction(3, 2)
    assert jsonio.parse_frac("1e20") == 10 ** 20
    assert jsonio.parse_frac(2 ** 100) == 2 ** 100
    with pytest.raises(SchemaError):
        jsonio.parse_frac(2 ** (4 * jsonio.MAX_LITERAL_DIGITS + 1))


@pytest.mark.parametrize("value, order", [
    (5, None), (None, None), ({}, None), ({"center": "0"}, None),
    ({"center": "0", "coeffs": 5}, None), ({"center": 5, "coeffs": ["1"]}, None),
    ({"center": "0", "coeffs": ["1"], "N": "8"}, None),
    ({"center": "0", "coeffs": ["1"], "var": 5}, None),
    ([], None), (["1", None], 8), ({"center": "0", "coeffs": ["1"], "N": 7}, 8),
], ids=repr)
def test_series_reader_is_total(q2, value, order):
    with pytest.raises(SchemaError):
        jsonio.series_from_json(value, q2, order)


def test_series_object_is_padded_to_the_job_order_only():
    # a module entry known to N = 10^7 is cut to the job's N = 16 without
    # first building its 10^7 zeros
    spec = example_spec("p2-trivial", order=16)
    spec["module"] = {"rank": 1, "A": [[{"center": "0", "coeffs": ["1"], "N": 10 ** 7}]]}
    tracemalloc.start()
    try:
        pipe = cli._load(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pipe.inputs["A"][0][0].order == 16
    assert peak < 2 ** 20


def test_order_above_the_cap_is_a_schema_error(tmp_path):
    assert cli._load(example_spec("p2-trivial", order=MAX_ORDER)).spec["N"] == MAX_ORDER
    with pytest.raises(SchemaError, match="<= %d" % MAX_ORDER):
        cli._load(example_spec("p2-trivial", order=MAX_ORDER + 1))
    # a polygon of f is cheap at any order, so only the cap makes these exit 2
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(example_spec("p2-trivial")))
    for source in (["--example", "p2-trivial"], ["--spec", str(spec_file)]):
        assert main(source + ["--series-order", str(MAX_ORDER + 1), "--polygon", "f"]) == 2


@pytest.mark.parametrize("wrap", [lambda cs: cs, lambda cs: {"center": "0", "coeffs": cs}],
                         ids=["list", "object"])
def test_long_coefficient_list_is_a_schema_error(tmp_path, wrap):
    # rejected on its length, before any of its entries is parsed
    spec = example_spec("p2-trivial", order=16)
    spec["module"] = {"rank": 1, "A": [[wrap(["1"] * 200000)]]}
    start = time.perf_counter()
    with pytest.raises(SchemaError, match="more than %d" % MAX_ORDER):
        cli._load(spec)
    assert time.perf_counter() - start < 1
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(spec))
    assert main(["--spec", str(spec_file)]) == 2
    spec["module"]["A"] = [[wrap(["1"] * MAX_ORDER)]]
    assert cli._load(spec).inputs["A"][0][0].order == 16
    spec["morphism"]["f"] = wrap(["0", "1"] + ["0"] * (MAX_ORDER - 1))
    with pytest.raises(SchemaError, match="morphism f lists"):
        cli._load(spec)


def test_wrong_hint_count_is_a_schema_error(tmp_path, p2):
    # rejected on its length, before any hint is parsed; the library's fiber
    # keeps its own error for a wrong count
    spec = example_spec("p2-trivial", order=16)
    spec["morphism"]["hints"] = ["0"] * 200000
    start = time.perf_counter()
    with pytest.raises(SchemaError, match="200000 hints for degree 2"):
        cli._load(spec)
    assert time.perf_counter() - start < 0.1
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(spec))
    assert main(["--spec", str(spec_file)]) == 2
    spec["morphism"]["hints"] = ["0"]
    with pytest.raises(SchemaError, match="1 hints for degree 2"):
        cli._load(spec)
    with pytest.raises(RootsNotInDeclaredField):
        fiber(p2.phi, p2.field.zero(), hints=[0])


def test_rank_above_the_cap_is_a_schema_error(tmp_path):
    # rejected on the rank, before any entry of A is read
    spec = example_spec("p2-trivial", order=16)
    spec["module"] = {"rank": 300, "A": [[["0"]] * 300 for _ in range(300)]}
    start = time.perf_counter()
    with pytest.raises(SchemaError, match="<= %d" % MAX_RANK):
        cli._load(spec)
    assert time.perf_counter() - start < 0.1
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(spec))
    assert main(["--spec", str(spec_file)]) == 2
    spec["module"] = {"rank": MAX_RANK + 1, "A": [[["0"]] * (MAX_RANK + 1)] * (MAX_RANK + 1)}
    with pytest.raises(SchemaError, match="<= %d" % MAX_RANK):
        cli._load(spec)
    spec["module"] = {"rank": 2, "A": [[["0"], ["0"]], [["0"], ["-1"]]]}
    assert cli._load(spec).inputs["A"][1][1].order == 16


def test_run_example_runs_its_job_once(monkeypatch):
    calls = []
    real_fiber = cli.fiber
    monkeypatch.setattr(cli, "fiber", lambda *a, **k: calls.append(a) or real_fiber(*a, **k))
    result = run_example("p2-trivial", order=12)
    assert len(calls) == 1
    assert result["report"] == run(example_spec("p2-trivial", order=12))


FUZZ_VALUES = [5, None, "x", [], {}, -1, "1/2"]


def _paths(x, prefix=()):
    """The key path of every value inside a spec."""
    items = x.items() if isinstance(x, dict) else enumerate(x) if isinstance(x, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "spec.json"


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_mutated_specs_never_escape_as_bare_exceptions(data, fuzz_file):
    # one key dropped, or one value replaced by a wrong one or a list of the
    # wrong length; run raises only library errors and main exits 0, 1 or 2
    spec = example_spec(data.draw(st.sampled_from(["p2-trivial", "p2-exp", "p3-trivial"])),
                        order=data.draw(st.integers(8, 12)))
    *head, key = data.draw(st.sampled_from(list(_paths(spec))))
    parent = reduce(getitem, head, spec)
    old = parent[key]
    action = data.draw(st.sampled_from(
        ["drop"] + FUZZ_VALUES + (["shorter", "longer"] if isinstance(old, list) else [])))
    if action == "drop":
        del parent[key]
    elif action in ("shorter", "longer"):
        parent[key] = old[:-1] if action == "shorter" else old + old[-1:] + ["0"]
    else:
        parent[key] = copy.deepcopy(action)
    try:
        run(spec)
    except PadicDiscError:
        pass
    fuzz_file.write_text(json.dumps(spec))
    assert main(["--spec", str(fuzz_file), "--out", os.devnull]) in (0, 1, 2)


def test_readme_quickstart_runs():
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text.split("```python\n", 1)[1].split("```", 1)[0]
    assert "order=32" in block
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert len(namespace["basis"]) == 2
    assert [c.predicted_exponent for c in namespace["exp_basis"].columns] == [2, 2]


def test_cold_import_generates_no_code():
    """A fresh interpreter importing the package and its CLI loads neither
    dataclasses nor the modules it pulls in to generate record methods."""
    src = str(Path(padicdisc.__file__).resolve().parent.parent)
    code = ("import sys; sys.path.insert(0, %r); import padicdisc, padicdisc.cli; "
            "print(padicdisc.__file__); print(' '.join(sorted(sys.modules)))" % src)
    out = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", code], capture_output=True,
                         text=True, timeout=60, check=True).stdout.splitlines()
    assert Path(out[0]).resolve() == Path(padicdisc.__file__).resolve()
    assert set(out[1].split()).isdisjoint({"dataclasses", "inspect", "ast", "dis", "tokenize"})


def test_package_has_no_unused_imports():
    unused = []
    for path in sorted(Path(padicdisc.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue                      # the package namespace re-exports its imports
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += ["%s:%d %s" % (path.name, line, name)
                   for name, line in imported.items() if name not in used]
    assert unused == []
