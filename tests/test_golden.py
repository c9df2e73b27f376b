"""Golden reports: the three canned examples must keep their bytes.

The files under ``tests/golden/`` hold ``serialize_report(run(example_spec(name)))``
at N = 32 as written by an earlier version of the library.  The sha256
digests below pin the same reports at N = 16 with 1024 digits, where the
big-integer digit arithmetic, rather than the series length, dominates, and
at N = 40 with 64 digits, the size the benchmark's examples workload runs.
The ``run_example`` results at N = 16 (diff tables and reports, hashed as
``json.dumps(result, sort_keys=True)``) are pinned as well.
A last set of digests pins the ``tree`` reports of planted-root polynomial
morphisms found by automatic fiber search, whose branching radii come from
recentering the morphism at each branch point.  Two more digests pin the
benchmark's ``fibers`` jobs (``perfbench/workloads.py``, only imported): the
336 jobs of seed 301, and 120 jobs of seed 5 at digits = 8, where the fiber
search meets coefficients known only below their residue and some jobs end
in a stage error.  Two more pin a series morphism, f of degree 3 above its
d = 2, whose relation P(s, X) comes from the local solutions, not from f,
with the trivial and with the exponential module; without its hints the
fiber search finds the same points and tree.  A refactor that changes any
digit, radius, check or key order of a report fails here.  Neither the files
nor the digests are ever regenerated to make a change pass.
"""

import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from padicdisc import FieldDescriptor, hensel_lift
from padicdisc.cli import _load, example_spec, run, run_example, serialize_report

GOLDEN = Path(__file__).resolve().parent / "golden"
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

EXAMPLES = ["p2-trivial", "p2-exp", "p3-trivial"]

SHA256_N16_DIGITS1024 = {
    "p2-trivial": "1975445883977c64d97dc0009e51aa114f639f11f4ace4306813b26d879681e4",
    "p2-exp": "fe38201dbb9e4e6b3ba0647b6c91c3946bbf04e062ef255a16609e803200bb95",
    "p3-trivial": "c0b0c3988f1abe7f0f8a881e0772198bbe8e69dffbb67b06a63bccbfac335888",
}

SHA256_N40 = {
    "p2-trivial": "4373e963f2682816cbe31afa5b406a6aecb39560e9e7ee017c6a28f23af86247",
    "p2-exp": "8cef81e208208473c5c17c5ae99a85f90d13b59ddfffc4b310e436d952c29099",
    "p3-trivial": "f6683f395760b91925f372e8f127a4fde8e145d4f774ed7256db8b3eaf2ec422",
}

SHA256_RUN_EXAMPLE_N16 = {
    "p2-trivial": "56e49075c036020686d2342df722a7f2bd305dd3331347462716bc1c457c8314",
    "p2-exp": "d176adbcf882e85a8b66643103fa42888d518bbcc2a382f39a634b70a2e9427d",
    "p3-trivial": "27e707b9812aa49c9d4d5eca6bb0d8a233c478ad5353a72f7e35e267a9bc3276",
}


@pytest.mark.parametrize("name", EXAMPLES)
def test_report_bytes_match_golden(name):
    want = (GOLDEN / ("%s_N32.json" % name)).read_bytes()
    assert serialize_report(run(example_spec(name))).encode() == want


@pytest.mark.parametrize("name", EXAMPLES)
def test_high_precision_report_digest(name):
    text = serialize_report(run(example_spec(name, order=16, digits=1024)))
    assert hashlib.sha256(text.encode()).hexdigest() == SHA256_N16_DIGITS1024[name]


@pytest.mark.parametrize("name", EXAMPLES)
def test_order_40_report_digest(name):
    text = serialize_report(run(example_spec(name, order=40)))
    assert hashlib.sha256(text.encode()).hexdigest() == SHA256_N40[name]


@pytest.mark.parametrize("name", EXAMPLES)
def test_run_example_digest(name):
    text = json.dumps(run_example(name, order=16), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == SHA256_RUN_EXAMPLE_N16[name]


# Fields of the tree jobs; in the quadratic ones an element is a0 + a1*x.
TREE_FIELDS = {
    "Q2": {"p": 2, "ext": "base"},
    "Q5": {"p": 5, "ext": "base"},
    "Q3(sqrt-3)": {"p": 3, "ext": {"poly": ["3", "0", "1"], "e": 2, "f": 1}},
    "Q4": {"p": 2, "ext": {"poly": ["1", "1", "1"], "e": 1, "f": 2}},
}

# Planted roots (a0, a1), all of positive valuation, in nested clusters.
TREE_JOBS = {
    "Q2-d3": ("Q2", [(2, 0), (6, 0), (4, 0)]),
    "Q2-d5": ("Q2", [(2, 0), (6, 0), (14, 0), (4, 0), (12, 0)]),
    "Q5-d4": ("Q5", [(5, 0), (30, 0), (55, 0), (10, 0)]),
    "Q5-d6": ("Q5", [(5, 0), (10, 0), (15, 0), (20, 0), (25, 0), (50, 0)]),
    "Q3(sqrt-3)-d3": ("Q3(sqrt-3)", [(0, 1), (0, 2), (3, 1)]),
    "Q3(sqrt-3)-d7": ("Q3(sqrt-3)", [(0, 1), (0, 2), (3, 1), (0, 4), (3, 2), (3, 0),
                                     (6, 0)]),
    "Q4-d4": ("Q4", [(2, 0), (0, 2), (6, 0), (4, 0)]),
    "Q4-d8": ("Q4", [(2, 0), (0, 2), (2, 2), (4, 0), (0, 4), (4, 4), (8, 0), (0, 8)]),
}

SHA256_TREE = {
    "Q2-d3": "ba34eb9f300b4cf88ef8636726faa29b2ade5a2367cb8237c3065f5065d29d05",
    "Q2-d5": "cdab615ce2a0f53f6ceb46c4bd848d85da581a694e444da27f6d57bb3958c5ba",
    "Q3(sqrt-3)-d3": "7446be3733859239d7d8f8df3bc93fb863d517e2eca08b2d88d25603fbb95d60",
    "Q3(sqrt-3)-d7": "59437f0f359264209d61f6b19757242b84850034e706157db2a4225e89a0437d",
    "Q4-d4": "d9b1071ce84d5515b8efe31cdbc985a0a5efee17fb439e3a0a0c368283dd7698",
    "Q4-d8": "9e54c6e2345d8cecfdebef6b7c9638e5424eecff1a83411231956f7137f00214",
    "Q5-d4": "6ae715ab4bfc2be3df0ec91baf44cd3ca08191c3aee027cf45f190ff10d6686e",
    "Q5-d6": "6cbac7bcbfa07dff9a7299d614972011c993f56463e70e9d486ec910f7e64fae",
}


def _expand(roots, poly):
    """Coefficients, ascending, of prod (t - a) over Q[x]/(x^2 + c1 x + c0)
    with poly = (c0, c1, 1); elements are pairs (a0, a1)."""
    c0, c1 = (Fraction(c) for c in poly[:2])
    coeffs = [(Fraction(1), Fraction(0))]
    for a0, a1 in roots:
        nxt = [(Fraction(0), Fraction(0))] * (len(coeffs) + 1)
        for k, (b0, b1) in enumerate(coeffs):
            # (b0 + b1 x)(a0 + a1 x) with x^2 = -c1 x - c0
            top = b1 * a1
            prod = (b0 * a0 - top * c0, b0 * a1 + b1 * a0 - top * c1)
            nxt[k + 1] = (nxt[k + 1][0] + b0, nxt[k + 1][1] + b1)
            nxt[k] = (nxt[k][0] - prod[0], nxt[k][1] - prod[1])
        coeffs = nxt
    return coeffs


def tree_spec(name):
    field, roots = TREE_JOBS[name]
    fld = TREE_FIELDS[field]
    base = fld["ext"] == "base"
    coeffs = _expand(roots, (0, 0, 1) if base else fld["ext"]["poly"])
    f = [str(c0) if base else [str(c0), str(c1)] for c0, c1 in coeffs]
    return {"field": dict(fld, digits=64), "N": 32,
            "morphism": {"f": f, "d": len(roots)},
            "center": "0", "outputs": ["tree"], "seed": 0}


@pytest.mark.parametrize("name", sorted(TREE_JOBS))
def test_tree_report_digest(name):
    text = serialize_report(run(tree_spec(name)))
    assert hashlib.sha256(text.encode()).hexdigest() == SHA256_TREE[name]


# sha256 of the concatenated per-job sha256 hex digests of the reports.
SHA256_FIBERS_SEED301 = "74df026b075e754da97651c8945055cb71b2fd98fcb353d72c5b158fb82d5ea5"
SHA256_FIBERS_DIGITS8 = "a403e0790253728414e06135c13c49290a6522e20c2b28ba643b2b0b62b828b7"


def _fiber_specs(seed):
    if str(PERFBENCH) not in sys.path:
        sys.path.append(str(PERFBENCH))
    import workloads
    return [job["spec"] for job in workloads.fiber_jobs(seed)]


def _jobs_digest(specs):
    reports = "".join(hashlib.sha256(serialize_report(run(spec)).encode()).hexdigest()
                      for spec in specs)
    return hashlib.sha256(reports.encode()).hexdigest()


def test_fibers_workload_digest():
    assert _jobs_digest(_fiber_specs(301)) == SHA256_FIBERS_SEED301


def test_fibers_low_digit_digest():
    specs = [dict(spec, field=dict(spec["field"], digits=8)) for spec in _fiber_specs(5)[:120]]
    assert _jobs_digest(specs) == SHA256_FIBERS_DIGITS8


# f = 2t + t^2 + 2t^3 over Q_2 with d = 2: the fiber over 0 is 0 and the root
# near -2 of 2 + t + 2t^2 (its third root lies outside the disc), given as
# hints; module A = [[a]] with a = 0 (trivial) or 1 (exponential).
SERIES_MODULES = {"trivial": "0", "exp": "1"}

SHA256_SERIES_MORPHISM = {
    "trivial": "115816a897a04b16b78b6ee0ba91e6681151d3558e841807aa89b8f70e1889c4",
    "exp": "9a3ee56bbce69b5d969055a9135fbf352f1549e772f64114aa84e7fe089edcc8",
}


def series_morphism_spec(module):
    """The N = 24 job of the series morphism, its second hint the root near
    -2 lifted by hensel_lift and written as the integer u * 2^v."""
    q2 = FieldDescriptor(2, digits=64)
    root = hensel_lift([q2.from_rational(2), q2.one(), q2.from_rational(2)],
                       q2.from_rational(-2))
    (u, v, _), = root.coords
    return {"field": {"p": 2, "digits": 64}, "N": 24,
            "morphism": {"f": ["0", "2", "1", "2"], "d": 2, "hints": ["0", str(u * 2 ** v)]},
            "module": {"rank": 1, "A": [[[SERIES_MODULES[module]]]]}}


@pytest.mark.parametrize("module", sorted(SERIES_MODULES))
def test_series_morphism_report_digest(module):
    report = run(series_morphism_spec(module))
    assert len(report["checks"]) == 10 and all(c["passed"] for c in report["checks"])
    text = serialize_report(report)
    assert hashlib.sha256(text.encode()).hexdigest() == SHA256_SERIES_MORPHISM[module]


@pytest.mark.parametrize("module", sorted(SERIES_MODULES))
def test_series_morphism_finds_its_fiber_without_hints(module):
    """f has degree 3 above its d = 2: the fiber search reads f as a
    polynomial and keeps its two roots in the open disc, the hinted points."""
    hinted = series_morphism_spec(module)
    spec = dict(hinted, morphism={"f": hinted["morphism"]["f"], "d": 2})
    report = run(spec)
    assert report["errors"] == []
    assert len(report["checks"]) == 10 and all(c["passed"] for c in report["checks"])
    assert report["outputs"]["tree"] == run(hinted)["outputs"]["tree"]
    found, pinned = (_load(s).get("fiber").points for s in (spec, hinted))
    assert len(found) == 2 and all(any(a == b for b in pinned) for a in found)
