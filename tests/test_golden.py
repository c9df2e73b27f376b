"""Golden reports: the three canned examples must keep their bytes.

The files under ``tests/golden/`` hold ``serialize_report(run(example_spec(name)))``
at N = 32 as written by an earlier version of the library.  The sha256
digests below pin the same reports at N = 16 with 1024 digits, where the
big-integer digit arithmetic, rather than the series length, dominates, and
at N = 40 with 64 digits, the size the benchmark's examples workload runs.
A refactor that changes any digit, radius, check or key order of a report
fails here.  Neither the files nor the digests are ever regenerated to make
a change pass.
"""

import hashlib
from pathlib import Path

import pytest

from padicdisc.cli import example_spec, run, serialize_report

GOLDEN = Path(__file__).resolve().parent / "golden"

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
