"""Golden reports: the three canned examples at N = 32 must keep their bytes.

The files under ``tests/golden/`` hold ``serialize_report(run(example_spec(name)))``
as written by an earlier version of the library.  A refactor that changes
any digit, radius, check or key order of a report fails here.  They are
never regenerated to make a change pass.
"""

from pathlib import Path

import pytest

from padicdisc.cli import example_spec, run, serialize_report

GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("name", ["p2-trivial", "p2-exp", "p3-trivial"])
def test_report_bytes_match_golden(name):
    want = (GOLDEN / ("%s_N32.json" % name)).read_bytes()
    assert serialize_report(run(example_spec(name))).encode() == want
