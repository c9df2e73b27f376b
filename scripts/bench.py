#!/usr/bin/env python3
"""Timings of the series layer and of whole jobs: one column of a BENCH_*.json file.

Times series ``__mul__``, ``mult_inverse``, ``reversion``, ``compose``,
``mat_inverse`` (3 x 3) and ``taylor_shift`` at N = 32, 64, 128 over Q_2 and
the Eisenstein field Q_3(sqrt-3), both with 64 digits, on fixed seeded
inputs.  ``taylor_shift`` runs on two inputs: a degree-8 polynomial padded
with exact zeros to order N (``taylor_shift_poly8``) and a dense order-N
series (``taylor_shift_dense``), both shifted to p.  End to end, the rows
``run:<example>`` time ``cli.run(cli.example_spec(example, order=N))`` for
the three canned examples at N = 32 and 64.  Each cell is the median time
of one call over repeats that run until 0.5 s is spent (at least one, at
most 7 calls).

Run it once per checkout on the same machine, e.g.

    python scripts/bench.py --src <parent checkout>/src --column parent --out BENCH.json
    python scripts/bench.py --column change --out BENCH.json

A second run adds its column to the rows already in the file, and every row
holding both a ``parent`` and a ``change`` column gets their ratio.  Times go
to stdout and to the JSON file only.
"""

import argparse
import json
import os
import platform
import random
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

ORDERS = (32, 64, 128)
RUN_ORDERS = (32, 64)
EXAMPLE_FIELDS = {"p2-trivial": "Q2", "p2-exp": "Q2", "p3-trivial": "Q3(sqrt-3)"}
OPS = ("mul", "mult_inverse", "reversion", "compose", "mat_inverse",
       "taylor_shift_poly8", "taylor_shift_dense")
BUDGET_S = 0.5
MAX_REPEATS = 7


def _fields(padicdisc):
    return {"Q2": padicdisc.FieldDescriptor(2, digits=64),
            "Q3(sqrt-3)": padicdisc.FieldDescriptor(3, digits=64, poly=[3, 0, 1], e=2, f=1)}


def _inputs(padicdisc, fld, n, seed):
    """Seeded series of order n: units, and series vanishing at the center."""
    rng = random.Random(seed)

    def series(first, start=0):
        coeffs = [fld.zero()] * start + [fld.from_rational(first)]
        coeffs += [fld.from_rational(Fraction(rng.randint(-999, 999), rng.choice((1, 3, 5, 7))))
                   for _ in range(n - start - 1)]
        return padicdisc.TruncatedSeries(fld, "t", fld.zero(), coeffs)

    unit = series(1)
    matrix = tuple(tuple(series(1 if i == j else fld.p) for j in range(3)) for i in range(3))
    poly8 = padicdisc.TruncatedSeries(fld, "t", fld.zero(),
                                      unit.coeffs[:9] + (fld.zero(),) * (n - 9))
    return {"unit": unit, "other": series(3), "zero_at_center": series(1, start=1),
            "inner": series(fld.p, start=1), "matrix": matrix, "poly8": poly8,
            "shift": fld.from_rational(fld.p)}


def _calls(padicdisc, data):
    series, diffmod = padicdisc.series, padicdisc.diffmod
    return {"mul": lambda: data["unit"] * data["other"],
            "mult_inverse": lambda: series.mult_inverse(data["unit"]),
            "reversion": lambda: series.reversion(data["zero_at_center"]),
            "compose": lambda: series.compose(data["unit"], data["inner"]),
            "mat_inverse": lambda: diffmod.mat_inverse(data["matrix"]),
            "taylor_shift_poly8": lambda: series.taylor_shift(data["poly8"], data["shift"]),
            "taylor_shift_dense": lambda: series.taylor_shift(data["unit"], data["shift"])}


def _time(call) -> float:
    times = []
    spent = 0.0
    while not times or (spent < BUDGET_S and len(times) < MAX_REPEATS):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
        spent += times[-1]
    return statistics.median(times)


def _row(op, field, n, call) -> dict:
    ms = _time(call) * 1e3
    print("%-18s %-11s N=%-4d %10.3f ms" % (op, field, n, ms), flush=True)
    return {"op": op, "field": field, "N": n, "ms": round(ms, 3)}


def measure(padicdisc) -> list:
    rows = []
    for name, fld in _fields(padicdisc).items():
        for n in ORDERS:
            calls = _calls(padicdisc, _inputs(padicdisc, fld, n, seed=n))
            rows += [_row(op, name, n, calls[op]) for op in OPS]
    cli = padicdisc.cli
    for example, field in EXAMPLE_FIELDS.items():
        for n in RUN_ORDERS:
            spec = cli.example_spec(example, order=n)
            rows.append(_row("run:" + example, field, n, lambda: cli.run(spec)))
    return rows


def merge(path: Path, column: str, rows) -> dict:
    doc = json.loads(path.read_text()) if path.exists() else {}
    doc.setdefault("unit", "ms per call, median of repeats")
    doc.setdefault("harness", "scripts/bench.py")
    doc.setdefault("columns", {})[column] = {
        "python": platform.python_version(), "machine": platform.machine(),
        "cpus": os.cpu_count()}
    table = {(r["op"], r["field"], r["N"]): r for r in doc.get("rows", [])}
    for r in rows:
        key = (r["op"], r["field"], r["N"])
        table.setdefault(key, {"op": key[0], "field": key[1], "N": key[2]})[column] = r["ms"]
    for r in table.values():
        if "parent" in r and "change" in r:
            r["parent_over_change"] = round(r["parent"] / r["change"], 2)
    doc["rows"] = list(table.values())
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"),
                        help="directory holding the padicdisc package to time")
    parser.add_argument("--column", required=True, help="column name, e.g. parent or change")
    parser.add_argument("--out", required=True, help="JSON file to create or extend")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    import padicdisc.cli
    rows = measure(padicdisc)
    merge(Path(args.out), args.column, rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
