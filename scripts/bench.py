#!/usr/bin/env python3
"""Timings of the series layer and of whole jobs: one column of a BENCH_*.json file.

Times series ``__mul__``, ``mult_inverse``, ``reversion``, ``compose``,
``mat_inverse`` (3 x 3) and ``taylor_shift`` at N = 32, 64, 128 over Q_2 and
the Eisenstein field Q_3(sqrt-3), both with 64 digits, on fixed seeded
inputs.  Past the first coefficient, every coordinate of every coefficient
is a seeded rational, so over Q_3(sqrt-3) both coordinate columns are dense,
as in the examples.  The Q_3(sqrt-3) rows of ``BENCH_14.json`` and earlier
drew coordinate 0 alone, so they are not comparable with these; the Q_2
inputs are the same.  ``taylor_shift`` runs on two inputs: a degree-8
polynomial padded with exact zeros to order N (``taylor_shift_poly8``) and a
dense order-N series (``taylor_shift_dense``), both shifted to p.
``radius_estimate`` estimates the dense order-N series, and
``compose_poly8`` composes the degree-8 polynomial along the series of the
``compose`` row.  The rows
``optimality:<example>`` time one ``optimality_check`` (one echelon reduction
per radius class) on the optimal basis of each canned example at N = 32,
built untimed.  The rows ``upstairs:<example>``
time ``local_solution_matrix`` at every fiber point of each canned example
(the pipeline's upstairs bases) and the rows ``fundamental:<example>`` time
one ``fundamental_solution_matrix`` on those bases and the example's
Vandermonde data, both at N = 40 with 64 digits, as in the benchmark's
``examples-n40`` workload; module, fiber, bases and Vandermonde data are
built untimed.  The row ``transport:p2-exp`` times one
``fundamental_solution_matrix`` followed by one ``optimal_basis`` on the
upstairs bases, tree and Vandermonde data of p2-exp at the same N = 40 with
64 digits, built untimed, as the ``fundamental`` and ``optimal`` stages of a
job run them.  A ``VandermondeData`` keeps the columns it has transported,
so each call of a ``fundamental`` or ``transport`` row starts from a fresh
one holding the untimed U(s), V(s) and local solutions: no call reuses what
an earlier one transported.  The row ``relation:p3-trivial`` times one
``monic_relation`` on the fiber of p3-trivial at N = 32 (64 digits) after
the pipeline's ``solutions`` stage has called ``local_solution`` at every
fiber point, as the ``relation`` stage of a job runs.  End to end, the rows
``run:<example>`` time ``cli.run(cli.example_spec(example, order=N))`` for
the three canned examples at N = 32 and 64.  Below the series layer, the
rows ``bmul``, ``badd`` and ``bnorm`` time one batch of 1000 calls of the
digit helper on fixed seeded unit digits (p = 2 for Q_2, p = 3 for
Q_3(sqrt-3)); their N is the digit count, 64 or 1024.  The rows
``fiber:<field>`` time ``fiber()`` over b = 0 of a planted degree-8
polynomial (order N = 32, 64 digits) over each field of the benchmark's
``fibers`` workload, roots planted by ``perfbench/workloads.py``; the rows
``tree:<field>`` time ``tree_over_point`` on the fiber that ``fiber()`` returns
there, built untimed.  The rows
``hensel:<field>`` time one ``hensel_lift`` from the seed 1 of a degree-8
polynomial with a simple unit root 1 + a_0 and roots a_1, ..., a_7, the a_i
planted as for ``fiber:<field>``, so g'(1) is a unit (N is the digit count,
64).  The rows ``poly_eval:<field>`` time one ``poly_eval`` of the
coefficients of the ``fiber:<field>`` polynomial at its first planted root,
and the rows ``recenter:<field>`` one ``recenter`` of that polynomial (order
N = 32, 64 digits) to the same root: the Horner loops of fiber search and
tree building.  The rows ``scalar_mul:<field>`` time one batch of 1000
``PadicScalar.__mul__`` calls on seeded pairs of scalars whose every
coordinate is drawn, over each field of the ``fibers`` workload with 64
digits and over Q_3(sqrt-3) with 1024 digits; their N is the digit count.
The rows ``field:<field>`` time one ``jsonio.field_from_json``, the
``FieldDescriptor`` construction of a job, product plan included, over the
same fields and digit counts; their N is the digit count.
The rows ``scalar_to_json:<field>`` time one batch of
``jsonio.scalar_to_json`` calls over the coefficients of a seeded dense
order-40 series (every coordinate drawn, 64 digits), per field of the
``fibers`` workload: the report writer's per-scalar cost.  The rows
``valuation:<field>`` time one batch of ``valuation()`` and ``precision()``
calls on 1000 seeded scalars whose every coordinate is drawn (64 digits),
per field of the ``fibers`` workload: the valuation gauge.  The row
``cold_import`` times ``import padicdisc.cli`` in a fresh ``python -B``
interpreter, with ``perf_counter`` inside the child: ``perfbench/setup_probe.py``
with no field to build, the median over COLD_IMPORTS interpreters, each
scaled by reference samples taken in that child just before and just after
its import.
Each cell is the median of three rounds, and the rounds run over every
cell in turn, so a disturbance of the host that lasts less than a round
touches one of them.  In a round a cell times batches of calls, a batch
repeating the call until it takes 0.02 s (once for a slower call), until
0.2 s is spent (at least 1, at most 5 batches), and keeps their median.

The rows ``mul`` of the fields ``Q2 1024 digits`` and ``Q3(sqrt-3) 1024 digits``
time the series product at N = 32 with 1024-digit scalars.  Every coordinate
of every coefficient is a seeded rational, so over Q_3(sqrt-3) both
coordinate columns are dense, as in the products of the p3-trivial example.
The rows ``reversion`` of the same two fields time ``reversion`` at N = 32
with 1024-digit scalars, on the seeded series vanishing at the center that
the 64-digit ``reversion`` rows revert: the Lagrange inversion whose
``power * h`` products are most of the time of the p3-trivial job at 1024
digits.

Every batch is scaled to a nominal host speed as ``perfbench/run.py`` scales
its jobs: ``perfbench/hostspeed.reference()`` is timed just before and just
after the batch, and the batch's time is multiplied by
``hostspeed.scale_of`` of those two samples.  Cells timed minutes apart, or
in two checkouts' runs, thus compare on one scale while the speed of a
shared host drifts.

Run it once per checkout on the same machine, e.g.

    python scripts/bench.py --src <parent checkout>/src --column parent --out BENCH.json
    python scripts/bench.py --column change --out BENCH.json

A second run adds its column to the rows already in the file, and every row
holding both a ``parent`` and a ``change`` column gets their ratio.  Times go
to stdout and to the JSON file only.
"""

import argparse
import functools
import gc
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ORDERS = (32, 64, 128)
RUN_ORDERS = (32, 64)
EXAMPLE_FIELDS = {"p2-trivial": "Q2", "p2-exp": "Q2", "p3-trivial": "Q3(sqrt-3)"}
OPS = ("mul", "mult_inverse", "reversion", "compose", "compose_poly8", "mat_inverse",
       "taylor_shift_poly8", "taylor_shift_dense", "radius_estimate")
DIGIT_PRIMES = {"Q2": 2, "Q3(sqrt-3)": 3}
DIGIT_COUNTS = (64, 1024)
DIGIT_BATCH = 1000
SCALAR_BATCH = 1000
HIPREC_DIGITS = 1024
HIPREC_ORDER = 32
FIBER_DEGREE = 8
FIBER_ORDER = 32
OPTIMALITY_ORDER = 32
STAGE_ORDER = 40
RELATION_EXAMPLE = "p3-trivial"
TRANSPORT_EXAMPLE = "p2-exp"
RELATION_ORDER = 32
SERIES_JSON_ORDER = 40
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
ROUNDS = 3
BUDGET_S = 0.2
BATCH_S = 0.02
MAX_BATCHES = 5
COLD_IMPORTS = 5

sys.path.append(str(PERFBENCH))
import hostspeed  # noqa: E402


def _fields(padicdisc, digits=64):
    return {"Q2": padicdisc.FieldDescriptor(2, digits=digits),
            "Q3(sqrt-3)": padicdisc.FieldDescriptor(3, digits=digits, poly=[3, 0, 1], e=2, f=1)}


def _inputs(padicdisc, fld, n, seed):
    """Seeded series of order n: units, and series vanishing at the center."""
    rng = random.Random(seed)

    def series(first, start=0):
        coeffs = [fld.zero()] * start + [fld.from_rational(first)]
        coeffs += [fld.from_coords([Fraction(rng.randint(-999, 999), rng.choice((1, 3, 5, 7)))
                                    for _ in range(fld.n)])
                   for _ in range(n - start - 1)]
        return padicdisc.TruncatedSeries(fld, "t", fld.zero(), coeffs)

    unit = series(1)
    matrix = tuple(tuple(series(1 if i == j else fld.p) for j in range(3)) for i in range(3))
    poly8 = padicdisc.TruncatedSeries(fld, "t", fld.zero(),
                                      unit.coeffs[:9] + (fld.zero(),) * (n - 9))
    return {"unit": unit, "other": series(3), "zero_at_center": series(1, start=1),
            "inner": series(fld.p, start=1), "matrix": matrix, "poly8": poly8,
            "shift": fld.from_rational(fld.p)}


def _dense_series(padicdisc, fld, n, rng):
    """A seeded order-n series whose every coordinate is drawn."""
    return padicdisc.TruncatedSeries(fld, "t", fld.zero(), [fld.from_coords(
        [Fraction(rng.randint(-999, 999), rng.choice((1, 3, 5, 7))) for _ in range(fld.n)])
        for _ in range(n)])


def _dense_mul(padicdisc, fld, n, seed):
    """The product of two seeded order-n series whose every coordinate is drawn."""
    rng = random.Random(seed)
    x, y = _dense_series(padicdisc, fld, n, rng), _dense_series(padicdisc, fld, n, rng)
    return lambda: x * y


def _scalar_json_calls(padicdisc) -> dict:
    """scalar_to_json of every coefficient of a seeded dense series of order
    SERIES_JSON_ORDER, per benchmark field at 64 digits."""
    from fields import FIELDS
    calls = {}
    for name, field in sorted(FIELDS.items()):
        fld = padicdisc.jsonio.field_from_json(field.spec(64))
        coeffs = _dense_series(padicdisc, fld, SERIES_JSON_ORDER,
                               random.Random(SERIES_JSON_ORDER)).coeffs
        calls[name] = lambda coeffs=coeffs: [padicdisc.jsonio.scalar_to_json(c) for c in coeffs]
    return calls


def _valuation_calls(padicdisc) -> dict:
    """valuation() and precision() of SCALAR_BATCH seeded scalars, every
    coordinate drawn, per benchmark field at 64 digits."""
    from fields import FIELDS
    calls = {}
    for name, field in sorted(FIELDS.items()):
        fld = padicdisc.jsonio.field_from_json(field.spec(64))
        scalars = _dense_series(padicdisc, fld, SCALAR_BATCH, random.Random(SCALAR_BATCH)).coeffs
        calls[name] = lambda scalars=scalars: [(c.valuation(), c.precision()) for c in scalars]
    return calls


def _calls(padicdisc, data):
    series, diffmod = padicdisc.series, padicdisc.diffmod
    return {"mul": lambda: data["unit"] * data["other"],
            "mult_inverse": lambda: series.mult_inverse(data["unit"]),
            "reversion": lambda: series.reversion(data["zero_at_center"]),
            "compose": lambda: series.compose(data["unit"], data["inner"]),
            "compose_poly8": lambda: series.compose(data["poly8"], data["inner"]),
            "mat_inverse": lambda: diffmod.mat_inverse(data["matrix"]),
            "taylor_shift_poly8": lambda: series.taylor_shift(data["poly8"], data["shift"]),
            "taylor_shift_dense": lambda: series.taylor_shift(data["unit"], data["shift"]),
            "radius_estimate": lambda: series.radius_estimate(data["unit"])}


def _digit_calls(padic, p, digits, seed):
    """One batch call per digit helper over seeded digits u * p^v, u a unit
    known to ``digits`` digits; ``bnorm`` gets the products ``bmul`` forms."""
    rng = random.Random(seed)

    def digit():
        u, v = rng.randrange(1, p ** digits), rng.randint(0, 3)
        return (u + 1 if u % p == 0 else u, v, v + digits)

    pairs = [(digit(), digit()) for _ in range(DIGIT_BATCH)]
    norms = [(ux * uy, vx + vy, min(vx + ky, vy + kx))
             for (ux, vx, kx), (uy, vy, ky) in pairs]
    return {"bmul": lambda: [padic._bmul(p, x, y) for x, y in pairs],
            "badd": lambda: [padic._badd(p, x, y) for x, y in pairs],
            "bnorm": lambda: [padic._bnorm(p, m, e, k) for m, e, k in norms]}


def _scalar_mul_calls(padicdisc) -> list:
    """(field, digits, call) per benchmark field at 64 digits and for
    Q_3(sqrt-3) at HIPREC_DIGITS: one call multiplies SCALAR_BATCH seeded
    pairs of scalars, every coordinate a drawn rational."""
    from fields import FIELDS
    cases = [(name, field, 64) for name, field in sorted(FIELDS.items())]
    cases.append(("Q3(sqrt-3)", FIELDS["Q3(sqrt-3)"], HIPREC_DIGITS))
    calls = []
    for name, field, digits in cases:
        fld = padicdisc.jsonio.field_from_json(field.spec(digits))
        rng = random.Random(digits)

        def scalar():
            return fld.from_coords([Fraction(rng.randint(-999, 999), rng.choice((1, 3, 5, 7)))
                                    for _ in range(fld.n)])

        pairs = [(scalar(), scalar()) for _ in range(SCALAR_BATCH)]
        calls.append((name, digits, lambda pairs=pairs: [x * y for x, y in pairs]))
    return calls


def _field_calls(padicdisc) -> list:
    """(field, digits, call) per benchmark field at 64 digits and for
    Q_3(sqrt-3) at HIPREC_DIGITS: one call builds the field from its spec."""
    from fields import FIELDS
    cases = [(name, field, 64) for name, field in sorted(FIELDS.items())]
    cases.append(("Q3(sqrt-3)", FIELDS["Q3(sqrt-3)"], HIPREC_DIGITS))
    return [(name, digits, lambda spec=field.spec(digits): padicdisc.jsonio.field_from_json(spec))
            for name, field, digits in cases]


def _planted_morphisms(padicdisc) -> dict:
    """A planted degree-8 polynomial morphism per benchmark field."""
    import workloads
    from fields import FIELDS
    jsonio = padicdisc.jsonio
    phis = {}
    for name, field in sorted(FIELDS.items()):
        roots = workloads.plant_roots(random.Random(FIBER_DEGREE), field, FIBER_DEGREE)
        fld = jsonio.field_from_json(field.spec(64))
        coeffs = [field.coeff_json(c) for c in field.poly_from_roots(roots)]
        phis[name] = padicdisc.DiscMorphism(
            f=jsonio.series_from_json(coeffs, fld, order=FIBER_ORDER), degree=FIBER_DEGREE)
    return phis


def _horner_calls(padicdisc) -> dict:
    """poly_eval of the planted polynomial's coefficients at its first
    planted root, and recenter of the polynomial there, per benchmark field."""
    import workloads
    from fields import FIELDS
    calls = {}
    for name, phi in _planted_morphisms(padicdisc).items():
        field, f = FIELDS[name], phi.f
        root = workloads.plant_roots(random.Random(FIBER_DEGREE), field, FIBER_DEGREE)[0]
        a = padicdisc.jsonio.scalar_from_json(field.coeff_json(root), f.field)
        calls["poly_eval:" + name] = lambda coeffs=f.coeffs[:FIBER_DEGREE + 1], a=a: \
            padicdisc.padic.poly_eval(coeffs, a)
        calls["recenter:" + name] = lambda f=f, a=a: padicdisc.series.recenter(f, a)
    return calls


def _fiber_calls(padicdisc) -> dict:
    """fiber() over b = 0 of the planted morphism, per benchmark field."""
    return {name: lambda phi=phi: padicdisc.fiber(phi, phi.f.field.zero())
            for name, phi in _planted_morphisms(padicdisc).items()}


def _tree_calls(padicdisc) -> dict:
    """tree_over_point() on the fiber over b = 0 of the planted morphism, per
    benchmark field; the fiber is built untimed."""
    return {name: lambda phi=phi, fib=padicdisc.fiber(phi, phi.f.field.zero()):
            padicdisc.tree_over_point(phi, fib)
            for name, phi in _planted_morphisms(padicdisc).items()}


def _hensel_calls(padicdisc) -> dict:
    """hensel_lift from the seed 1 of the planted unit root 1 + a_0, per field."""
    import workloads
    from fields import FIELDS
    calls = {}
    for name, field in sorted(FIELDS.items()):
        roots = workloads.plant_roots(random.Random(FIBER_DEGREE), field, FIBER_DEGREE)
        roots[0] = field.add(field.one(), roots[0])
        fld = padicdisc.jsonio.field_from_json(field.spec(64))
        g = [padicdisc.jsonio.scalar_from_json(field.coeff_json(c), fld)
             for c in field.poly_from_roots(roots)]
        calls[name] = lambda g=g, one=fld.one(): padicdisc.hensel_lift(g, one)
    return calls


def _fresh(padicdisc, vd):
    """A ``VandermondeData`` with the matrices and solutions of ``vd`` and
    nothing transported yet."""
    return padicdisc.VandermondeData(vd.matrix_u, vd.matrix_v, vd.fiber, vd.solutions)


def _transport_call(padicdisc):
    """The fundamental and optimal stages of p2-exp at STAGE_ORDER, on a
    fresh ``VandermondeData`` per call; the inputs are built untimed."""
    pipe = padicdisc.cli._load(padicdisc.cli.example_spec(TRANSPORT_EXAMPLE,
                                                          order=STAGE_ORDER))
    upstairs, vd = pipe.get("upstairs_bases"), pipe.get("vandermonde")
    tree, phi = pipe.get("tree"), pipe.get("phi")
    linked = [[padicdisc.LinkedColumn(entries=hb.columns[0], exponent=hb.radii[0].exponent,
                                      origin=(i, 0))]
              for i, hb in enumerate(upstairs)]

    def call():
        fresh = _fresh(padicdisc, vd)
        padicdisc.fundamental_solution_matrix(upstairs, fresh)
        padicdisc.optimal_basis(linked, tree, fresh, phi)
    return call


def _host_sample() -> float:
    """Duration of one run of the host-speed reference."""
    start = time.perf_counter()
    hostspeed.reference()
    return time.perf_counter() - start


def _batch_size(call) -> int:
    """Calls per batch, from one untimed call: enough to take BATCH_S."""
    start = time.perf_counter()
    call()
    return max(1, int(BATCH_S / (time.perf_counter() - start)))


def _time(call, calls) -> float:
    """Median time of one call over batches of ``calls`` calls, each batch
    scaled to the nominal host speed by the reference samples taken just
    before and just after it.  As in ``timeit``, the cyclic garbage
    collector is off while batches run, so a collection of what earlier
    cells left behind is charged to no cell."""
    times = []
    spent = 0.0
    gc.collect()
    gc.disable()
    try:
        before = _host_sample()
        while not times or (spent < BUDGET_S and len(times) < MAX_BATCHES):
            start = time.perf_counter()
            for _ in range(calls):
                call()
            seconds = time.perf_counter() - start
            after = _host_sample()
            times.append(seconds / calls * hostspeed.scale_of([before, after]))
            spent += seconds
            before = after
    finally:
        gc.enable()
    return statistics.median(times)


def _cold_import(src: str) -> float:
    """Median scaled time of ``import padicdisc.cli`` from ``src`` over
    COLD_IMPORTS fresh ``-B`` interpreters: ``perfbench/setup_probe.py``
    with no field to build."""
    times = []
    for _ in range(COLD_IMPORTS):
        out = subprocess.run([sys.executable, "-B", str(PERFBENCH / "setup_probe.py"),
                              str(Path(src).resolve()), "[]"],
                             capture_output=True, text=True, timeout=120, check=True)
        times.append(float(out.stdout.split()[-1]))
    return statistics.median(times)


def _cells(padicdisc) -> list:
    """(op, field, N, call) of every row; the inputs are built untimed."""
    cells = []
    for name, p in DIGIT_PRIMES.items():
        for digits in DIGIT_COUNTS:
            calls = _digit_calls(padicdisc.padic, p, digits, seed=digits)
            cells += [(op, name, digits, call) for op, call in calls.items()]
    for name, digits, call in _scalar_mul_calls(padicdisc):
        cells.append(("scalar_mul:" + name, name, digits, call))
    for name, digits, call in _field_calls(padicdisc):
        cells.append(("field:" + name, name, digits, call))
    for name, call in _scalar_json_calls(padicdisc).items():
        cells.append(("scalar_to_json:" + name, name, SERIES_JSON_ORDER, call))
    for name, call in _valuation_calls(padicdisc).items():
        cells.append(("valuation:" + name, name, 64, call))
    for name, call in _fiber_calls(padicdisc).items():
        cells.append(("fiber:" + name, name, FIBER_ORDER, call))
    for name, call in _tree_calls(padicdisc).items():
        cells.append(("tree:" + name, name, FIBER_ORDER, call))
    for name, call in _hensel_calls(padicdisc).items():
        cells.append(("hensel:" + name, name, 64, call))
    for op, call in _horner_calls(padicdisc).items():
        cells.append((op, op.split(":", 1)[1], FIBER_ORDER, call))
    for name, fld in _fields(padicdisc).items():
        for n in ORDERS:
            calls = _calls(padicdisc, _inputs(padicdisc, fld, n, seed=n))
            cells += [(op, name, n, calls[op]) for op in OPS]
    for name, fld in _fields(padicdisc, HIPREC_DIGITS).items():
        label = "%s %d digits" % (name, HIPREC_DIGITS)
        cells.append(("mul", label, HIPREC_ORDER,
                      _dense_mul(padicdisc, fld, HIPREC_ORDER, seed=HIPREC_ORDER)))
        data = _inputs(padicdisc, fld, HIPREC_ORDER, seed=HIPREC_ORDER)
        cells.append(("reversion", label, HIPREC_ORDER, _calls(padicdisc, data)["reversion"]))
    cli = padicdisc.cli
    for example, field in EXAMPLE_FIELDS.items():
        basis = cli._load(cli.example_spec(example, order=OPTIMALITY_ORDER)).get("optimal")
        cells.append(("optimality:" + example, field, OPTIMALITY_ORDER,
                      lambda basis=basis: padicdisc.optimality_check(basis)))
    for example, field in EXAMPLE_FIELDS.items():
        pipe = cli._load(cli.example_spec(example, order=STAGE_ORDER))
        module, points = pipe.get("module"), pipe.get("fiber").points
        cells.append(("upstairs:" + example, field, STAGE_ORDER,
                      lambda module=module, points=points:
                      [padicdisc.local_solution_matrix(module, a) for a in points]))
        cells.append(("fundamental:" + example, field, STAGE_ORDER,
                      lambda bases=pipe.get("upstairs_bases"), vd=pipe.get("vandermonde"):
                      padicdisc.fundamental_solution_matrix(bases, _fresh(padicdisc, vd))))
    cells.append(("transport:" + TRANSPORT_EXAMPLE, EXAMPLE_FIELDS[TRANSPORT_EXAMPLE],
                  STAGE_ORDER, _transport_call(padicdisc)))
    pipe = cli._load(cli.example_spec(RELATION_EXAMPLE, order=RELATION_ORDER))
    pipe.get("solutions")
    cells.append(("relation:" + RELATION_EXAMPLE, EXAMPLE_FIELDS[RELATION_EXAMPLE],
                  RELATION_ORDER, lambda phi=pipe.get("phi"), fib=pipe.get("fiber"):
                  padicdisc.monic_relation(phi, fib)))
    for example, field in EXAMPLE_FIELDS.items():
        for n in RUN_ORDERS:
            cells.append(("run:" + example, field, n,
                          lambda spec=cli.example_spec(example, order=n): cli.run(spec)))
    return cells


def measure(padicdisc, src: str) -> list:
    """One row per cell: the median of its ROUNDS round times, the rounds
    running over every cell in turn."""
    cells = _cells(padicdisc)
    timers = [functools.partial(_time, call, _batch_size(call)) for _, _, _, call in cells]
    cells.append(("cold_import", "-", 0, None))
    timers.append(functools.partial(_cold_import, src))
    times = [[] for _ in cells]
    for _ in range(ROUNDS):
        for cell_times, timer in zip(times, timers):
            cell_times.append(timer())
    rows = []
    for (op, field, n, _), cell_times in zip(cells, times):
        ms = statistics.median(cell_times) * 1e3
        print("%-18s %-11s N=%-4d %10.3f ms" % (op, field, n, ms), flush=True)
        rows.append({"op": op, "field": field, "N": n, "ms": round(ms, 3)})
    return rows


def merge(path: Path, column: str, rows) -> dict:
    doc = json.loads(path.read_text()) if path.exists() else {}
    doc.setdefault("unit", "ms per call, median of three rounds, scaled to the nominal host speed")
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
    rows = measure(padicdisc, args.src)
    merge(Path(args.out), args.column, rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
