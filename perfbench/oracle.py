"""Independent checks of padicdisc reports.

The tree oracle recomputes the branching tree over a point from the exact
fiber points alone: pairwise valuations in ``Fraction`` arithmetic, clusters
at each level, and the branching radius sum_j min(v(a_j - a_rep), l), which
is the Gauss-norm exponent of prod_j (x + a_rep - a_j) on the disc of radius
|p|^l.  Branch indices depend on padicdisc's fiber order, so the oracle
compares (t-radius, branching radius, delta, sorted branch sizes) per
branching point.
"""

from __future__ import annotations

from fractions import Fraction

from fields import ExactField, field_of_spec, parse_scalar

# The ten checks every full report's ledger carries.
LEDGER = ("etale", "uv_identity", "v_ones_is_e1", "euler_identity",
          "monic_relation_vanishes", "horizontal_fundamental",
          "horizontal_optimal", "counts", "radius_agreement", "optimality")


def _components(indices, linked):
    groups = []
    for i in indices:
        merged = [g for g in groups if any(linked(i, j) for j in g)]
        for g in merged:
            groups.remove(g)
        groups.append(sorted([i] + [j for g in merged for j in g]))
    return sorted(groups)


def tree_oracle(field: ExactField, roots) -> list:
    """Sorted (t_radius, branch_radius, delta, branch sizes) per branching point."""
    d = len(roots)
    val = {}
    for i in range(d):
        for j in range(i + 1, d):
            v = field.valuation(field.sub(roots[i], roots[j]))
            val[(i, j)] = val[(j, i)] = v
    out = []
    for ell in sorted(set(val.values()), reverse=True):
        for cluster in _components(range(d), lambda i, j: val[(i, j)] >= ell):
            if len(cluster) < 2:
                continue
            parts = _components(cluster, lambda i, j: val[(i, j)] > ell)
            if len(parts) < 2:
                continue
            rep = cluster[0]
            radius = ell + sum(min(val[(rep, j)], ell) for j in range(d) if j != rep)
            out.append((Fraction(ell), Fraction(radius), len(parts),
                        tuple(sorted(len(part) for part in parts))))
    return sorted(out)


def reported_tree(tree_json: dict) -> list:
    return sorted((Fraction(bp["t_radius"]), Fraction(bp["branch_radius"]), bp["delta"],
                   tuple(sorted(len(part) for part in bp["branches"])))
                  for bp in tree_json["branch_points"])


def check_tree(report: dict, roots) -> str:
    """'' when the report's tree matches the oracle over the exact roots."""
    field = field_of_spec(report["spec"]["field"])
    tree = report["outputs"].get("tree")
    if tree is None:
        return "no tree in report"
    got = reported_tree(tree)
    want = tree_oracle(field, roots)
    if got != want:
        return "tree %s, oracle %s" % (got, want)
    return ""


def check_fiber_job(report: dict, roots) -> str:
    if report["errors"]:
        return "errors: %s" % report["errors"]
    if sorted(report["outputs"]) != ["tree"]:
        return "unexpected outputs %s" % sorted(report["outputs"])
    return check_tree(report, roots)


def example_roots(spec: dict) -> list:
    """The hinted fiber points of a canned example, as exact elements."""
    field = field_of_spec(spec["field"])
    return [parse_scalar(field, h) for h in spec["morphism"]["hints"]]


def check_example_job(report: dict, precision_floor: dict) -> str:
    """Ledger, tree and retained precision of a full example report."""
    if report["errors"]:
        return "errors: %s" % report["errors"]
    names = [c["name"] for c in report["checks"]]
    missing = [name for name in LEDGER if name not in names]
    if missing:
        return "ledger lacks %s" % missing
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    if failed:
        return "failed checks %s" % failed
    problem = check_tree(report, example_roots(report["spec"]))
    if problem:
        return problem
    for key, floor in precision_floor.items():
        got = report["achieved_precision"].get(key)
        if got is None or (got != "inf" and Fraction(got) < Fraction(floor)):
            return "achieved_precision[%s] = %s below %s" % (key, got, floor)
    return ""
