"""The benchmark's workloads, generated from a seed before any timing.

Each workload is a list of jobs.  A job is a finished padicdisc job spec plus
what the oracle needs to check its report; padicdisc sees only the spec.
"""

from __future__ import annotations

import random

from fields import FIELDS

EXAMPLES = ("p2-trivial", "p2-exp", "p3-trivial")

WORKLOADS = {
    # The three paper examples at a large series order: cost is cubic in N and
    # dominated by series multiply, Vandermonde/quotient-algebra inversion and
    # the repeated local solutions of the relation stage.
    "examples-n40": {"kind": "examples", "order": 40, "digits": 64},
    # The same examples with 1024-digit scalars: every digit operation is
    # bound by big-integer arithmetic, and the reports keep real digits.
    "examples-hiprec": {"kind": "examples", "order": 32, "digits": 1024},
    # Planted-root polynomial morphisms: automatic fiber search and tree
    # building only; no series-by-series multiply.  Every (field, degree)
    # pair gets the same number of jobs, so that the cost of a pass varies
    # little from seed to seed.
    "fibers": {"kind": "fibers", "per_pair": 7, "order": 32, "digits": 64,
               "degrees": range(3, 9)},
}

# achieved_precision of each example report at the commit that defined the
# benchmark.  A report that certifies fewer digits counts as failed: a change
# may make a job faster, not spend digits to do so.
PRECISION_FLOOR = {
    "examples-n40": {
        "p2-trivial": {"vandermonde": "-17", "direct_image": "-16"},
        "p2-exp": {"vandermonde": "-17", "direct_image": "-16"},
        "p3-trivial": {"vandermonde": "2", "direct_image": "3"},
    },
    "examples-hiprec": {
        "p2-trivial": {"vandermonde": "961", "direct_image": "962"},
        "p2-exp": {"vandermonde": "961", "direct_image": "962"},
        "p3-trivial": {"vandermonde": "974", "direct_image": "975"},
    },
}


def example_jobs(workload: str, seed: int, example_spec) -> list:
    """One job per paper example; the seed drives the optimality-check trials."""
    cfg = WORKLOADS[workload]
    return [{"name": name,
             "spec": example_spec(name, order=cfg["order"], digits=cfg["digits"],
                                  seed=seed),
             "floor": PRECISION_FLOOR[workload][name]}
            for name in EXAMPLES]


def plant_roots(rng: random.Random, field, degree: int) -> list:
    """Distinct roots of positive valuation with a random nested-cluster tree.

    A cluster of size >= 2 at level k (valuation k/e) splits into delta
    children whose offsets pi^k (r + pi x) have pairwise distinct residues r,
    so the children are exactly at pairwise valuation k/e; each child cluster
    continues one or two levels deeper.
    """
    residues = field.residues()
    pi = field.uniformizer_power(1)
    roots = []

    def grow(center, level, count):
        if count == 1:
            roots.append(center)
            return
        delta = rng.randint(2, min(count, len(residues)))
        cuts = sorted(rng.sample(range(1, count), delta - 1))
        sizes = [b - a for a, b in zip([0] + cuts, cuts + [count])]
        step = field.uniformizer_power(level)
        for size, r in zip(sizes, rng.sample(residues, delta)):
            tail = field.elem(*(rng.randrange(field.p) for _ in range(field.n)))
            unit = field.add(r, field.mul(pi, tail))
            grow(field.add(center, field.mul(step, unit)), level + rng.randint(1, 2), size)

    grow(field.zero(), rng.randint(1, 2), degree)
    rng.shuffle(roots)
    return roots


def fiber_jobs(seed: int) -> list:
    cfg = WORKLOADS["fibers"]
    rng = random.Random(seed)
    pairs = [(name, degree) for name in sorted(FIELDS) for degree in cfg["degrees"]]
    pairs *= cfg["per_pair"]
    rng.shuffle(pairs)
    jobs = []
    for index, (name, degree) in enumerate(pairs):
        field = FIELDS[name]
        roots = plant_roots(rng, field, degree)
        coeffs = field.poly_from_roots(roots)
        spec = {"field": field.spec(cfg["digits"]),
                "N": cfg["order"],
                "morphism": {"f": [field.coeff_json(c) for c in coeffs],
                             "d": len(roots)},
                "center": "0",
                "outputs": ["tree"],
                "seed": seed}
        jobs.append({"name": "fiber-%d-%s-d%d" % (index, field.name, len(roots)),
                     "spec": spec, "roots": roots})
    return jobs
