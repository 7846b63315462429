"""The three workloads: inputs generated from the seed, and what runs.

outer_clt      `outwalk clt` on configs/outf2_clt.json with the trial count
               cut to OUTER_TRIALS; horizon 60 and master seed 7 as shipped.
tree_lab       `outwalk tree-lab --threads 2` on configs/tree_srw_f2.json as
               shipped, master seed = shipped seed + workload seed.
exact_oracles  a seeded call sequence through freegroup, rose and tree that
               mirrors acceptance criteria 1 (exact cocycle and tree
               identities) and 2 (White's formula against brute force).

outer_clt keeps the shipped master seed for every workload seed: its cost
sits in a few trials whose words reach millions of letters (the top 5% of
trials carry 69% of trial time over six master seeds), so at a fixed trial
count the run time moves by about 40% from one master seed to the next.
Master seed 7 keeps its trial 90 (7.0M letters) in every run, and its
outputs are compared with recorded digests on every seed.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction

NAMES = ("outer_clt", "tree_lab", "exact_oracles")
DEFAULT_SEED = 0
SEED_LIMIT = 2 ** 64

OUTER_TRIALS = 91           # ends with master seed 7's heaviest trial, 90
TREE_THREADS = 2

# exact_oracles sizes per repetition
COCYCLE_PER_RANK = 300      # sigma-cocycle identities at rank 2 and at rank 3
BUSEMANN = 2000             # Busemann cocycle identities
LEMMA = 5000                # horofunction lemma residuals
FOUR_POINT = 5000           # four-point slacks on periodic boundary points
WHITE = ((2, 12, 6), (3, 8, 2))   # (rank, max length, rose pairs)
WHITE_RELATIVE = {2: ("R:1:2:+", "L:2:1:-", "R:1:2:+"),
                  3: ("R:1:2:+", "L:3:1:-", "R:2:3:+")}

BOUNDARY_POINTS = ("per:a", "per:b", "per:ab", "pre:a per:ba", "per:aB",
                   "pre:Ba per:abAB")


def _load(root, name):
    with open(os.path.join(root, "configs", name)) as fh:
        return json.load(fh)


def make_inputs(name, seed, root, work):
    """Write the workload's generated inputs under `work`; return its spec."""
    spec = {"workload": name, "seed": seed, "root": root}
    if name == "exact_oracles":
        spec["outputs"] = ["oracles_summary.json"]
        return spec
    if name == "outer_clt":
        cfg = _load(root, "outf2_clt.json")
        cfg["trials"] = OUTER_TRIALS
        argv = ["clt"]
        spec["outputs"] = ["clt.csv", "clt_summary.json"]
    else:
        cfg = _load(root, "tree_srw_f2.json")
        cfg["seed"] = (cfg["seed"] + seed) % SEED_LIMIT
        argv = ["tree-lab", "--threads", str(TREE_THREADS)]
        spec["outputs"] = ["tree_lab_summary.json"]
    path = os.path.join(work, name + ".json")
    with open(path, "w") as fh:
        json.dump(cfg, fh, indent=2, sort_keys=True)
    spec["argv"] = argv + ["--config", path]
    spec["config"] = path
    spec["trials"] = cfg["trials"]
    return spec


def digests_apply(name, seed):
    """Whether recorded digests describe this workload's outputs at seed."""
    return name == "outer_clt" or seed == DEFAULT_SEED


def run_oracles(seed):
    """The exact_oracles call sequence.

    Returns (attempted, failed, summary); every identity is an exact integer
    or Fraction equality, and a check that raises counts as failed.
    """
    import numpy as np
    from outwalk import freegroup as fg
    from outwalk import rose, tree

    rng = np.random.default_rng(seed)
    checks = {}
    failed = {}
    values = {}

    def check(section, fn):
        checks[section] = checks.get(section, 0) + 1
        try:
            ok, value = fn()
        except Exception:           # a raising check is a failed check
            ok, value = False, 0
        if not ok:
            failed[section] = failed.get(section, 0) + 1
        values[section] = values.get(section, 0) + value

    def cocycle(rank):
        phi = fg.random_automorphism(rng, rank, int(rng.integers(0, 6)))
        psi = fg.random_automorphism(rng, rank, int(rng.integers(0, 6)))
        g = fg.random_reduced_word(rng, rank, int(rng.integers(1, 12)))
        lhs = rose.sigma_ratio(fg.compose(phi, psi), g)
        rhs = rose.sigma_ratio(phi, psi.apply(g)) * rose.sigma_ratio(psi, g)
        return lhs == rhs, lhs.numerator

    for rank in (2, 3):
        for _ in range(COCYCLE_PER_RANK):
            check("sigma_cocycle", lambda: cocycle(rank))

    pts = [tree.parse_boundary(s) for s in BOUNDARY_POINTS]

    def busemann_cocycle():
        g = fg.random_reduced_word(rng, 2, int(rng.integers(0, 12)))
        h = fg.random_reduced_word(rng, 2, int(rng.integers(0, 12)))
        xi = pts[int(rng.integers(len(pts)))]
        lhs = tree.busemann(fg.concat(g, h), xi)
        rhs = tree.busemann(g, tree.boundary_action(h, xi)) \
            + tree.busemann(h, xi)
        return lhs == rhs, lhs

    for _ in range(BUSEMANN):
        check("busemann_cocycle", busemann_cocycle)

    words = [fg.random_reduced_word(rng, 2, int(rng.integers(0, 24)))
             for _ in range(500)]

    def lemma(k):
        rep = tree.lemma_identities_check(words[k % len(words)],
                                          pts[k % len(pts)])
        return rep.exact, rep.residual_image + rep.residual_base

    for k in range(LEMMA):
        check("lemma_residuals", lambda: lemma(k))

    def four_point():
        while True:
            x, y, z = (pts[int(i)] for i in rng.integers(len(pts), size=3))
            prods = (tree.gromov_product(x, y), tree.gromov_product(x, z),
                     tree.gromov_product(y, z))
            if not any(tree.is_infinite(p) for p in prods):
                break
        slack = tree.four_point_slack(x, y, z)
        return slack >= 0, slack

    for _ in range(FOUR_POINT):
        check("four_point", four_point)

    def random_rose(rank, marking):
        raw = rng.integers(1, 12, size=rank)
        lengths = [Fraction(int(v), int(raw.sum())) for v in raw]
        return rose.rose_point(lengths, marking)

    def signed_permutation(rank):
        moves = []
        for i in range(1, rank):    # Fisher-Yates, one transposition a step
            j = int(rng.integers(i, rank + 1))
            if j != i:
                moves.append("T:%d:%d" % (i, j))
        moves += ["I:%d" % i for i in range(1, rank + 1) if rng.integers(2)]
        return fg.from_trace(rank, moves)

    white = []

    def white_pair(rank, max_len):
        # the oracle's work depends only on the relative marking; a signed
        # permutation conjugate of a fixed automorphism costs it the same
        # for every seed, while lengths and the marking of t stay random
        sigma = signed_permutation(rank)
        relative = fg.compose(sigma, fg.compose(
            fg.from_trace(rank, WHITE_RELATIVE[rank]), sigma.inverted()))
        marking = fg.random_automorphism(rng, rank, int(rng.integers(0, 6)))
        t = random_rose(rank, marking)
        u = random_rose(rank, fg.compose(marking, relative))
        brute = rose.brute_force_max_stretch(t, u, max_len)
        cand = rose.max_stretch(t, u)
        white.append([rank, max_len, str(brute), str(cand)])
        return brute == cand, 0

    for rank, max_len, count in WHITE:
        for _ in range(count):
            check("white_formula", lambda: white_pair(rank, max_len))

    summary = {"checks": checks, "failed": failed, "values": values,
               "white_pairs": white}
    return sum(checks.values()), sum(failed.values()), summary


def warm_oracle_caches():
    """Build rose's lazily cached class enumerations, as a first call does."""
    from outwalk import rose
    for rank, max_len, _ in WHITE:
        point = rose.unit_rose(rank)
        rose.brute_force_max_stretch(point, point, max_len)
