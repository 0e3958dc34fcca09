"""The benchmark's workloads.

Each workload is a closed loop: one caller in one process sends the next
operation only after the previous one returned.  ``setup`` builds the fixed
instances, ``make_input(fixed, seed, i)`` derives operation ``i``'s input
from the seed alone, ``run`` is the timed call into the public API, and
``check`` re-checks its output independently (see ``checks.py``).

Why each workload exists, and which layer metric should move which
end-to-end metric on it, is recorded in README.md under the workload's name.
Every library call goes through the ``narrowops`` package at call time, so
the tracer's patches of the package namespace are seen.
"""

from __future__ import annotations

import numpy as np

import narrowops

import checks


def op_seed(seed: int, i: int) -> int:
    """Independent 32-bit seed for operation ``i`` of a run with ``seed``."""
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


class TruncationL1:
    """``sum_compact_via_truncation`` on the level-8 L1 example (256 atoms):
    truncation level 4, partition, rounding with n = 256, exhaustive sign
    search and refinement bookkeeping in one call."""

    name = "truncation_l1"
    levels = 8
    sigma = 0.1
    epsilon = 1 / 8

    def setup(self):
        t2 = narrowops.build_l1_example(self.levels)
        return t2, narrowops.l1_example_tail_bound(self.levels)

    def make_input(self, fixed, seed: int, i: int):
        t2, _ = fixed
        return narrowops.random_narrow_operator(
            op_seed(seed, i), None, 3, 0.5, space=t2.space
        )

    def run(self, fixed, t1):
        t2, tail = fixed
        return narrowops.sum_compact_via_truncation(
            t1, t2, self.sigma, self.epsilon, tail
        )

    def check(self, fixed, t1, report) -> list[str]:
        return checks.pipeline_report(report, t1, fixed[0], self.sigma, self.epsilon)

    def atoms_out(self, t1, report) -> list[int]:
        return [report.space.n_atoms]


class PairingL1:
    """``pairing_construction`` on the level-10 L1 example (1024 atoms,
    refined to about 14k): block Rademacher signs, refinement and lifting;
    no rounding, partition or linalg."""

    name = "pairing_l1"
    levels = 10

    def setup(self):
        params = narrowops.PipelineParams(
            sigma=0.1, epsilon=0.1, gamma=0.05, delta=1 / 64
        )
        return narrowops.build_l1_example(self.levels), params

    def make_input(self, fixed, seed: int, i: int):
        t2, _ = fixed
        return narrowops.random_narrow_operator(
            op_seed(seed, i), None, 3, 0.5, space=t2.space
        )

    def run(self, fixed, t1):
        t2, params = fixed
        return narrowops.pairing_construction(t1, t2, params)

    def check(self, fixed, t1, report) -> list[str]:
        t2, params = fixed
        return checks.pipeline_report(report, t1, t2, params.sigma, params.epsilon)

    def atoms_out(self, t1, report) -> list[int]:
        return [report.space.n_atoms]


class RoundingBatch:
    """100 seeded rounding instances per operation, n in [1, 64], d in
    [1, 8] (stratified), sup, l1 and l2 targets in rotation (the shape of
    acceptance criteria 1 and 2).  Each goes through ``round_half_integer`` at random
    coefficients and then through ``sign_round``."""

    name = "rounding_batch"
    batch = 100
    norms = (
        lambda d: narrowops.sup_norm(dim=d),
        lambda d: narrowops.lp_norm(1, dim=d),
        lambda d: narrowops.lp_norm(2, dim=d),
    )

    def setup(self):
        return None

    def make_input(self, fixed, seed: int, i: int):
        rng = np.random.default_rng(op_seed(seed, i))
        # stratified sizes: every operation holds the same spread of n and d
        # in a random pairing, so operations cost about the same and the
        # median of a few dozen of them is steady
        ns, ds = (
            1 + ((np.arange(self.batch) + rng.random(self.batch)) * top
                 / self.batch).astype(int)
            for top in (64, 8)
        )
        rng.shuffle(ns)
        rng.shuffle(ds)
        out = []
        for k, (n, d) in enumerate(zip(ns.tolist(), ds.tolist())):
            vectors = rng.standard_normal((n, d))
            lam = rng.uniform(0.0, 1.0, n)
            out.append((vectors, lam, self.norms[k % 3](d)))
        return out

    def run(self, fixed, batch):
        return [
            (
                narrowops.round_half_integer(
                    narrowops.RoundingInstance(vectors, lam, norm)
                ),
                narrowops.sign_round(vectors, norm),
            )
            for vectors, lam, norm in batch
        ]

    def check(self, fixed, batch, results) -> list[str]:
        problems = []
        for (vectors, lam, norm), (rounded, signed) in zip(batch, results):
            problems += checks.half_integer_rounding(vectors, lam, norm, rounded)
            problems += checks.sign_rounding(vectors, norm, signed)
        return problems

    def atoms_out(self, batch, results) -> list[int]:
        return [vectors.shape[0] for vectors, _, _ in batch]


WORKLOADS = {w.name: w for w in (TruncationL1(), PairingL1(), RoundingBatch())}
