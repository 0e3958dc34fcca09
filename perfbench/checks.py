"""Independent re-checks of every operation the benchmark times.

Nothing here calls ``narrowops``: the checks read the plain data of a report
(sign values, refinement counts, atom numerators, operator matrices, norm
parameters) and recompute every claim with their own arithmetic.  Each check
returns a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import numpy as np

# The pipelines accept an achieved norm up to budget + 1e-9 (their documented
# slack for floating images); the re-check allows exactly the same.
NORM_SLACK = 1e-9
# Reported floats must match their recomputation up to summation order.
REL_MATCH = 1e-9


def row_norms(norm, ys) -> np.ndarray:
    """F-norm of each row of ``ys`` for sup and weighted lp targets."""
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    w = np.asarray(norm.weights, dtype=float)
    if norm.kind == "sup":
        return np.max(w * np.abs(ys), axis=1)
    if norm.kind == "lp":
        s = np.sum(w * np.abs(ys) ** norm.p, axis=1)
        return s ** (1.0 / norm.p) if norm.p >= 1 else s
    raise ValueError(f"the re-check does not support {norm.kind!r} targets")


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_MATCH * max(1.0, abs(a), abs(b))


def pipeline_report(report, t1, t2, sigma: float, epsilon: float) -> list[str]:
    """Re-check a pipeline's certified sign against the original operators.

    Lifts ``t1`` and ``t2`` through ``report.refine_map`` (each column split
    equally among its children) and checks that the sign is an exactly
    mean-zero, full-support sign on the final space with
    ``||t1 x|| <= sigma`` and ``||t2 x|| <= epsilon``.
    """
    counts = np.asarray(report.refine_map.counts, dtype=np.int64)
    space_in, space_out = t1.space, report.space
    nums_in = [int(n) for n in space_in.numerators]
    nums_out = [int(n) for n in space_out.numerators]
    if counts.size != len(nums_in) or int(counts.sum()) != len(nums_out):
        return ["refine map does not join the input space to the final space"]
    # exact: every input atom's weight equals the sum of its children's
    k_in, k_out = space_in.denom_log2, space_out.denom_log2
    ends = np.cumsum(counts).tolist()
    start = 0
    for n_in, end in zip(nums_in, ends):
        if n_in * 2**k_out != sum(nums_out[start:end]) * 2**k_in:
            return ["refinement changes the measure of an input atom"]
        start = end

    values = [int(v) for v in report.sign.values]
    problems = []
    if len(values) != len(nums_out) or any(v not in (-1, 0, 1) for v in values):
        return ["sign is not a {-1, 0, +1} vector over the final atoms"]
    if any(v == 0 for v in values):
        problems.append("sign does not have full support")
    if sum(v * n for v, n in zip(values, nums_out)) != 0:
        problems.append("sign is not mean-zero")
    x = np.asarray(values, dtype=float)
    for label, op, budget in (("t1", t1, sigma), ("t2", t2, epsilon)):
        lifted = np.repeat(op.matrix / counts, counts, axis=1)
        value = float(row_norms(op.target, lifted @ x)[0])
        if not value <= budget + NORM_SLACK:
            problems.append(f"||{label} x|| = {value!r} exceeds budget {budget!r}")
    return problems


def half_integer_rounding(vectors, lam, norm, result) -> list[str]:
    """Re-check ``round_half_integer``: theta in {0,1}^n, the reported
    discrepancy ||sum (lam_i - theta_i) x_i|| recomputed, and the certificate
    (d/2) max ||x_i|| recomputed and not exceeded."""
    x = np.asarray(vectors, dtype=float)
    theta = np.asarray(result.theta)
    if theta.shape != (x.shape[0],) or not np.all((theta == 0) | (theta == 1)):
        return ["theta is not a {0, 1} vector with one entry per vector"]
    discrepancy = float(row_norms(norm, (lam - theta) @ x)[0])
    certificate = 0.5 * x.shape[1] * float(np.max(row_norms(norm, x)))
    problems = []
    if not _close(discrepancy, result.discrepancy):
        problems.append(
            f"reported discrepancy {result.discrepancy!r} != {discrepancy!r}"
        )
    if not _close(certificate, result.certificate):
        problems.append(
            f"reported certificate {result.certificate!r} != {certificate!r}"
        )
    if not discrepancy <= certificate + NORM_SLACK:
        problems.append(f"discrepancy {discrepancy!r} exceeds {certificate!r}")
    return problems


def sign_rounding(vectors, norm, output) -> list[str]:
    """Re-check ``sign_round``: signs in {-1,+1}^n and the achieved norm
    ||sum s_i x_i|| recomputed, within the recomputed d max ||x_i||."""
    signs, achieved, certificate, _ = output
    x = np.asarray(vectors, dtype=float)
    s = np.asarray(signs)
    if s.shape != (x.shape[0],) or not np.all((s == 1) | (s == -1)):
        return ["signs are not a {-1, +1} vector with one entry per vector"]
    value = float(row_norms(norm, s @ x)[0])
    bound = x.shape[1] * float(np.max(row_norms(norm, x)))
    problems = []
    if not _close(value, achieved):
        problems.append(f"reported norm {achieved!r} != {value!r}")
    if not _close(bound, certificate):
        problems.append(f"reported certificate {certificate!r} != {bound!r}")
    if not value <= bound + NORM_SLACK:
        problems.append(f"signed sum norm {value!r} exceeds {bound!r}")
    return problems
