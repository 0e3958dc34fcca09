"""Walkthrough: narrow + finite-rank / compact sums.

A narrow operator plus a small finite-rank (or compact) perturbation still
admits small-image mean-zero signs.  The finite-rank route factors T2,
partitions the coefficient operator, and rounds; the locally convex route
samples candidate signs, covers the escaping images with an eps-net, and
separates with dual functionals, adding rounds adaptively.
"""

from narrowops import (
    PipelineParams,
    fnorm,
    random_finite_rank,
    random_narrow_operator,
    sum_compact_locally_convex,
    sum_finite_rank,
)

t1 = random_narrow_operator(6, 64, 3, 0.5)
t2 = random_finite_rank(7, 3, None, 6, scale=1e-4, space=t1.space)

rep = sum_finite_rank(t1, t2, 0.1, 0.1)
print("finite-rank route:")
print(f"  rank {rep.extras['rank']}, {len(rep.stages)} cells, "
      f"rounding certificate {rep.rounding_certificate:.2e} "
      f"<= delta {rep.budgets['delta']:.2e}")
print(f"  achieved ||T1 x|| = {rep.achieved['t1']:.6f}, "
      f"||T2 x|| = {rep.achieved['t2']:.6f}")

t2b = random_finite_rank(12, 3, None, 6, scale=2e-3, space=t1.space)
rep2 = sum_compact_locally_convex(t1, t2b, PipelineParams(epsilon=0.2, seed=1))
print("locally convex route:")
print(f"  net size {rep2.extras['net_size']}, "
      f"{rep2.adaptive_rounds} adaptive round(s)")
print(f"  achieved ||T1 x|| = {rep2.achieved['t1']:.6f}, "
      f"||T2 x|| = {rep2.achieved['t2']:.6f}")

for rep_k, t2_k in ((rep, t2), (rep2, t2b)):
    a = t1.refine(rep_k.refine_map, rep_k.space)
    b = t2_k.refine(rep_k.refine_map, rep_k.space)
    assert rep_k.sign.mean_zero
    assert fnorm(a.target, a.apply(rep_k.sign.values)) <= 0.1 + 1e-9
    assert fnorm(b.target, b.apply(rep_k.sign.values)) <= 0.1 + 1e-9
print("both certificates re-validated independently.")
