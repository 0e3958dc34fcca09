"""Walkthrough: the pairing construction.

Two operators share one measure space: T1 is narrow (its columns decay) and
T2 has an absolutely continuous norm.  The construction builds a mean-zero
sign x with ||T1 x|| <= sigma and ||T2 x|| <= epsilon by carving the space
into dyadic stages B_1, B_2, ... with mu(B_j) = mu(Omega)/2^j exactly, and
pairing atoms inside each stage.
"""

from fractions import Fraction

from narrowops import (
    PipelineParams,
    SignVector,
    build_l1_example,
    fnorm,
    pairing_construction,
    random_narrow_operator,
)

t2 = build_l1_example(5)
t1 = random_narrow_operator(9, None, 3, 0.5, space=t2.space)
params = PipelineParams(sigma=0.1, epsilon=0.1, gamma=0.05, delta=Fraction(1, 64))

rep = pairing_construction(t1, t2, params)
print(f"status: {rep.status}")
print(f"achieved ||T1 x|| = {rep.achieved['t1']:.6f} (budget {params.sigma})")
print(f"achieved ||T2 x|| = {rep.achieved['t2']:.6f} (budget {params.epsilon})")
# one stage label per atom: stage j's sign is the sign where the label is j
label = rep.extras["stage"]
for j in range(1, rep.extras["n_stages"] + 1):
    stage = SignVector.from_values(rep.space, rep.sign.values * (label == j))
    print(f"stage {j}: mu(B_{j}) = {stage.support_set().measure} "
          f"(target {rep.space.total / 2**j})")

# independent re-validation: lift the originals and re-apply
t1_fine = t1.refine(rep.refine_map, rep.space)
t2_fine = t2.refine(rep.refine_map, rep.space)
assert rep.sign.mean_zero
assert fnorm(t1_fine.target, t1_fine.apply(rep.sign.values)) <= params.sigma + 1e-9
assert fnorm(t2_fine.target, t2_fine.apply(rep.sign.values)) <= params.epsilon + 1e-9
print("independent re-validation passed.")
