"""Walkthrough: the partition / adversary dichotomy.

For an operator T and a tolerance eps, exactly one of two things happens:
either the atoms can be grouped into cells on which every sign has image
norm <= eps (a partition certificate), or the adversary extracts two
disjoint signs whose images are both >= eps/2.  We show one operator on
each side of the dichotomy.
"""

import numpy as np

from narrowops import DiscreteOperator, MeasureSpace, adversarial_disjoint_signs, sup_norm

space = MeasureSpace.uniform(8)

# small entries: the partition side wins
tame = DiscreteOperator(0.05 * np.ones((2, 8)), space, sup_norm(dim=2))
out = adversarial_disjoint_signs(tame, 0.5, 2)
print("tame operator:", "partition" if out.exhausted else "adversary")
cert = out.certificate
assert out.exhausted and cert.n_cells >= 1 and all(b <= 0.5 for b in cert.bounds)
print(f"  {cert.n_cells} cells, bounds {[round(b, 3) for b in cert.bounds]}")

# identity-like columns: no grouping helps, the adversary wins
sharp = DiscreteOperator(np.eye(8)[:3] * 2.0, space, sup_norm(dim=3))
out = adversarial_disjoint_signs(sharp, 0.5, 2)
print("sharp operator:", "partition" if out.exhausted else "adversary")
assert not out.exhausted
for s in out.signs:
    print(f"  disjoint sign on atoms {np.flatnonzero(s.values).tolist()}, "
          f"image norm {out.operator.image_norm(s.values):.3f}")
