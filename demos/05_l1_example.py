"""Walkthrough: the cell-averaging operator into l1.

The space splits into dyadic cells A_n with mu(A_n) = 2^-n; row n of the
operator integrates over A_n.  The operator is strictly narrow (pairing
atoms inside one cell gives an exactly-zero image), its truncation tails
are 2^-n, and the normalized indicator images sit pairwise 2 apart in l1,
so no finite net can cover them: the compactness hypotheses fail while
narrowness survives.
"""

from itertools import combinations

import numpy as np

from narrowops import (
    build_l1_example,
    find_small_sign,
    l1_example_cells,
    l1_example_tail_bound,
    random_narrow_operator,
    sum_compact_via_truncation,
)

T = build_l1_example(12)
cells = l1_example_cells(T)
print(f"{T.space.n_atoms} atoms across {len(cells)} cells")

exact_zeros = sum(find_small_sign(T, c, 2.0**-60).value == 0.0 for c in cells)
print(f"strict narrowness: exact-zero signs in {exact_zeros}/{len(cells)} cells")

tail = l1_example_tail_bound(12)
print(f"tail bound after level n: {[tail(n) for n in (1, 2, 3, 4)]}")

imgs = []
for cell in cells:
    e = np.zeros(T.space.n_atoms)
    e[list(cell.indices)] = 1.0 / float(cell.measure)
    imgs.append(T.apply(e))
gap = min(np.sum(np.abs(a - b)) for a, b in combinations(imgs, 2))
print(f"minimum pairwise l1 gap of normalized indicator images: {gap}")

t1 = random_narrow_operator(42, None, 3, 0.5, space=T.space)
rep = sum_compact_via_truncation(t1, T, 0.1, 1 / 8, tail)
print(f"truncation pipeline: level {rep.extras['truncation_level']}, "
      f"achieved ||T2 x|| = {rep.achieved['t2_full']:.6f} <= 1/8")
