"""Symbol relabeling defeats linear linkage attacks over larger fields.

Over GF(q) with q not tiny, passing each entry of w through a random
record-specific bijection of the field preserves distances but destroys
the linear structure every scan-style attack needs: unless both
bijections happen to be affine (probability 1/(q-2)! per pair), no
invertible matrices Q, R can strip them.  Affine bijections, on the
other hand, are detected and peeled off in closed form.
"""

import numpy as np

from fuzzylink import (
    DensityQuery,
    TransformDescriptor,
    affine_reduction_attack,
    enroll,
    generalized_attack,
    generic_code,
    linear_map_probability,
    log2_fraction,
    random_transform,
    random_vector,
    random_weight_vector,
    sphere_packing_density,
)
from fuzzylink.fields import field
from fuzzylink.linalg import FieldMatrix, rank

rng = np.random.default_rng(4)
g32 = field(2, 5)

for q in (32, 64, 128):
    print(f"P(random bijection of GF({q}) is affine) = "
          f"2^{log2_fraction(linear_map_probability(q)):.0f}")

# a (10, 8) evaluation-style code over GF(32), distance 3
n, k = 10, 8
G = FieldMatrix(g32, [[g32.pow(i + 1, j) for j in range(k)] for i in range(n)])
assert rank(G) == k
code = generic_code(G, n - k + 1)

linked = 0
trials = 300
for _ in range(trials):
    w1 = random_vector(g32, n, rng)
    w2 = w1 + random_weight_vector(g32, n, 1, rng)
    t1 = random_transform("field-permutation", n, g32, rng)
    t2 = random_transform("field-permutation", n, g32, rng)
    r1 = enroll(w1, code, t1, rng=rng)
    r2 = enroll(w2, code, t2, rng=rng)
    out = generalized_attack(G, G, r1.commitment, r2.commitment, 1)
    linked += out.related
dens = sphere_packing_density(DensityQuery(q=32, n=n, k=k, radius=1))
print(f"\nrandom bijections, related pairs at distance 1: "
      f"linked {linked}/{trials} = {linked/trials:.3f}")
print(f"density baseline (what a random offset would score): {float(dens):.3f}")

# planted affine bijections fall to the reduction
broken = 0
trials = 100
n2, k2 = 20, 8
G2 = FieldMatrix(g32, [[g32.pow(i + 1, j) for j in range(k2)] for i in range(n2)])
code2 = generic_code(G2, n2 - k2 + 1)
for _ in range(trials):
    a1, a2 = (int(x) for x in rng.integers(1, 32, size=2))
    c1, c2 = (int(x) for x in rng.integers(0, 32, size=2))
    t1 = TransformDescriptor("field-permutation", n2, g32,
                             sigma=tuple(g32.add(g32.mul(a1, x), c1) for x in range(32)))
    t2 = TransformDescriptor("field-permutation", n2, g32,
                             sigma=tuple(g32.add(g32.mul(a2, x), c2) for x in range(32)))
    w1 = random_vector(g32, n2, rng)
    w2 = w1 + random_weight_vector(g32, n2, 1, rng)
    r1 = enroll(w1, code2, t1, rng=rng)
    r2 = enroll(w2, code2, t2, rng=rng)
    out = affine_reduction_attack(code2, (r1.commitment, t1), (r2.commitment, t2), 1)
    broken += out.related and (out.candidates[0] - out.candidates[1]) == (w1 - w2)
print(f"\nplanted affine bijections: broken {broken}/{trials} "
      f"(linkage + exact difference recovery)")
