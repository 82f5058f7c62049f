import math
from fractions import Fraction
from itertools import permutations

import pytest

from fuzzylink.analysis import (
    DensityQuery,
    linear_map_probability,
    log2_fraction,
    rank_statistics,
    sphere_packing_density,
    union_bound_linkage,
)
from fuzzylink.codes import bch_build
from fuzzylink.fields import field
from fuzzylink.transforms import detect_affine


def test_density_hamming_code_is_perfect():
    assert sphere_packing_density(DensityQuery(q=2, n=7, k=4, d=3)) == 1


def test_density_bch_31_11():
    dens = sphere_packing_density(DensityQuery(q=2, n=31, k=11, d=11))
    assert dens == Fraction(206368, 2 ** 20)
    assert abs(float(dens) - 0.19681) < 1e-4


def test_density_radius_zero():
    assert sphere_packing_density(DensityQuery(q=2, n=31, k=11, d=1)) == Fraction(1, 2 ** 20)
    assert sphere_packing_density(DensityQuery(q=5, n=6, k=2, radius=0)) == Fraction(1, 5 ** 4)


def test_density_monotone_in_distance():
    values = [sphere_packing_density(DensityQuery(q=2, n=31, k=11, d=d))
              for d in range(1, 12)]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_density_validation():
    with pytest.raises(ValueError):
        DensityQuery(q=2, n=8, k=4)
    with pytest.raises(ValueError):
        DensityQuery(q=2, n=8, k=9, d=3)
    with pytest.raises(ValueError):
        DensityQuery(q=2, n=8, k=4, radius=9)
    with pytest.raises(ValueError, match="analysis maximum"):
        DensityQuery(q=2, n=10 ** 9, k=1, radius=10 ** 9)


def test_union_bound_values():
    assert union_bound_linkage(2, 31, 21, 1) == Fraction(32, 1024)
    assert union_bound_linkage(2, 63, 47, 2) == Fraction(2017, 65536)
    assert union_bound_linkage(2, 31, 21, 31) == 1  # clamped
    with pytest.raises(ValueError):
        union_bound_linkage(2, 31, 32, 1)
    with pytest.raises(ValueError):
        union_bound_linkage(2, 31, -10 ** 9, 1)
    with pytest.raises(ValueError, match="analysis maximum"):
        union_bound_linkage(2, 10 ** 9, 1, 10 ** 9)


def test_linear_map_probability_small_field_census():
    g5 = field(5)
    affine = sum(detect_affine(p, g5) is not None for p in permutations(range(5)))
    assert linear_map_probability(5) == Fraction(affine, math.factorial(5)) == Fraction(1, 6)


@pytest.mark.parametrize("q,log2_expected", [(32, -108), (64, -284), (128, -702)])
def test_linear_map_probability_large_fields(q, log2_expected):
    val = linear_map_probability(q)
    assert val == Fraction(1, math.factorial(q - 2))
    assert abs(log2_fraction(val) - log2_expected) < 1.0


def test_linear_map_probability_rejects_tiny_fields():
    with pytest.raises(ValueError):
        linear_map_probability(2)


def test_log2_fraction():
    assert log2_fraction(Fraction(1, 8)) == -3
    with pytest.raises(ValueError):
        log2_fraction(Fraction(0))


def test_rank_statistics_identity_permutations():
    import numpy as np

    class FixedPermRng:
        def permutation(self, n):
            return np.arange(n)

    code = bch_build(5, 5)
    stats = rank_statistics(code, 3, FixedPermRng())
    assert stats.rank_histogram == {code.k: 3}  # duplicated blocks
    assert stats.solution_histogram == {2 ** code.k: 3}


def test_rank_statistics_random_pairs(rng):
    code = bch_build(6, 7)
    stats = rank_statistics(code, 60, rng)
    assert stats.samples == 60
    assert sum(stats.rank_histogram.values()) == 60
    assert stats.modal_rank == 2 * code.k - 1
    assert stats.rank_histogram[47] >= 58
    assert stats.solution_histogram.get(2, 0) >= 58
