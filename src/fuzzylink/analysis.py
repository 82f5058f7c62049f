"""Closed-form quantities for linkage analysis, as exact rationals.

Probabilities are kept as Fractions over arbitrary-precision integers
(factorials overflow fixed-width arithmetic immediately) and rendered to
floats only on output; values far below float precision are still exact
and reported through their base-2 logarithm.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .attacks import pattern_count
from .codes import LinearCode
from .fields import MAX_ORDER

# The exact sums over weight classes cost about n^2 big-integer steps: 0.05 s
# at n = 1024 and q = 2^16, but a minute at n = 16384 (2-vCPU VM).
MAX_LENGTH = 1024


def _check_size(q: int, n: int = 0) -> None:
    """Refuse a field order or length too large for exact evaluation,
    before any of it runs."""
    if q < 2:
        raise ValueError(f"field order {q} is below 2")
    if q > MAX_ORDER:
        raise ValueError(f"field order {q} exceeds supported maximum {MAX_ORDER}")
    if n > MAX_LENGTH:
        raise ValueError(f"length {n} exceeds the analysis maximum {MAX_LENGTH}")


@dataclass(frozen=True)
class DensityQuery:
    """Parameters of a sphere-packing density evaluation.

    radius defaults to floor((d-1)/2); pass an explicit radius to rate a
    bounded-weight scan instead of a code's decoder.
    """

    q: int
    n: int
    k: int
    d: int | None = None
    radius: int | None = None

    def __post_init__(self):
        _check_size(self.q, self.n)
        if self.d is None and self.radius is None:
            raise ValueError("give a minimal distance or an explicit radius")
        r = self.effective_radius
        if not 0 <= r <= self.n:
            raise ValueError(f"radius {r} out of range for length {self.n}")
        if not 0 <= self.k <= self.n:
            raise ValueError(f"dimension {self.k} out of range for length {self.n}")

    @property
    def effective_radius(self) -> int:
        return (self.d - 1) // 2 if self.radius is None else self.radius


def sphere_packing_density(query: DensityQuery) -> Fraction:
    """Fraction of the ambient space covered by the decoding balls,
    q^(k-n) * sum_{j<=radius} (q-1)^j C(n,j); this is the probability that
    a uniformly random word decodes, i.e. the false-link rate of the
    plain decodability test."""
    r = query.effective_radius
    return Fraction(pattern_count(query.q, query.n, r), query.q ** (query.n - query.k))


def union_bound_linkage(q: int, n: int, rank_gtilde: int, b: int) -> Fraction:
    """Upper bound (not a prediction) on the probability that a uniform
    offset passes the bounded-weight syndrome scan: min(1, B * q^(rank-n))
    by the union bound over the B tested cosets."""
    _check_size(q, n)
    if not 0 <= rank_gtilde <= n:
        raise ValueError(f"rank {rank_gtilde} out of range for length {n}")
    val = Fraction(pattern_count(q, n, b), q ** (n - rank_gtilde))
    return min(Fraction(1), val)


def linear_map_probability(q: int) -> Fraction:
    """Probability that a uniformly random bijection of GF(q) is an
    invertible affine map x -> a*x + b: ((q-1)*q)/q! = 1/(q-2)!."""
    if q < 3:
        raise ValueError("defined for fields with at least 3 elements")
    _check_size(q)
    return Fraction(1, math.factorial(q - 2))


def log2_fraction(x: Fraction) -> float:
    """Exact-ish base-2 logarithm of a positive rational (works far below
    float underflow)."""
    if x <= 0:
        raise ValueError("logarithm of a non-positive value")
    return math.log2(x.numerator) - math.log2(x.denominator)


@dataclass(frozen=True)
class RankStatistics:
    """Empirical rank distribution of concatenated permuted generator
    pairs, with the implied linear-system solution counts."""

    code_n: int
    code_k: int
    samples: int
    rank_histogram: dict
    solution_histogram: dict

    @property
    def modal_rank(self) -> int:
        return max(self.rank_histogram, key=self.rank_histogram.get)


def rank_statistics(code: LinearCode, samples: int, rng) -> RankStatistics:
    """Sample random permutation pairs (P1, P2) and histogram the rank of
    (P1^-1 G | P2^-1 G), read off the pair reduction the attacks use
    (:meth:`~fuzzylink.linalg.RowReduction.doubled`); solution counts are
    q^(2k - rank)."""
    if samples < 1:
        raise ValueError("need at least one sample")
    ranks = Counter()
    n, k, q = code.n, code.k, code.field.q
    red = code.G.reduction()
    for _ in range(samples):
        p1 = [int(i) for i in rng.permutation(n)]
        p2 = [int(i) for i in rng.permutation(n)]
        ranks[red.doubled(p1, p2).rank] += 1
    solutions = Counter()
    for r, cnt in ranks.items():
        solutions[q ** (2 * k - r)] += cnt
    return RankStatistics(n, k, samples, dict(ranks), dict(solutions))
