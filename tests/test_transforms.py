import math
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from fuzzylink.fields import GF2, field
from fuzzylink.linalg import FieldMatrix, FieldVector, hamming_distance, invert, random_vector
from fuzzylink.transforms import (
    TransformDescriptor,
    apply,
    apply_inverse,
    as_matrix,
    check_distance_preserving,
    detect_affine,
    enumerate_distance_preserving_bijections,
    identity_transform,
    random_transform,
    transform_from_json,
)

GF5 = field(5)


def test_identity_transform(rng):
    t = identity_transform(GF2, 8)
    w = random_vector(GF2, 8, rng)
    assert apply(t, w) == w
    assert apply_inverse(t, w) == w


@pytest.mark.parametrize("kind,f", [("bit-permutation", GF2), ("bit-permutation", GF5),
                                    ("field-permutation", GF5)])
def test_apply_inverse_round_trip(rng, kind, f):
    for _ in range(25):
        t = random_transform(kind, 10, f, rng)
        w = random_vector(f, 10, rng)
        assert apply_inverse(t, apply(t, w)) == w
        assert apply(t, apply_inverse(t, w)) == w


@pytest.mark.parametrize("kind", ["bit-permutation", "field-permutation"])
def test_transforms_preserve_distance(rng, kind):
    f = GF5 if kind == "field-permutation" else GF2
    for _ in range(25):
        t = random_transform(kind, 12, f, rng)
        a = random_vector(f, 12, rng)
        b = random_vector(f, 12, rng)
        assert hamming_distance(apply(t, a), apply(t, b)) == hamming_distance(a, b)


def test_descriptor_validation():
    with pytest.raises(ValueError):
        TransformDescriptor("bit-permutation", 3, GF2, permutation=(0, 0, 2))
    with pytest.raises(ValueError):
        TransformDescriptor("field-permutation", 3, GF5, sigma=(0, 1, 2, 3, 3))
    with pytest.raises(ValueError):
        TransformDescriptor("rotation", 3, GF2)


def test_as_matrix_identity_and_consistency(rng):
    assert as_matrix(identity_transform(GF2, 5)) == FieldMatrix.identity(GF2, 5)
    for _ in range(20):
        t = random_transform("bit-permutation", 9, GF2, rng)
        P = as_matrix(t)
        w = random_vector(GF2, 9, rng)
        assert P @ w == apply(t, w)
    t = random_transform("bit-permutation", 9, GF2, rng)
    P = as_matrix(t)
    inv_t = TransformDescriptor("bit-permutation", 9, GF2,
                                permutation=t.inverse_permutation())
    assert invert(P) == as_matrix(inv_t)


def test_as_matrix_exhaustive_small_n(rng):
    # every bit permutation at n <= 6: matrix path equals the direct path
    for n in (2, 3, 4, 5, 6):
        words = (range(1 << n) if n <= 4
                 else [int(x) for x in rng.integers(0, 1 << n, size=8)])
        for perm in permutations(range(n)):
            t = TransformDescriptor("bit-permutation", n, GF2, permutation=perm)
            P = as_matrix(t)
            for word in words:
                w = FieldVector(GF2, n=n, bits=word)
                assert P @ w == apply(t, w)


def test_field_permutation_has_no_matrix(rng):
    t = random_transform("field-permutation", 4, GF5, rng)
    with pytest.raises(ValueError):
        as_matrix(t)


def test_random_transform_uniformity(rng):
    counts = {}
    draws = 60_000
    for _ in range(draws):
        t = random_transform("bit-permutation", 3, GF2, rng)
        counts[t.permutation] = counts.get(t.permutation, 0) + 1
    assert len(counts) == 6
    expected = draws / 6
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2 < 20.5  # chi-square 5 dof at the 0.1% tail


@pytest.mark.parametrize("n", [1, 7, 8, 127, 255])
def test_bit_permutation_matches_per_bit_loop(rng, n):
    """apply and apply_inverse of a GF(2) bit permutation against a loop
    that moves one bit at a time: output bit i is input bit perm[i], and
    for the inverse perm[i] receives bit i."""
    for _ in range(10):
        t = random_transform("bit-permutation", n, GF2, rng)
        w = random_vector(GF2, n, rng)
        forward = inverse = 0
        for i, p in enumerate(t.permutation):
            forward |= ((w.bits >> p) & 1) << i
            inverse |= ((w.bits >> i) & 1) << p
        assert apply(t, w).bits == forward
        assert apply_inverse(t, w).bits == inverse
    assert t.inverse_permutation() is t.inverse_permutation()  # kept, not rebuilt


@pytest.mark.parametrize("f", [field(2, 2), field(3, 2), field(2, 5), GF2, field(2, 9)], ids=str)
def test_field_permutation_matches_per_entry_map(rng, f):
    """apply and apply_inverse of a field permutation against mapping each
    entry through sigma and through its inverse: one bytes.translate with
    one byte per slot (GF(4), GF(3^2), GF(32)), entry by entry over GF(2)
    and with 16-bit slots."""
    for n in (1, 9, 40):
        for _ in range(10):
            t = random_transform("field-permutation", n, f, rng)
            inv = {y: x for x, y in enumerate(t.sigma)}
            w = random_vector(f, n, rng)
            assert apply(t, w).entries == tuple(t.sigma[e] for e in w.entries)
            assert apply_inverse(t, w).entries == tuple(inv[e] for e in w.entries)


def test_transform_json_round_trip(rng):
    for kind, f in (("identity", GF2), ("bit-permutation", GF2),
                    ("field-permutation", GF5)):
        t = random_transform(kind, 7, f, rng)
        assert transform_from_json(t.to_json(), f, 7) == t
    with pytest.raises(ValueError):
        transform_from_json({"type": "rot13"}, GF2, 7)


# ---------------------------------------------------------------------------
# affine detection
# ---------------------------------------------------------------------------

def test_detect_affine_examples():
    assert detect_affine(range(5), GF5) == (1, 0)
    assert detect_affine([(x + 1) % 5 for x in range(5)], GF5) == (1, 1)
    assert detect_affine([(3 * x + 2) % 5 for x in range(5)], GF5) == (3, 2)


def test_detect_affine_rejects_non_bijection():
    with pytest.raises(ValueError):
        detect_affine([0, 0, 1, 2, 3], GF5)


def test_affine_census_gf5():
    affine = sum(detect_affine(p, GF5) is not None for p in permutations(range(5)))
    assert affine == 4 * 5  # (q-1)*q of the 120 bijections
    assert math.factorial(5) == 120


def test_detect_affine_extension_field():
    f8 = field(2, 3)
    sigma = [f8.add(f8.mul(5, x), 3) for x in range(8)]
    assert detect_affine(sigma, f8) == (5, 3)


def ref_detect_affine(sigma, f):
    """detect_affine as a loop over the field, one mul and add per element."""
    b = sigma[0]
    a = f.sub(sigma[1], b)
    if a == 0 or any(f.add(f.mul(a, x), b) != sigma[x] for x in range(f.q)):
        return None
    return a, b


@pytest.mark.parametrize("f", [GF2, field(3), GF5, field(2, 2), field(2, 5)], ids=str)
def test_detect_affine_matches_per_element_loop(rng, f):
    """The whole-word comparison against the per-element loop on every
    affine map and on random bijections, which are rarely affine."""
    q = f.q
    for a in range(1, q):
        for b in range(q):
            sigma = [f.add(f.mul(a, x), b) for x in range(q)]
            assert detect_affine(sigma, f) == ref_detect_affine(sigma, f) == (a, b)
    for _ in range(200):
        sigma = [int(x) for x in rng.permutation(q)]
        assert detect_affine(sigma, f) == ref_detect_affine(sigma, f)


# ---------------------------------------------------------------------------
# distance-preserving map oracles
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,count", [(1, 2), (2, 8)])
def test_enumerate_distance_preserving_counts(n, count):
    maps = enumerate_distance_preserving_bijections(n)
    assert len(maps) == count == math.factorial(n) * 2 ** n


def test_enumerated_maps_decompose_and_centered_maps_are_linear():
    for n in (1, 2, 3):
        for m in enumerate_distance_preserving_bijections(n):
            assert m.table[0] == m.shift
            if m.shift == 0:
                # centered maps send unit vectors to unit vectors and are linear
                for i in range(n):
                    assert m.table[1 << i].bit_count() == 1
                for a in range(1 << n):
                    for b in range(1 << n):
                        assert m.table[a ^ b] == m.table[a] ^ m.table[b]


def test_enumerate_rejects_large_n():
    with pytest.raises(ValueError):
        enumerate_distance_preserving_bijections(4)


def test_check_distance_preserving_positive(rng):
    t = random_transform("bit-permutation", 5, GF2, rng)
    shift = random_vector(GF2, 5, rng)
    ok, witness = check_distance_preserving(lambda v: apply(t, v) + shift, GF2, 5)
    assert ok and witness is None


def test_check_distance_preserving_counterexample():
    # swap two outputs of the identity at distance-2 points (n = 3: the
    # swapped pair keeps its own distance but breaks against third points)
    a, b = 0b000, 0b011

    def fn(v):
        if v.bits == a:
            return FieldVector(GF2, n=3, bits=b)
        if v.bits == b:
            return FieldVector(GF2, n=3, bits=a)
        return v

    ok, witness = check_distance_preserving(fn, GF2, 3)
    assert not ok and witness is not None
    v1, v2 = witness
    assert hamming_distance(fn(v1), fn(v2)) != hamming_distance(v1, v2)


def test_check_distance_preserving_refuses_large_domains():
    # 2^13 vectors exceed the exhaustive limit of 4096: refused before any call
    calls = []
    with pytest.raises(ValueError):
        check_distance_preserving(calls.append, GF2, 13)
    assert calls == []


def test_check_distance_preserving_field_permutation(rng):
    t = random_transform("field-permutation", 4, GF5, rng)
    ok, _ = check_distance_preserving(lambda v: apply(t, v), GF5, 4)
    assert ok


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 9), st.data())
def test_random_bit_permutation_bijective(n, data):
    seed = data.draw(st.integers(0, 2 ** 16))
    import numpy as np
    t = random_transform("bit-permutation", n, GF2, np.random.default_rng(seed))
    assert sorted(t.permutation) == list(range(n))
