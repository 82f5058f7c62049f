import dataclasses
import hashlib
import json
from itertools import combinations, islice, product
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fuzzylink import attacks, linalg, transforms
from fuzzylink.attacks import (
    SOLUTION_ENUM_CAP,
    AttackOutcome,
    ResourceCapError,
    affine_reduction_attack,
    attack_records,
    decodability_attack,
    generalized_attack,
    linear_decodability_attack,
    modified_decodability_attack,
    pattern_at,
    pattern_count,
    pattern_index,
    scan_syndrome_hits,
)
from fuzzylink.codes import bch_build, generic_code, random_codeword
from fuzzylink.commitment import codeword_digest, enroll
from fuzzylink.fields import GF2, field
from fuzzylink.linalg import (
    FieldMatrix,
    FieldVector,
    concat_cols,
    invert,
    kernel_basis,
    permuted_rows,
    random_vector,
    random_weight_vector,
    solve_affine,
)
from fuzzylink.transforms import (
    TransformDescriptor,
    apply,
    apply_inverse,
    as_matrix,
    detect_affine,
    random_transform,
)

GF3 = field(3)


def _random_records(code, rng, *, distance=None, with_hash=False, kind="bit-permutation"):
    """(w1, w2, t1, t2, rec1, rec2); distance=None draws independent pairs."""
    n = code.n
    w1 = random_vector(code.field, n, rng)
    if distance is None:
        w2 = random_vector(code.field, n, rng)
    else:
        w2 = w1 + random_weight_vector(code.field, n, distance, rng)
    t1 = random_transform(kind, n, code.field, rng)
    t2 = random_transform(kind, n, code.field, rng)
    rec1 = enroll(w1, code, t1, with_hash=with_hash, rng=rng)
    rec2 = enroll(w2, code, t2, with_hash=with_hash, rng=rng)
    return w1, w2, t1, t2, rec1, rec2


# ---------------------------------------------------------------------------
# pattern enumeration
# ---------------------------------------------------------------------------

def test_pattern_counts():
    assert pattern_count(2, 31, 2) == 1 + 31 + 465 == 497
    assert pattern_count(3, 5, 1) == 1 + 5 * 2 == 11
    assert pattern_count(2, 17, 0) == 1
    assert pattern_count(2, 255, 5) > 10 ** 9


@pytest.mark.parametrize("q,n", [(2, 7), (3, 5), (4, 4)])
def test_pattern_rank_matches_itertools_walk(q, n):
    """pattern_at is the i-th pattern of the walk weight -> support ->
    values (the reference scan's order) and pattern_index inverts it."""
    walk = [(support, values) for w in range(n + 1)
            for support in combinations(range(n), w)
            for values in product(range(1, q), repeat=w)]
    assert len(walk) == pattern_count(q, n, n) == q ** n
    for i, (support, values) in enumerate(walk):
        assert pattern_at(q, n, i) == (support, values)
        assert pattern_index(q, n, support, values) == i
    for bad in (-1, len(walk)):
        with pytest.raises(IndexError):
            pattern_at(q, n, bad)


def _every_pattern(f, n, b, reference):
    """All patterns of weight <= b, as a scan against H = 0, s = 0 yields them."""
    H = FieldMatrix(f, [[0] * n])
    return [(h.support, h.values, h.index)
            for h in scan_syndrome_hits(H, FieldVector.zeros(f, 1), b, reference=reference)]


def test_pattern_order_and_uniqueness():
    for reference in (False, True):
        pats = _every_pattern(GF3, 5, 3, reference)
        assert len(pats) == pattern_count(3, 5, 3)
        assert len({(support, values) for support, values, _ in pats}) == len(pats)
        assert [index for _, _, index in pats] == list(range(len(pats)))
        weights = [len(support) for support, _, _ in pats]
        assert weights == sorted(weights)
        assert all(FieldVector.from_support(GF3, 5, s, v).weight() == len(s)
                   for s, v, _ in pats)
    # words recorded while q > 2 went through FieldVector(field, entries)
    g32, g257 = field(2, 5), field(257)
    assert FieldVector.from_support(g32, 12, [0, 3, 11, 7], [31, 1, 17, 4]).packed == (
        0x11000000040000000100001f)
    assert FieldVector.from_support(g257, 9, [8, 0, 4], [256, 1, 255]).packed == (
        0x10000000000000000ff0000000000000001)
    for f, support, values in ((GF2, [-1], None), (GF2, [5], None), (GF3, [-1], [1]),
                               (GF3, [5], [1]), (GF3, [0], [3]), (g257, [0], [-1])):
        with pytest.raises(ValueError):
            FieldVector.from_support(f, 5, support, values)


def test_pattern_iter_raw_restart():
    """Unranking from any start index resumes the reference walk there."""
    full = _every_pattern(GF3, 4, 2, reference=True)
    count = pattern_count(3, 4, 2)
    assert len(full) == count
    for start in (0, 1, 7, count - 1):
        tail = [pattern_at(3, 4, i) + (i,) for i in range(start, count)]
        assert tail == full[start:]


def test_pattern_bound_validation():
    H = FieldMatrix(GF2, cols=5, packed_rows=[0b10110])
    s = FieldVector(GF2, n=1, bits=0)
    for b in (-1, 6):
        for reference in (False, True):
            with pytest.raises(ValueError, match="out of range for length 5"):
                next(scan_syndrome_hits(H, s, b, reference=reference))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 40), st.sampled_from([2, 3, 4]), st.data())
def test_pattern_rank_unrank_round_trip(n, q, data):
    idx = data.draw(st.integers(0, pattern_count(q, n, min(4, n)) - 1))
    support, values = pattern_at(q, n, idx)
    assert pattern_index(q, n, support, values) == idx
    assert list(support) == sorted(set(support)) and all(0 <= j < n for j in support)
    assert all(1 <= v <= q - 1 for v in values)


# ---------------------------------------------------------------------------
# scan engine: fast path vs naive reference
# ---------------------------------------------------------------------------

def _random_check_matrix(f, rng, rows, cols, degenerate=False):
    """Random H; degenerate=True zeroes column 1 and makes columns 3 and 5
    non-zero multiples of columns 0 and 2 (duplicates over GF(2)), which
    repeats pair syndromes over GF(2) and keys of the table of column
    multiples."""
    grid = [[int(x) for x in rng.integers(0, f.q, size=cols)] for _ in range(rows)]
    if degenerate:
        for row in grid:
            row[1] = 0
            for src, dst in ((0, 3), (2, 5)):
                row[dst] = f.mul(1 + dst % (f.q - 1), row[src])
    return FieldMatrix(f, grid)


def _mirrored(H):
    """H over GF(2), at most 64 rows, stacked on zero rows and on itself so
    that column x becomes x | x << 64: the 32-bit pieces of every sum of
    columns cancel, so every fold the GF(2) scan probes is 0."""
    return FieldMatrix(GF2, cols=H.cols,
                       packed_rows=H.packed_rows + (0,) * (64 - H.rows) + H.packed_rows)


def _all_hits(H, s, b, reference=False):
    return [(h.support, h.values, h.index)
            for h in scan_syndrome_hits(H, s, b, reference=reference)]


@pytest.mark.parametrize("f,rows,cols,b", [
    (GF2, 6, 14, 3), (GF2, 4, 10, 4), (GF3, 4, 8, 2), (field(2, 2), 3, 6, 2),
    (GF2, 7, 12, 5), (GF2, 12, 14, 6), (GF2, 8, 12, 6),
    (GF3, 4, 8, 3), (field(2, 2), 3, 7, 3), (field(3, 2), 3, 6, 3), (field(2, 3), 3, 6, 3),
    (field(5), 3, 8, 1), (field(5), 4, 12, 2), (field(7), 3, 7, 3),
    (GF2, 2, 14, 3), (GF2, 3, 16, 4), (GF2, 2, 15, 5), (GF2, 16, 16, 4), (GF2, 20, 14, 5),
    (GF2, 65, 12, 4), (GF2, 100, 13, 3), (GF2, 130, 14, 5),
    (GF2, 2, 3, 3), (GF2, 3, 4, 4), (GF2, 4, 5, 5), (GF2, 30, 14, 5)])
def test_scan_matches_reference(rng, f, rows, cols, b):
    """Full hit lists of the fast scan equal the naive scan's, on random H
    and, every other round, on H with zero and proportional columns (six
    columns or more), and so does the first hit of a scan that stops
    there.  GF(2) covers the classes 3 to 6 that join the folded column
    and pair syndromes, with b = 3 and with larger b, b = n for n = 3, 4,
    5, and the meet-in-the-middle guarded class 6: with 2 or 3 rows nearly
    every syndrome is a pair syndrome, so the sorted joins hold long runs
    of equal folds with many matches each, and with 16 to 30 rows runs
    are short and matches few.
    With 65 to 130 rows the folds XOR three to five 32-bit pieces, and in
    half the rounds of H with at most 64 rows every column is x | x << 64,
    so every fold is 0 and only the exact syndromes tell completions
    apart.  With b = 5 every fourth round plants a weight-3 pattern, which
    is the first hit when H has 20 rows or more.  Every other field takes the table of
    column multiples, packed words in characteristic 2 (GF(4), GF(8)) and
    entry tuples for odd p (GF(3), GF(5), GF(7), GF(9)); b = 1 over GF(5)
    takes the per-column scalars instead of the table."""
    for i in range(16):
        H = _random_check_matrix(f, rng, rows, cols, degenerate=i % 2 == 1 and cols >= 6)
        if f.q == 2 and rows <= 64 and i % 4 >= 2:
            H = _mirrored(H)
        weight3 = b == 5 and i % 4 == 0
        s = H @ random_weight_vector(f, cols, 3 if weight3 else int(rng.integers(0, b + 1)), rng)
        fast = _all_hits(H, s, b)
        assert fast == _all_hits(H, s, b, reference=True)
        assert fast  # the planted pattern guarantees at least one hit
        first = next(scan_syndrome_hits(H, s, b))
        assert (first.support, first.values, first.index) == fast[0]
        if weight3 and rows >= 20:
            assert len(first.support) == 3


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([(2, 1), (3, 1), (2, 2), (2, 3), (2, 9)]), st.data())
def test_scan_matches_reference_property(pm, data):
    f = field(*pm)
    # the reference walks every pattern, so GF(8) and GF(2^9) stay short
    n = data.draw(st.integers(1, {2: 11, 8: 4, 512: 4}.get(f.q, 6)))
    rows = data.draw(st.integers(1, 6))
    elements = st.integers(0, f.q - 1)
    H = FieldMatrix(f, data.draw(st.lists(st.lists(elements, min_size=n, max_size=n),
                                          min_size=rows, max_size=rows)))
    s = FieldVector(f, data.draw(st.lists(elements, min_size=rows, max_size=rows)))
    if f.q == 2:
        # syndromes of more than 64 bits, which the scan folds: a tall H, or
        # the drawn one with every column x turned into x | x << 64
        shape = data.draw(st.sampled_from(["drawn", "tall", "mirrored"]))
        if shape == "tall":
            H = FieldMatrix(GF2, cols=n, packed_rows=data.draw(
                st.lists(st.integers(0, (1 << n) - 1), min_size=65, max_size=130)))
        elif shape == "mirrored":
            H = _mirrored(H)
        if shape != "drawn":
            s = H @ FieldVector(GF2, n=n, bits=data.draw(st.integers(0, (1 << n) - 1)))
    b = data.draw(st.integers(0, min(1 if f.q == 512 else 6, n)))
    hits = _all_hits(H, s, b)
    assert hits == _all_hits(H, s, b, reference=True)
    first = [(h.support, h.values, h.index) for h in islice(scan_syndrome_hits(H, s, b), 1)]
    assert first == hits[:1]


def test_scan_across_lengths():
    """All-hits GF(2) scans of lengths 12, 5, 3, 12 and 4 in one process
    equal the naive scan's: the pair index kept per length serves the
    second length-12 scan and does not leak into the other lengths, the
    n <= 4 ones included."""
    rng = np.random.default_rng(2812)
    attacks._pair_index.cache_clear()
    for n in (12, 5, 3, 12, 4):
        b = min(n, 5)
        for rows in (3, 8):
            H = _random_check_matrix(GF2, rng, rows, n)
            for w in range(b + 1):
                s = H @ random_weight_vector(GF2, n, w, rng)
                assert _all_hits(H, s, b) == _all_hits(H, s, b, reference=True)
    assert attacks._pair_index.cache_info().hits > 0


@pytest.mark.parametrize("reference", [False, True])
def test_scan_rejects_mismatched_syndrome(reference):
    H3 = FieldMatrix(GF2, cols=5, packed_rows=[0b10110, 0b01101, 0b11011])
    H4 = FieldMatrix(field(2, 2), [[1, 2, 3, 0, 1]])
    for H, s in ((H3, FieldVector(GF2, n=4, bits=0b1011)),  # one entry too many
                 (H4, FieldVector(field(2, 3), [5]))):      # a GF(8) syndrome for a GF(4) H
        with pytest.raises(ValueError, match="does not fit"):
            next(scan_syndrome_hits(H, s, 2, reference=reference))


def test_scan_empty_check_matrix():
    H = FieldMatrix(GF2, cols=5, packed_rows=[])
    s = FieldVector(GF2, n=0, bits=0)
    first = next(scan_syndrome_hits(H, s, 2))
    assert first.support == () and first.index == 0


def test_all_hits_mode(rng):
    H = _random_check_matrix(GF2, rng, 3, 10)
    s = H @ random_weight_vector(GF2, 10, 1, rng)
    hits = list(scan_syndrome_hits(H, s, 3))
    indices = [h.index for h in hits]
    assert indices == sorted(indices)
    for h in hits:
        assert H @ h.pattern(GF2, 10) == s
        assert pattern_at(2, 10, h.index) == (h.support, h.values)


def test_gf2_scan_hits_pinned():
    """Hits of the GF(2) scan on real H~ of twelve seeded bch:127:13
    bit-permuted pairs (ten related at distance 0..4, two unrelated): every
    hit of b = 3, and the first three weight-4 hits of b = 4, support and
    index, as found by the scan that looked the last two positions up in a
    table of pair indices."""
    c = bch_build(7, 13)
    rng = np.random.default_rng(127)
    b3, b4 = hashlib.sha256(), hashlib.sha256()
    for i in range(12):
        w1 = random_vector(GF2, c.n, rng)
        w2 = (w1 + random_weight_vector(GF2, c.n, i % 5, rng) if i < 10
              else random_vector(GF2, c.n, rng))
        ts = [random_transform("bit-permutation", c.n, GF2, rng) for _ in range(2)]
        f1, f2 = (apply_inverse(t, enroll(w, c, t, rng=rng).commitment)
                  for w, t in zip((w1, w2), ts))
        Ht = concat_cols(*(permuted_rows(c.G, t.inverse_permutation())
                           for t in ts)).reduction().left_kernel
        s = Ht @ (f1 - f2)
        b3.update(json.dumps([(h.support, h.index)
                              for h in scan_syndrome_hits(Ht, s, 3)]).encode())
        weight4 = (h for h in scan_syndrome_hits(Ht, s, 4) if len(h.support) == 4)
        b4.update(json.dumps([(h.support, h.index) for h in islice(weight4, 3)]).encode())
    assert b3.hexdigest() == "06541e78245ab236cc2ce7614360e2906cc6800f1e085629ce1117b7b4a8c032"
    assert b4.hexdigest() == "45e0cba04d773ec7dda790cad60c7c901c710d6e313540d0a9c6f980ffc9b641"


def _pair_member(n, k, l):
    """The member index of pair (k, l), k < l, in the GF(2) scan's joins:
    n plus its lexicographic pair index."""
    return n + k * (2 * n - 1 - k) // 2 + l - k - 1


@pytest.mark.parametrize("mirrored", [False, True])
def test_gf2_join_yields_each_support_once(monkeypatch, mirrored):
    """A hand-built H whose syndrome s is the sum of columns 1, 3, 6, of
    columns 0, 2, 5, 7 and of columns 0, 4, 6, 7, 8.  The joins match the
    weight-3 support through each of its members, against the pair of the
    other two, the weight-4 support through all three of its pairings, and
    the tail 4, 6, 7, 8 of head (0,) through all three of its pairings;
    each support is yielded once, in canonical order, with the reference
    scan's index, for b = 3 (columns joined against pairs), b = 4 (one
    self-join) and b = 5 (one join per head).  Mirrored, every fold is 0
    and the joins match equal folds."""
    cols = [1 << j for j in range(6)] + [0b110101]
    s = cols[1] ^ cols[3] ^ cols[6]
    cols.append(s ^ cols[0] ^ cols[2] ^ cols[5])
    cols.append(s ^ cols[0] ^ cols[4] ^ cols[6] ^ cols[7])
    n = len(cols)
    H = FieldMatrix(GF2, cols=n, packed_rows=[sum((c >> i & 1) << j for j, c in enumerate(cols))
                                              for i in range(6)])
    if mirrored:
        H = _mirrored(H)
    syndrome = H @ FieldVector.from_support(GF2, n, (1, 3, 6), (1, 1, 1))
    join = attacks._fold_matches
    matched = set()

    def spy(*args):
        x, y = join(*args)
        matched.update(zip(x.tolist(), y.tolist()))
        return x, y

    monkeypatch.setattr(attacks, "_fold_matches", spy)
    splits = {(a, _pair_member(n, k, l)) for a, k, l in ((1, 3, 6), (3, 1, 6), (6, 1, 3))}
    pairings = [{tuple(sorted((_pair_member(n, *p), _pair_member(n, *q)))) for p, q in tail}
                for tail in ((((0, 2), (5, 7)), ((0, 5), (2, 7)), ((0, 7), (2, 5))),
                             (((4, 6), (7, 8)), ((4, 7), (6, 8)), ((4, 8), (6, 7))))]
    for b in (3, 4, 5):
        matched.clear()
        hits = _all_hits(H, syndrome, b)
        assert hits == _all_hits(H, syndrome, b, reference=True)
        supports = [support for support, _, _ in hits]
        assert len(supports) == len(set(supports))
        expected = [(1, 3, 6), (0, 2, 5, 7), (0, 4, 6, 7, 8)][:b - 2]
        assert [t for t in supports if t in expected] == expected
        assert splits <= matched
        for weight, pairs in zip((4, 5), pairings):
            assert pairs <= matched or weight > b
        if b == 3:
            assert all(x < n <= y for x, y in matched)


def test_gf2_join_keys_fit_int64():
    """The join packs a member as fold << shift + 1 | index, shift the bit
    length of the largest member index, and its sort keys reach 2^(34 +
    shift) when b = 3 sets bit 32 of the column folds.  At the largest n
    whose b = 3 scan the pattern budget admits, two members of the largest
    folds and indices still match, so no key wrapped negative."""
    n = max(m for m in range(3, 4000) if attacks.pattern_count(2, m, 3) <= attacks.PATTERN_BUDGET)
    top = n + comb(n, 2) - 1
    shift = top.bit_length()
    assert 34 + shift <= 63
    members = np.array([((1 << 33) - 1) << shift + 1 | 0, ((1 << 32) - 1) << shift + 1 | top])
    x, y = attacks._fold_matches(members, 1 << 32, shift, np.empty_like(members))
    assert (x.tolist(), y.tolist()) == ([0], [top])


def test_gf2_scan_hits_pinned_tall_and_deep():
    """Hits of the GF(2) scan as found by the scan that probed a screen
    and sorted keys of pair folds: every hit of b = 3 and the first hit of
    b = 4 on the H~ of eight seeded bit-permuted bch:255:26 pairs (82
    rows, so each fold XORs three 32-bit pieces; related at distance
    0..4, one unrelated), and every hit of b = 5 on the H~ of three seeded
    bch:127:13 pairs (related at distance 5 and 4, one unrelated)."""
    def syndromes(m, t, seed, distances):
        c = bch_build(m, t)
        rng = np.random.default_rng(seed)
        for d in distances:
            w1 = random_vector(GF2, c.n, rng)
            w2 = random_vector(GF2, c.n, rng) if d is None else w1 + random_weight_vector(
                GF2, c.n, d, rng)
            ts = [random_transform("bit-permutation", c.n, GF2, rng) for _ in range(2)]
            f1, f2 = (apply_inverse(t_, enroll(w, c, t_, rng=rng).commitment)
                      for w, t_ in zip((w1, w2), ts))
            Ht = concat_cols(*(permuted_rows(c.G, t_.inverse_permutation())
                               for t_ in ts)).reduction().left_kernel
            yield Ht, Ht @ (f1 - f2)

    b3, b4, b5 = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    for Ht, s in syndromes(8, 26, 255, [0, 1, 2, 3, 4, None, 3, 4]):
        assert Ht.rows == 82
        b3.update(json.dumps([(h.support, h.index) for h in scan_syndrome_hits(Ht, s, 3)]).encode())
        b4.update(json.dumps([(h.support, h.index)
                              for h in islice(scan_syndrome_hits(Ht, s, 4), 1)]).encode())
    for Ht, s in syndromes(7, 13, 1275, [5, 4, None]):
        b5.update(json.dumps([(h.support, h.index) for h in scan_syndrome_hits(Ht, s, 5)]).encode())
    assert b3.hexdigest() == "0b3e7fea5009f978c9022eae53ee37afd282b68974c10001b7daf68964686dfc"
    assert b4.hexdigest() == "d4123089897a93d1418396be2b5c983848a782252db76731505d76376689a9da"
    assert b5.hexdigest() == "ddbabacc6dcb8102beef95a1c8b045f9142df93ab127896adc06b303452363aa"


def test_multiples_scan_hits_pinned():
    """Complete hit lists (support, values, index) of the q > 2 scan, as
    found by the scan that keyed its table by s - v*cols[j]: on the c10
    code's H~ (the equal-block check matrix) for a seeded weight-2 pattern
    on every weight-2 support with b = 2; on the H~ of four seeded
    bit-permuted GF(32) pairs of that code (unequal blocks) with b = 3, for
    syndromes of weight 0..3 patterns and a random syndrome; and on check
    matrices with a zero column and proportional columns over GF(3), GF(4)
    and GF(9) with b = 3, s = 0 included."""
    def digest(cases):
        h = hashlib.sha256()
        for H, s, b in cases:
            hits = [(hit.support, hit.values, hit.index) for hit in scan_syndrome_hits(H, s, b)]
            h.update(json.dumps(hits).encode())
        return h.hexdigest()

    c = _c10_code()
    g32, n = c.field, c.n
    rng = np.random.default_rng(2001)
    Ht = c.G.reduction().doubled().left_kernel
    assert digest((Ht, Ht @ FieldVector.from_support(
        g32, n, support, [int(v) for v in rng.integers(1, 32, size=2)]), 2)
        for support in combinations(range(n), 2)) == (
        "d863d3316edeb31b7a599a79c25e949a8a460190b6a54d8b3e6385dd86673d47")
    unequal = []
    for _ in range(4):
        Ht = concat_cols(*(permuted_rows(c.G, [int(j) for j in rng.permutation(n)])
                           for _ in range(2))).reduction().left_kernel
        for w in range(5):
            e = random_weight_vector(g32, n, w, rng) if w < 4 else random_vector(g32, n, rng)
            unequal.append((Ht, Ht @ e, 3))
    assert digest(unequal) == "258211fe619ed25b511f2aead75fcd766051300b1edc86136af3abf160c83646"
    degenerate = []
    for f in (GF3, field(2, 2), field(3, 2)):
        for i in range(4):
            H = _random_check_matrix(f, rng, 3, 7, degenerate=True)
            s = FieldVector.zeros(f, 3) if i == 0 else H @ random_weight_vector(f, 7, i - 1, rng)
            degenerate.append((H, s, 3))
    assert digest(degenerate) == "9ea858a0009394be4809c6c9832f51ee822959c1324a14fe36c948ac24a90af0"


# ---------------------------------------------------------------------------
# plain decodability attack
# ---------------------------------------------------------------------------

def test_decodability_attack_same_feature(rng):
    code = bch_build(5, 5)
    w = random_vector(GF2, code.n, rng)
    f1 = random_codeword(code, rng) + w
    f2 = random_codeword(code, rng) + w
    assert decodability_attack(f1, f2, code)


def test_decodability_attack_within_radius(rng):
    code = bch_build(5, 5)
    for _ in range(50):
        w1 = random_vector(GF2, code.n, rng)
        w2 = w1 + random_weight_vector(GF2, code.n, code.t, rng)
        f1 = random_codeword(code, rng) + w1
        f2 = random_codeword(code, rng) + w2
        assert decodability_attack(f1, f2, code)


def test_decodability_attack_unrelated_rate(rng):
    # unrelated rate approximates the sphere packing density 6449/32768
    code = bch_build(5, 5)
    trials = 3000
    hits = sum(decodability_attack(random_vector(GF2, 31, rng),
                                   random_vector(GF2, 31, rng), code)
               for _ in range(trials))
    dens = 6449 / 32768
    sigma = (dens * (1 - dens) / trials) ** 0.5
    assert abs(hits / trials - dens) < 4 * sigma


# ---------------------------------------------------------------------------
# generalized attack
# ---------------------------------------------------------------------------

def test_generalized_same_w_two_codes_b0(rng):
    c1 = bch_build(5, 5)
    c2 = bch_build(5, 3)
    w = random_vector(GF2, 31, rng)
    f1 = random_codeword(c1, rng) + w
    f2 = random_codeword(c2, rng) + w
    out = generalized_attack(c1.G, c2.G, f1, f2, 0)
    assert out.related
    assert out.error_pattern.weight() == 0
    assert out.patterns_scanned == 1


def test_generalized_related_completeness(rng):
    c = bch_build(5, 5)
    for b in (0, 1, 2, 3):
        for _ in range(30):
            w1, w2, t1, t2, r1, r2 = _random_records(c, rng, distance=b)
            out = modified_decodability_attack(c, (r1.commitment, t1),
                                               (r2.commitment, t2), b)
            assert out.related
            assert out.patterns_scanned <= pattern_count(2, c.n, b)


def test_generalized_solution_coset(rng):
    c = bch_build(6, 7)
    w1, w2, t1, t2, r1, r2 = _random_records(c, rng, distance=2)
    out = modified_decodability_attack(c, (r1.commitment, t1), (r2.commitment, t2), 2)
    assert out.related
    assert out.all_solutions == 2 ** (2 * c.k - out.gtilde_rank)
    # candidate consistency: f1 = c1* + P1 w1*
    w1_cand, w2_cand = out.candidates
    c1_cand = r1.commitment - apply(t1, w1_cand)
    from fuzzylink.codes import is_codeword
    assert is_codeword(c, c1_cand)
    c2_cand = r2.commitment - apply(t2, w2_cand)
    assert is_codeword(c, c2_cand)
    assert (w1_cand - w2_cand) == out.error_pattern


def test_generalized_nonbinary(rng):
    # same machinery over GF(3) with inline generic codes
    G1 = _random_check_matrix(GF3, rng, 9, 3)
    G2 = _random_check_matrix(GF3, rng, 9, 3)
    w1 = random_vector(GF3, 9, rng)
    e = random_weight_vector(GF3, 9, 1, rng)
    w2 = w1 + e
    f1 = (G1 @ random_vector(GF3, 3, rng)) + w1
    f2 = (G2 @ random_vector(GF3, 3, rng)) + w2
    out = generalized_attack(G1, G2, f1, f2, 1)
    assert out.related
    m_diff = out.candidates[0] - out.candidates[1]
    assert m_diff == out.error_pattern


def test_degenerate_full_rank_flag(rng):
    # Hamming (7,4): 2k = 8 > n = 7, rank of the concatenation is 7
    c = bch_build(3, 1)
    w1, w2, t1, t2, r1, r2 = _random_records(c, rng)  # unrelated
    out = modified_decodability_attack(c, (r1.commitment, t1), (r2.commitment, t2), 0)
    assert out.related and out.degenerate
    assert out.gtilde_rank == 7
    assert out.patterns_scanned == 1


def test_soundness_large_code(rng):
    # (255,87): the union bound at b=1 is ~2^-74, so unrelated pairs must
    # never link
    c = bch_build(8, 26)
    for _ in range(60):
        w1, w2, t1, t2, r1, r2 = _random_records(c, rng)
        out = modified_decodability_attack(c, (r1.commitment, t1), (r2.commitment, t2), 1)
        assert not out.related
        assert out.gtilde_rank == 2 * c.k - 1


def test_patterns_scanned_bounded(rng):
    c = bch_build(5, 5)
    B = pattern_count(2, c.n, 2)
    for _ in range(20):
        w1, w2, t1, t2, r1, r2 = _random_records(c, rng)
        out = modified_decodability_attack(c, (r1.commitment, t1), (r2.commitment, t2), 2)
        assert out.patterns_scanned <= B
        if not out.related:
            assert out.patterns_scanned == B


# ---------------------------------------------------------------------------
# modified attack differential against the reference scan
# ---------------------------------------------------------------------------

def test_modified_attack_identical_records_b0(rng):
    c = bch_build(5, 5)
    w = random_vector(GF2, c.n, rng)
    t = random_transform("bit-permutation", c.n, GF2, rng)
    cw = random_codeword(c, rng)
    f = cw + apply(t, w)
    out = modified_decodability_attack(c, (f, t), (f, t), 0)
    assert out.related
    assert out.error_pattern.weight() == 0


def test_modified_attack_fast_equals_reference(rng):
    c = bch_build(5, 5)
    for i in range(40):
        b = int(rng.integers(0, 4))
        dist = int(rng.integers(0, b + 1)) if i % 2 == 0 else None
        w1, w2, t1, t2, r1, r2 = _random_records(c, rng, distance=dist)
        fast = modified_decodability_attack(c, (r1.commitment, t1), (r2.commitment, t2), b)
        ref = modified_decodability_attack(c, (r1.commitment, t1), (r2.commitment, t2), b,
                                           reference_scan=True)
        assert (fast.related, fast.patterns_scanned, fast.error_pattern,
                fast.candidates) == (ref.related, ref.patterns_scanned,
                                     ref.error_pattern, ref.candidates)


# ---------------------------------------------------------------------------
# hash filtering
# ---------------------------------------------------------------------------

def test_hash_filtering_exact_recovery(rng):
    c = bch_build(6, 7)
    for dist in (0, 1, 2):
        w1, w2, t1, t2, r1, r2 = _random_records(c, rng, distance=dist, with_hash=True)
        out = modified_decodability_attack(c, (r1.commitment, t1), (r2.commitment, t2), 2,
                                           hashes=(r1.codeword_hash, r2.codeword_hash))
        assert out.related and out.hash_verified
        assert out.candidates == (w1, w2)


def test_hash_filtering_rejects_unrelated(rng):
    # without digests some unrelated pairs link spuriously at b=3; with
    # digests the scan never verifies and reports non-related
    c = bch_build(5, 5)
    spurious = verified = 0
    for _ in range(60):
        w1, w2, t1, t2, r1, r2 = _random_records(c, rng, with_hash=True)
        plain = modified_decodability_attack(c, (r1.commitment, t1), (r2.commitment, t2), 3)
        spurious += plain.related
        hashed = modified_decodability_attack(c, (r1.commitment, t1), (r2.commitment, t2), 3,
                                              hashes=(r1.codeword_hash, r2.codeword_hash))
        verified += hashed.related
    assert spurious > 30  # b=3 spurious linkage is near-certain on (31,11)
    assert verified == 0


def test_hash_filtering_rejects_unknown_digest_length(rng):
    c = bch_build(5, 5)
    w1, w2, t1, t2, r1, r2 = _random_records(c, rng, distance=1, with_hash=True)
    for hashes in ((r1.codeword_hash[:16], r2.codeword_hash),
                   (r1.codeword_hash, r2.codeword_hash + b"\0")):
        with pytest.raises(ValueError, match="digest length"):
            modified_decodability_attack(c, (r1.commitment, t1), (r2.commitment, t2), 1,
                                         hashes=hashes)


def test_hash_filtering_needs_one_digest_per_record(rng):
    # a related pair, so a short tuple would be read at the first hit
    c = bch_build(5, 5)
    w1, w2, t1, t2, r1, r2 = _random_records(c, rng, distance=1, with_hash=True)
    h1, h2 = r1.codeword_hash, r2.codeword_hash
    G1 = permuted_rows(c.G, t1.inverse_permutation())
    G2 = permuted_rows(c.G, t2.inverse_permutation())
    f1, f2 = apply_inverse(t1, r1.commitment), apply_inverse(t2, r2.commitment)
    for hashes in ((), (h1,), (h1, h2, h2)):
        with pytest.raises(ValueError, match="one digest per record"):
            modified_decodability_attack(c, (r1.commitment, t1), (r2.commitment, t2), 1,
                                         hashes=hashes)
        with pytest.raises(ValueError, match="one digest per record"):
            generalized_attack(G1, G2, f1, f2, 1, hashes=hashes)


def test_hash_filtering_refuses_cosets_beyond_cap(rng):
    # identity transforms: G~ = (G | G) has rank k, so every hit's coset has
    # 2^k solutions, 2^24 on (63, 24); without digests only the particular
    # solution is taken and the pair links
    c = bch_build(6, 7)
    assert 2 ** c.k > SOLUTION_ENUM_CAP
    w1, w2, t1, t2, r1, r2 = _random_records(c, rng, distance=2, with_hash=True,
                                             kind="identity")
    recs = ((r1.commitment, t1), (r2.commitment, t2))
    with pytest.raises(ResourceCapError, match=f"would enumerate {2 ** c.k} solutions"):
        modified_decodability_attack(c, *recs, 2, hashes=(r1.codeword_hash, r2.codeword_hash))
    out = modified_decodability_attack(c, *recs, 2)
    assert out.related and out.all_solutions == 2 ** c.k


@pytest.mark.parametrize("m,t,b", [(5, 5, 1), (6, 7, 1), (7, 13, 2), (8, 26, 1)])
def test_bit_permuted_pairs_share_the_all_ones_word(m, t, b):
    """Both bit-permuted copies of a BCH code contain the all-ones word 1,
    so rank G~ <= 2k - 1 on every pair.  At rank 2k - 1 each hit has two
    solutions, m and m + (a, a) with G a = 1, whose feature-vector
    candidates differ by (1, 1): without digests the particular solution
    gives (w1, w2) or (w1 + 1, w2 + 1), and digests single out (w1, w2)."""
    c = bch_build(m, t)
    ones = FieldVector(GF2, n=c.n, bits=(1 << c.n) - 1)
    rng = np.random.default_rng(19 * m + t)
    plain_forms = []  # whether each 2-solution pair came back as (w1, w2)
    for i in range(10):
        dist = i % (b + 1) if i < 8 else None
        w1, w2, t1, t2, r1, r2 = _random_records(c, rng, distance=dist, with_hash=True)
        recs = ((r1.commitment, t1), (r2.commitment, t2))
        plain = modified_decodability_attack(c, *recs, b)
        assert plain.gtilde_rank <= 2 * c.k - 1
        if dist is None:
            continue
        assert plain.error_pattern == w1 - w2
        assert plain.all_solutions == 2 ** (2 * c.k - plain.gtilde_rank)
        if plain.all_solutions == 2:
            assert plain.candidates in ((w1, w2), (w1 + ones, w2 + ones))
            plain_forms.append(plain.candidates == (w1, w2))
        hashed = modified_decodability_attack(c, *recs, b,
                                              hashes=(r1.codeword_hash, r2.codeword_hash))
        assert hashed.hash_verified and hashed.candidates == (w1, w2)
    # every related pair had rank 2k - 1, and both forms came back
    assert len(plain_forms) == 8 and set(plain_forms) == {False, True}


def test_hash_filtering_resumes_through_pair_table_class(rng):
    # b = 4 on (31, 11): H~ has about 9 rows, so spurious hits of every
    # weight, weight 4 included, come before the genuine distance-4 pattern
    # and are rejected by their digests; with the first record's digest
    # given for both, every hit is rejected and the pair is non-related
    c = bch_build(5, 5)
    rejected_w4 = 0
    for i in range(6):
        w1, w2, t1, t2, r1, r2 = _random_records(c, rng, distance=4, with_hash=True)
        recs = (r1.commitment, t1), (r2.commitment, t2)
        hashes = (r1.codeword_hash, r2.codeword_hash if i % 3 else r1.codeword_hash)
        fast = modified_decodability_attack(c, *recs, 4, hashes=hashes)
        ref = modified_decodability_attack(c, *recs, 4, hashes=hashes, reference_scan=True)
        assert (fast.related, fast.patterns_scanned, fast.candidates) == (
            ref.related, ref.patterns_scanned, ref.candidates)
        assert fast.related == bool(i % 3)
        if fast.related:
            assert fast.candidates == (w1, w2)
        Gt = concat_cols(permuted_rows(c.G, t1.inverse_permutation()),
                         permuted_rows(c.G, t2.inverse_permutation()))
        Ht = kernel_basis(Gt.transpose()).transpose()
        r = apply_inverse(t1, r1.commitment) - apply_inverse(t2, r2.commitment)
        rejected_w4 += sum(1 for h in scan_syndrome_hits(Ht, Ht @ r, 4)
                           if len(h.support) == 4 and h.index < fast.patterns_scanned - 1)
    assert rejected_w4 > 0


# ---------------------------------------------------------------------------
# linear attack
# ---------------------------------------------------------------------------

def test_linear_identity_reduces_to_generalized(rng):
    c = bch_build(5, 5)
    ident = FieldMatrix.identity(GF2, c.n)
    for _ in range(10):
        w1 = random_vector(GF2, c.n, rng)
        w2 = w1 + random_weight_vector(GF2, c.n, 1, rng)
        f1 = random_codeword(c, rng) + w1
        f2 = random_codeword(c, rng) + w2
        lin = linear_decodability_attack(c, f1, f2, ident, ident, 1)
        gen = generalized_attack(c.G, c.G, f1, f2, 1)
        assert (lin.related, lin.patterns_scanned, lin.error_pattern,
                lin.candidates) == (gen.related, gen.patterns_scanned,
                                    gen.error_pattern, gen.candidates)


def test_linear_with_permutation_inverses_equals_modified(rng):
    c = bch_build(5, 5)
    for i in range(200):
        b = int(rng.integers(0, 3))
        dist = int(rng.integers(0, b + 1)) if i % 2 == 0 else None
        w1, w2, t1, t2, r1, r2 = _random_records(c, rng, distance=dist)
        Q = invert(as_matrix(t1))
        R = invert(as_matrix(t2))
        lin = linear_decodability_attack(c, r1.commitment, r2.commitment, Q, R, b)
        mod = modified_decodability_attack(c, (r1.commitment, t1), (r2.commitment, t2), b)
        assert (lin.related, lin.patterns_scanned, lin.error_pattern,
                lin.candidates) == (mod.related, mod.patterns_scanned,
                                    mod.error_pattern, mod.candidates)


def test_linear_rejects_singular(rng):
    c = bch_build(5, 5)
    f1 = random_vector(GF2, c.n, rng)
    f2 = random_vector(GF2, c.n, rng)
    Z = FieldMatrix.zeros(GF2, c.n, c.n)
    with pytest.raises(ValueError):
        linear_decodability_attack(c, f1, f2, Z, Z, 1)


def test_affine_reduction_breaks_affine_sigma(rng):
    # n = 20, k = 8 over GF(32): per-pattern false-positive density 32^-12,
    # so the first hit is the true error pattern and the recovered
    # difference is exact
    g32 = field(2, 5)
    n = 20
    G = _random_check_matrix(g32, rng, n, 8)
    c = generic_code(G, 3)
    from fuzzylink.transforms import TransformDescriptor
    for _ in range(20):
        a1, a2 = (int(x) for x in rng.integers(1, 32, size=2))
        b1, b2 = (int(x) for x in rng.integers(0, 32, size=2))
        sig1 = tuple(g32.add(g32.mul(a1, x), b1) for x in range(32))
        sig2 = tuple(g32.add(g32.mul(a2, x), b2) for x in range(32))
        t1 = TransformDescriptor("field-permutation", n, g32, sigma=sig1)
        t2 = TransformDescriptor("field-permutation", n, g32, sigma=sig2)
        w1 = random_vector(g32, n, rng)
        w2 = w1 + random_weight_vector(g32, n, 1, rng)
        r1 = enroll(w1, c, t1, rng=rng)
        r2 = enroll(w2, c, t2, rng=rng)
        out = affine_reduction_attack(c, (r1.commitment, t1), (r2.commitment, t2), 1)
        assert out.related
        assert out.candidates[0] - out.candidates[1] == w1 - w2


def _c10_code():
    """The GF(32) (20, 8) Vandermonde code of acceptance criterion c10."""
    g32 = field(2, 5)
    G = FieldMatrix(g32, [[g32.pow(i + 1, j) for j in range(8)] for i in range(20)])
    return generic_code(G, 13)


def test_affine_reduction_outcomes_pinned():
    # every outcome field but the time, on c10's code: related pairs at
    # distance 0..2 and unrelated pairs, with b = 1 and 2 (digests do not
    # apply: G~ = (G/a1 | G/a2) has cosets of 32^8 solutions)
    c = _c10_code()
    g32, n = c.field, c.n
    rng = np.random.default_rng(77)
    h = hashlib.sha256()
    related = []
    for i in range(16):
        sigmas = []
        for _ in range(2):
            a, s = int(rng.integers(1, 32)), int(rng.integers(0, 32))
            sigmas.append(tuple(g32.add(g32.mul(a, x), s) for x in range(32)))
        t1, t2 = (TransformDescriptor("field-permutation", n, g32, sigma=sg) for sg in sigmas)
        w1 = random_vector(g32, n, rng)
        w2 = (w1 + random_weight_vector(g32, n, i % 3, rng) if i < 12
              else random_vector(g32, n, rng))
        r1, r2 = enroll(w1, c, t1, rng=rng), enroll(w2, c, t2, rng=rng)
        out = affine_reduction_attack(c, (r1.commitment, t1), (r2.commitment, t2), 1 + i % 2)
        related.append(out.related)
        fields = _fields_but_elapsed(out)
        fields["candidates"] = out.candidates and [list(v.entries) for v in out.candidates]
        fields["error_pattern"] = out.error_pattern and list(out.error_pattern.entries)
        h.update(json.dumps(fields, sort_keys=True).encode())
    assert related == [i < 12 and i % 3 <= 1 + i % 2 for i in range(16)]
    assert h.hexdigest() == "ecb83252181bca6433c10a1b83417d504571c87a82d62f882447a502deee3b53"


def test_bit_permuted_attacks_reduce_only_the_kernel_rows(monkeypatch, rng):
    """The rows that enter the forward pass, counted at ``_reduce``: a
    bit-permuted bch:127:13 pair reads its reduction off the one the code's
    G keeps and reduces only the n - k = 77 rows of G's left kernel, with
    and without digests; two records with one permutation, two identity
    records and generalized_attack(G, G, ...) reduce none."""
    c = bch_build(7, 13)
    c.G.reduction()  # the code's own reduction, kept before counting
    inserted = []
    forward_pass = linalg._reduce

    def counting(words, *rest):
        words = list(words)
        inserted.append(len(words))
        return forward_pass(words, *rest)

    monkeypatch.setattr(linalg, "_reduce", counting)
    for with_hash in (False, True):
        w1, w2, t1, t2, r1, r2 = _random_records(c, rng, distance=2, with_hash=with_hash)
        hashes = (r1.codeword_hash, r2.codeword_hash) if with_hash else None
        out = modified_decodability_attack(c, (r1.commitment, t1), (r2.commitment, t2), 2,
                                           hashes=hashes)
        # without digests the pair may come back as its complements, the
        # other solution of the coset that the all-ones codeword makes
        ones = FieldVector(GF2, n=c.n, bits=(1 << c.n) - 1)
        assert out.candidates in ((w1, w2),) + (() if with_hash else ((w1 + ones, w2 + ones),))
        assert inserted == [c.n - c.k] == [77]
        inserted.clear()
    w1 = random_vector(GF2, c.n, rng)
    w2 = w1 + random_weight_vector(GF2, c.n, 2, rng)
    for kind in ("bit-permutation", "identity"):
        t = random_transform(kind, c.n, GF2, rng)
        r1, r2 = (enroll(w, c, t, rng=rng) for w in (w1, w2))
        assert modified_decodability_attack(c, (r1.commitment, t), (r2.commitment, t), 2).related
    assert generalized_attack(c.G, c.G, r1.commitment, r2.commitment, 2).related
    assert inserted == []


def test_equal_block_attacks_scan_with_one_table(monkeypatch):
    """Two affine_reduction_attack calls and one generalized_attack(G, G,
    ...) on the c10 code scan with the one table of column multiples that
    the code's check matrix keeps."""
    c = _c10_code()
    g32, n = c.field, c.n
    rng = np.random.default_rng(20)
    tables = []
    keep = FieldMatrix.multiples_table

    def spy(M):
        tables.append(keep(M))
        return tables[-1]

    monkeypatch.setattr(FieldMatrix, "multiples_table", spy)
    for _ in range(2):
        sigmas = []
        for _ in range(2):
            a, s = int(rng.integers(1, 32)), int(rng.integers(0, 32))
            sigmas.append(tuple(g32.add(g32.mul(a, x), s) for x in range(32)))
        t1, t2 = (TransformDescriptor("field-permutation", n, g32, sigma=sg) for sg in sigmas)
        w1 = random_vector(g32, n, rng)
        w2 = w1 + random_weight_vector(g32, n, 2, rng)
        r1, r2 = enroll(w1, c, t1, rng=rng), enroll(w2, c, t2, rng=rng)
        assert affine_reduction_attack(c, (r1.commitment, t1), (r2.commitment, t2), 2).related
    w1 = random_vector(g32, n, rng)
    w2 = w1 + random_weight_vector(g32, n, 2, rng)
    f1, f2 = (random_codeword(c, rng) + w for w in (w1, w2))
    assert generalized_attack(c.G, c.G, f1, f2, 2).related
    assert len(tables) == 3
    assert all(t is tables[0] for t in tables)
    assert tables[0] is keep(c.G.reduction().left_kernel.transpose())


def test_affine_reduction_rejects_non_affine(rng):
    g32 = field(2, 5)
    c = generic_code(_random_check_matrix(g32, rng, 10, 8), 3)
    while True:
        t1 = random_transform("field-permutation", 10, g32, rng)
        from fuzzylink.transforms import detect_affine
        if detect_affine(t1.sigma, g32) is None:
            break
    w = random_vector(g32, 10, rng)
    r1 = enroll(w, c, t1, rng=rng)
    with pytest.raises(ValueError):
        affine_reduction_attack(c, (r1.commitment, t1), (r1.commitment, t1), 1)


def test_one_detect_affine_per_record(monkeypatch, rng):
    # each transform keeps its affine pair: the guard of
    # affine_reduction_attack and both attacks' strip steps read it
    g32 = field(2, 5)
    c = generic_code(_random_check_matrix(g32, rng, 10, 8), 3)
    calls = []
    monkeypatch.setattr(transforms, "detect_affine",
                        lambda sigma, f: calls.append(sigma) or detect_affine(sigma, f))
    t1, t2 = (TransformDescriptor("field-permutation", 10, g32,
                                  sigma=tuple(g32.add(g32.mul(a, x), s) for x in range(32)))
              for a, s in ((3, 7), (9, 0)))
    w = random_vector(g32, 10, rng)
    recs = [(enroll(w, c, t, rng=rng).commitment, t) for t in (t1, t2)]
    assert affine_reduction_attack(c, *recs, 1).related
    assert calls == [t1.sigma, t2.sigma]
    assert attack_records(c, *recs, 1).related
    assert calls == [t1.sigma, t2.sigma]


# ---------------------------------------------------------------------------
# attack core differential against two separate reductions
# ---------------------------------------------------------------------------

def _reference_core(G1, G2, f1, f2, b, hashes=None, ref_G1=None, ref_G2=None):
    """The attack core built from public pieces only: H~ as the transposed
    kernel of G~^T, and a fresh solve_affine of G~ x = r - e on every hit.
    Returns every AttackOutcome field but ``elapsed``."""
    f, n = f1.field, f1.n
    k1 = G1.cols
    r = f1 - f2
    Gt = concat_cols(G1, G2)
    Ht = kernel_basis(Gt.transpose()).transpose()
    rank_ = n - Ht.rows
    for hit in scan_syndrome_hits(Ht, Ht @ r, b):
        e = hit.pattern(f, n)
        sols = solve_affine(Gt, r - e)
        for mt in (sols if hashes else [sols.particular]):
            m1 = FieldVector(f, mt.entries[:k1])
            m2 = FieldVector(f, [f.neg(x) for x in mt.entries[k1:]])
            if hashes and (codeword_digest(ref_G1 @ m1) != hashes[0]
                           or codeword_digest(ref_G2 @ m2) != hashes[1]):
                continue
            return dict(related=True, candidates=(f1 - G1 @ m1, f2 - G2 @ m2),
                        all_solutions=sols.count, hash_verified=bool(hashes),
                        error_pattern=e, patterns_scanned=hit.index + 1,
                        gtilde_rank=rank_, degenerate=rank_ == n)
    return dict(related=False, candidates=None, all_solutions=0, hash_verified=False,
                error_pattern=None, patterns_scanned=pattern_count(f.q, n, b),
                gtilde_rank=rank_, degenerate=rank_ == n)


def _fields_but_elapsed(out):
    return {fl.name: getattr(out, fl.name) for fl in dataclasses.fields(AttackOutcome)
            if fl.name != "elapsed"}


@pytest.mark.parametrize("m,t,with_hash", [(5, 5, False), (5, 5, True), (6, 7, True)])
def test_core_matches_reference_bit_permuted(rng, m, t, with_hash):
    c = bch_build(m, t)
    outcomes = set()
    for i in range(24):
        b = int(rng.integers(0, 4)) if c.n < 63 else int(rng.integers(0, 3))
        dist = int(rng.integers(0, b + 1)) if i % 3 else None
        w1, w2, t1, t2, r1, r2 = _random_records(c, rng, distance=dist, with_hash=with_hash)
        hashes = (r1.codeword_hash, r2.codeword_hash) if with_hash else None
        out = modified_decodability_attack(c, (r1.commitment, t1), (r2.commitment, t2), b,
                                           hashes=hashes)
        G1 = permuted_rows(c.G, t1.inverse_permutation())
        G2 = permuted_rows(c.G, t2.inverse_permutation())
        ref = _reference_core(G1, G2, apply_inverse(t1, r1.commitment),
                              apply_inverse(t2, r2.commitment), b, hashes, c.G, c.G)
        assert _fields_but_elapsed(out) == ref
        outcomes.add(out.related)
    assert outcomes == {True, False}


@pytest.mark.parametrize("f,n,k", [(GF3, 16, 4), (field(2, 5), 10, 3)], ids=["gf3", "gf32"])
@pytest.mark.parametrize("with_hash", [False, True])
def test_core_matches_reference_bit_permuted_generic(rng, f, n, k, with_hash):
    # bit-permuted records over q > 2 give the pair unequal row maps, the
    # one q > 2 case that RowReduction.doubled reduces afresh
    while True:
        G = FieldMatrix(f, [[int(x) for x in rng.integers(0, f.q, size=k)] for _ in range(n)])
        try:
            c = generic_code(G, 3)
            break
        except ValueError:  # rank below k
            continue
    outcomes = set()
    for i in range(10):
        b = 1 + i % 2
        w1, w2, t1, t2, r1, r2 = _random_records(c, rng, distance=i % (b + 1) if i < 6 else None,
                                                 with_hash=with_hash)
        hashes = (r1.codeword_hash, r2.codeword_hash) if with_hash else None
        out = modified_decodability_attack(c, (r1.commitment, t1), (r2.commitment, t2), b,
                                           hashes=hashes)
        G1, G2 = (permuted_rows(G, t.inverse_permutation()) for t in (t1, t2))
        ref = _reference_core(G1, G2, apply_inverse(t1, r1.commitment),
                              apply_inverse(t2, r2.commitment), b, hashes, G, G)
        assert _fields_but_elapsed(out) == ref
        outcomes.add(out.related)
    assert outcomes == {True, False}


@pytest.mark.parametrize("with_hash", [False, True])
def test_core_matches_reference_identity_cosets(rng, with_hash):
    # G~ = (G | G): every hit has a coset of 2^k solutions.  Every entry
    # point below passes equal blocks, so each reads G~'s reduction off the
    # one G keeps
    c = bch_build(5, 5)
    ident = FieldMatrix.identity(GF2, c.n)
    for i in range(6):
        b = 2
        w1, w2, t1, t2, r1, r2 = _random_records(c, rng, distance=i % 3 if i < 4 else None,
                                                 with_hash=with_hash, kind="identity")
        hashes = (r1.codeword_hash, r2.codeword_hash) if with_hash else None
        out = linear_decodability_attack(c, r1.commitment, r2.commitment, ident, ident, b,
                                         hashes=hashes)
        ref = _reference_core(c.G, c.G, r1.commitment, r2.commitment, b, hashes, c.G, c.G)
        assert _fields_but_elapsed(out) == ref
        shared = generalized_attack(c.G, c.G, r1.commitment, r2.commitment, b, hashes=hashes)
        assert _fields_but_elapsed(shared) == ref
        for code in (c, c.G):
            plain = modified_decodability_attack(code, (r1.commitment, t1), (r2.commitment, t2),
                                                 b, hashes=hashes)
            assert _fields_but_elapsed(plain) == ref
        if out.related:
            assert out.all_solutions == 2 ** c.k


def test_core_matches_reference_partial_overlap(rng):
    # G2 repeats three columns of G1 next to five random ones: cosets of 8
    c = bch_build(5, 5)
    G1 = c.G
    G2 = concat_cols(FieldMatrix(GF2, [row[:3] for row in G1.to_grid()]),
                     FieldMatrix(GF2, [[int(x) for x in rng.integers(0, 2, size=5)]
                                       for _ in range(c.n)]))
    for i in range(12):
        w1 = random_vector(GF2, c.n, rng)
        w2 = (w1 + random_weight_vector(GF2, c.n, i % 3, rng) if i < 8
              else random_vector(GF2, c.n, rng))
        m1 = random_vector(GF2, G1.cols, rng)
        m2 = random_vector(GF2, G2.cols, rng)
        f1, f2 = G1 @ m1 + w1, G2 @ m2 + w2
        hashes = (codeword_digest(G1 @ m1), codeword_digest(G2 @ m2)) if i % 2 else None
        out = generalized_attack(G1, G2, f1, f2, 2, hashes=hashes)
        assert _fields_but_elapsed(out) == _reference_core(G1, G2, f1, f2, 2, hashes, G1, G2)
        if out.related:
            assert out.all_solutions == 2 ** (G1.cols + G2.cols - out.gtilde_rank) == 8


def test_core_matches_reference_affine_gf32(rng):
    g32 = field(2, 5)
    n, k = 20, 8
    G = FieldMatrix(g32, [[g32.pow(i + 1, j) for j in range(k)] for i in range(n)])
    c = generic_code(G, n - k + 1)
    for i in range(6):
        sigmas = []
        for _ in range(2):
            a, s = int(rng.integers(1, 32)), int(rng.integers(0, 32))
            sigmas.append(tuple(g32.add(g32.mul(a, x), s) for x in range(32)))
        t1, t2 = (TransformDescriptor("field-permutation", n, g32, sigma=sg) for sg in sigmas)
        w1 = random_vector(g32, n, rng)
        w2 = (w1 + random_weight_vector(g32, n, 1 + i % 2, rng) if i < 4
              else random_vector(g32, n, rng))
        r1, r2 = enroll(w1, c, t1, rng=rng), enroll(w2, c, t2, rng=rng)
        b = 2 if i < 4 else 1
        out = affine_reduction_attack(c, (r1.commitment, t1), (r2.commitment, t2), b)
        core = []
        for fvec, T in ((r1.commitment, t1), (r2.commitment, t2)):
            a, s = detect_affine(T.sigma, g32)
            Q = FieldMatrix(g32, [[g32.inv(a) if x == y else 0 for y in range(n)]
                                  for x in range(n)])
            core.append((Q @ G, Q @ (fvec - FieldVector(g32, (s,) * n))))
        (QG, Qf1), (RG, Rf2) = core
        assert _fields_but_elapsed(out) == _reference_core(QG, RG, Qf1, Rf2, b)
        assert out.related == (i < 4)


def _affine_reference(code, recs, b, hashes=None):
    """_reference_core on the blocks Q_i G and commitments Q_i (f_i - c_i 1)
    of the linear attack with Q_i = a_i^-1 I, for sigma_i = a_i x + c_i."""
    f, n, G = code.field, code.n, code.G
    core = []
    for fvec, T in recs:
        a, s = detect_affine(T.sigma, f)
        Q = FieldMatrix(f, [[f.inv(a) if x == y else 0 for y in range(n)] for x in range(n)])
        core.append((Q @ G, Q @ (fvec - FieldVector(f, (s,) * n))))
    (QG, Qf1), (RG, Rf2) = core
    return _reference_core(QG, RG, Qf1, Rf2, b, hashes, G, G)


@pytest.mark.parametrize("p,m,n,k", [(2, 1, 10, 4), (3, 1, 8, 3), (2, 2, 8, 4), (5, 1, 7, 3)])
@pytest.mark.parametrize("with_hash", [False, True])
def test_core_matches_reference_affine_small_fields(rng, p, m, n, k, with_hash):
    # cosets of q^k <= 625 solutions fit SOLUTION_ENUM_CAP, so digests
    # filter them; the code and its bare generator matrix take the same path
    f = field(p, m)
    while True:
        G = FieldMatrix(f, [[int(x) for x in rng.integers(0, f.q, size=k)] for _ in range(n)])
        try:
            c = generic_code(G, 3)
            break
        except ValueError:  # rank below k
            continue
    verdicts = set()
    for i in range(10):
        t1, t2 = (TransformDescriptor("field-permutation", n, f, sigma=tuple(
                      f.add(f.mul(int(a), x), int(s)) for x in range(f.q)))
                  for a, s in zip(rng.integers(1, f.q, size=2), rng.integers(0, f.q, size=2)))
        b = 1 + i % 2
        w1 = random_vector(f, n, rng)
        w2 = (w1 + random_weight_vector(f, n, i % (b + 1), rng) if i < 6
              else random_vector(f, n, rng))
        r1 = enroll(w1, c, t1, with_hash=with_hash, rng=rng)
        r2 = enroll(w2, c, t2, with_hash=with_hash, rng=rng)
        hashes = (r1.codeword_hash, r2.codeword_hash) if with_hash else None
        recs = ((r1.commitment, t1), (r2.commitment, t2))
        ref = _affine_reference(c, recs, b, hashes)
        for code in (c, G):
            out = affine_reduction_attack(code, *recs, b, hashes=hashes)
            assert _fields_but_elapsed(out) == ref
        if with_hash and out.related:
            assert out.candidates[0] - out.candidates[1] == w1 - w2
            assert out.all_solutions == f.q ** k
        verdicts.add(out.related)
    assert True in verdicts
    if f.q > 3:  # every permutation of GF(2) or GF(3) is affine
        # attack_records attacks a non-affine pair as generalized_attack(G, G,
        # ...) does, and maps its candidates back through sigma^-1; an equal
        # copy of G counts as G
        sigmas = []
        while len(sigmas) < 2:
            sigma = tuple(int(x) for x in rng.permutation(f.q))
            if detect_affine(sigma, f) is None:
                sigmas.append(sigma)
        t1, t2 = (TransformDescriptor("field-permutation", n, f, sigma=sg) for sg in sigmas)
        w1 = random_vector(f, n, rng)
        r1 = enroll(w1, c, t1, with_hash=with_hash, rng=rng)
        r2 = enroll(w1 + random_weight_vector(f, n, 1, rng), c, t2, with_hash=with_hash,
                    rng=rng)
        hashes = (r1.codeword_hash, r2.codeword_hash) if with_hash else None
        with pytest.raises(ValueError, match="not affine"):
            affine_reduction_attack(c, (r1.commitment, t1), (r2.commitment, t2), 2)
        ref = _reference_core(G, G, r1.commitment, r2.commitment, 2, hashes, G, G)
        for G2 in (G, FieldMatrix(f, G.to_grid())):
            out = generalized_attack(G, G2, r1.commitment, r2.commitment, 2, hashes=hashes)
            assert _fields_but_elapsed(out) == ref
        out = attack_records(c, (r1.commitment, t1), (r2.commitment, t2), 2, hashes=hashes)
        if ref["candidates"] is not None:
            ref["candidates"] = tuple(map(apply_inverse, (t1, t2), ref["candidates"]))
        assert _fields_but_elapsed(out) == ref
