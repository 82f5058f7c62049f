import hashlib
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fuzzylink import linalg
from fuzzylink.attacks import ResourceCapError

from fuzzylink.codes import (
    bch_build,
    code_descriptor,
    decode_bounded,
    encode,
    generic_code,
    is_codeword,
    parse_code_descriptor,
    random_codeword,
    _bch_syndromes,
    _berlekamp_massey,
    _chien_values,
    _decode_exhaustive,
)
from fuzzylink.fields import GF2, exp_log_tables, field
from fuzzylink.linalg import (
    FieldMatrix,
    FieldVector,
    random_vector,
    random_weight_vector,
    rank,
)

TABLE_CODES = [(5, 5, 31, 11), (6, 7, 63, 24), (7, 13, 127, 50),
               (8, 26, 255, 87), (7, 15, 127, 36)]


@pytest.mark.parametrize("m,t,n,k", TABLE_CODES)
def test_bch_dimensions(m, t, n, k):
    c = bch_build(m, t)
    assert (c.n, c.k, c.d) == (n, k, 2 * t + 1)


def test_hamming_code_construction():
    c = bch_build(3, 1)
    assert (c.n, c.k, c.d) == (7, 4, 3)
    assert len(c.bch.generator_polynomial) == 4  # degree 3


def _vandermonde_gf32(n=20, k=8):
    """The (20, 8) GF(32) Vandermonde code of acceptance c10."""
    g32 = field(2, 5)
    G = FieldMatrix(g32, [[g32.pow(i + 1, j) for j in range(k)] for i in range(n)])
    return generic_code(G, n - k + 1)


DUALITY_CODES = {
    **{f"bch:{n}:{t}": (lambda m=m, t=t: bch_build(m, t)) for m, t, n, _ in TABLE_CODES},
    "gf3-inline": lambda: parse_code_descriptor(
        {"field": {"p": 3}, "generator": [[1, 0], [0, 1], [1, 1], [1, 2], [2, 1]], "d": 3}),
    "gf32-vandermonde-20-8": _vandermonde_gf32,
}


@pytest.mark.parametrize("name", DUALITY_CODES)
def test_bch_duality_asserted(name):
    # H @ G = 0 and both ranks hold by construction, so LinearCode no
    # longer checks them when it is built: this test does
    c = DUALITY_CODES[name]()
    assert (c.H.rows, c.H.cols) == (c.n - c.k, c.n)
    assert rank(c.G) == c.k
    assert rank(c.H) == c.n - c.k
    prod = c.H @ c.G
    assert all(prod.row(i).weight() == 0 for i in range(prod.rows))


# check matrix of bch:31:5 as the column-order RREF kernel computation
# produced it (row i as a column mask); codes must keep exactly this H
BCH_31_5_H = (
    0xa1d, 0x143a, 0x2269, 0x44d2, 0x83b9, 0x10772, 0x204f9, 0x403ef, 0x807de, 0x1005a1,
    0x20015f, 0x4002be, 0x80057c, 0x10000e5, 0x20001ca, 0x4000394, 0x8000728, 0x1000044d,
    0x20000287, 0x4000050e,
)


@pytest.mark.parametrize("build", [
    lambda: generic_code(FieldMatrix(field(3), [[1, 0], [0, 1], [1, 1], [1, 2]]), 3),
    lambda: bch_build.__wrapped__(5, 5),  # what a cache miss of bch_build runs
])
def test_code_build_runs_one_reduction(build, monkeypatch):
    """A code's H is the left kernel of the reduction of [G | I_n], so
    building the code eliminates that one matrix and nothing else."""
    calls = []

    def counted(*args, _reduce=linalg._reduce):
        calls.append(args)
        return _reduce(*args)
    monkeypatch.setattr(linalg, "_reduce", counted)
    build()
    assert len(calls) == 1


def test_bch_check_matrix_pinned():
    c = bch_build(5, 5)
    assert (c.H.rows, c.H.cols) == (20, 31)
    assert c.H.packed_rows == BCH_31_5_H


def test_bch_degenerate_t_rejected():
    assert bch_build(4, 7).k == 1  # repetition code, still valid
    with pytest.raises(ValueError):
        bch_build(4, 8)  # generator degree reaches n, k = 0


def test_bch_huge_t_rejected_up_front():
    # 2t >= n is refused before the walk over the cosets of 1..2t
    start = time.perf_counter()
    with pytest.raises(ValueError, match="degenerate"):
        bch_build(5, 10**6)
    with pytest.raises(ValueError, match="degenerate"):
        parse_code_descriptor("bch:31:10000000")
    assert time.perf_counter() - start < 0.5


def test_encode_examples(rng):
    c = bch_build(3, 1)
    assert encode(c, FieldVector.zeros(GF2, 4)).weight() == 0
    for _ in range(20):
        cw = random_codeword(c, rng)
        assert is_codeword(c, cw)
    with pytest.raises(ValueError):
        encode(c, FieldVector.zeros(GF2, 5))


def test_hamming_minimum_weight_exhaustive():
    c = bch_build(3, 1)
    weights = []
    for msg in range(1, 16):
        m = FieldVector(GF2, n=4, bits=msg)
        weights.append(encode(c, m).weight())
    assert min(weights) == 3


def test_hamming_code_is_perfect():
    c = bch_build(3, 1)
    for word in range(128):
        v = FieldVector(GF2, n=7, bits=word)
        assert decode_bounded(c, v) is not None


@pytest.mark.parametrize("m,t", [(5, 5), (6, 7), (7, 15)])
def test_decode_round_trip(rng, m, t):
    c = bch_build(m, t)
    for _ in range(300):
        cw = random_codeword(c, rng)
        w = int(rng.integers(0, t + 1))
        e = random_weight_vector(GF2, c.n, w, rng)
        assert decode_bounded(c, cw + e) == cw


def test_decode_rejects_beyond_radius(rng):
    c = bch_build(5, 5)
    # distance t+1 from a codeword is rejected unless it falls into some
    # other ball; for weight t+1 errors rejection dominates
    rejected = 0
    for _ in range(200):
        cw = random_codeword(c, rng)
        e = random_weight_vector(GF2, c.n, c.t + 1, rng)
        out = decode_bounded(c, cw + e)
        assert out != cw + e
        if out is None:
            rejected += 1
        else:
            assert is_codeword(c, out)
            assert (out - (cw + e)).weight() <= c.t
    assert rejected > 150


def _naive_syndromes(f, alpha, v, t2):
    """S_i = sum of alpha^(i*j) over the set positions j of v, i = 1..2t."""
    support = [j for j, e in enumerate(v) if e]
    out = []
    for i in range(1, t2 + 1):
        s = 0
        for j in support:
            s = f.add(s, f.pow(alpha, i * j))
        out.append(s)
    return out


DECODE_PIN_CODES = [(4, 3), (5, 5), (6, 7), (7, 13), (8, 26)]


def _naive_chien(f, alpha, sigma, n):
    """sigma(alpha^-j) for j = 0..n-1, one power per term."""
    out = []
    for j in range(n):
        acc = 0
        for l, c in enumerate(sigma):
            acc = f.add(acc, f.mul(c, f.pow(alpha, -j * l)))
        out.append(acc)
    return out


def _alpha(m):
    f = field(2, m)
    return f, exp_log_tables(f)[0][1]


@pytest.mark.parametrize("m,t", [(4, 3), (6, 7), (8, 26)])
def test_bch_syndromes_and_chien_values_match_naive_evaluation(rng, m, t):
    c = bch_build(m, t)
    f, alpha = _alpha(m)
    n = c.n
    V = c._syndrome_matrix
    assert V.to_grid() == [[f.pow(alpha, i * j) for j in range(n)] for i in range(1, 2 * t + 1)]
    assert [list(col) for col in c._chien_columns] == [
        [f.pow(alpha, -j * l) for j in range(n)] for l in range(t + 1)]
    for _ in range(4):
        v = random_vector(GF2, n, rng)
        lifted = FieldVector(f, v.entries)
        assert list(V @ lifted) == _naive_syndromes(f, alpha, v, 2 * t)
        sigma = random_vector(f, t + 1, rng).entries
        assert list(_chien_values(c, sigma)) == _naive_chien(f, alpha, sigma, n)


@pytest.mark.parametrize("m,t", DECODE_PIN_CODES)
def test_chien_values_match_naive_evaluation_at_every_length(m, t):
    """The translate Chien search on random sigma of every length 1..t+1,
    zero coefficients included."""
    rng = np.random.default_rng(300 + m)
    c = bch_build(m, t)
    f, alpha = _alpha(m)
    for size in range(1, t + 2):
        for _ in range(2):
            sigma = [int(x) for x in rng.integers(0, f.q, size)]
            sigma[int(rng.integers(0, size))] = 0
            assert list(_chien_values(c, sigma)) == _naive_chien(f, alpha, sigma, c.n)


def _full_berlekamp_massey(f, synd):
    """Massey's algorithm over every step, in FieldSpec arithmetic:
    (sigma, L, the discrepancy of each step)."""
    sigma, prev, L, shift, b = [1], [1], 0, 1, 1
    deltas = []
    for i, delta in enumerate(synd):
        for j in range(1, min(L, len(sigma) - 1) + 1):
            delta = f.add(delta, f.mul(sigma[j], synd[i - j]))
        deltas.append(delta)
        if delta == 0:
            shift += 1
            continue
        coef = f.div(delta, b)
        update = sigma + [0] * (len(prev) + shift - len(sigma))
        for j, c in enumerate(prev):
            update[j + shift] = f.add(update[j + shift], f.mul(coef, c))
        if 2 * L <= i:
            prev, L, b, shift = sigma, i + 1 - L, delta, 1
        else:
            shift += 1
        sigma = update
    return sigma, L, deltas


@pytest.mark.parametrize("m,t", [(2, 1), (3, 1), (4, 3), (5, 5), (6, 7), (7, 13), (8, 26),
                                 (8, 40)])
def test_berlekamp_massey_odd_steps_have_zero_discrepancy(m, t):
    """The decoder skips the odd steps of Massey's algorithm.  On binary
    syndromes their discrepancy is 0, and the full loop gives the same
    (sigma, L): words at every distance 0..t from a codeword, at t+1..t+3
    and uniform."""
    rng = np.random.default_rng(m)
    c = bch_build(m, t)
    f, alpha = _alpha(m)
    words = [random_codeword(c, rng) + random_weight_vector(GF2, c.n, min(w, c.n), rng)
             for w in range(c.t + 4) for _ in range(2)]
    words += [random_vector(GF2, c.n, rng) for _ in range(6)]
    for v in words:
        synd = _naive_syndromes(f, alpha, v, 2 * t)
        sigma, L, deltas = _full_berlekamp_massey(f, synd)
        assert not any(deltas[1::2])
        assert _berlekamp_massey(bytes(synd), f) == (sigma, L)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(4, 3), (5, 5)]), st.integers(0, 2**32 - 1))
def test_berlekamp_massey_matches_full_loop_on_seeded_words(mt, seed):
    """(sigma, L), the length of sigma included, on seeded binary words of
    bch:15:3 and bch:31:5 at every distance from a codeword."""
    m, t = mt
    rng = np.random.default_rng(seed)
    c = bch_build(m, t)
    f, alpha = _alpha(m)
    v = random_codeword(c, rng) + random_weight_vector(GF2, c.n, int(rng.integers(0, c.n + 1)), rng)
    synd = _naive_syndromes(f, alpha, v, 2 * t)
    sigma, L, _ = _full_berlekamp_massey(f, synd)
    assert _berlekamp_massey(bytes(synd), f) == (sigma, L)


# sha256 of decode_bounded's outputs on the words of _pin_words, recorded
# with the decoder that indexed log/antilog tables element by element
DECODE_PIN = "0649fdbc8ed7d98455fdb97d0a4f67854b6745938cfd6c896d81cf2c70d40d87"


def _pin_words(c, rng):
    """Seeded words: within the radius, at distance t+1..t+3 from a
    codeword, and uniform."""
    for _ in range(20):
        w = int(rng.integers(0, c.t + 1))
        yield random_codeword(c, rng) + random_weight_vector(GF2, c.n, w, rng)
    for w in (c.t + 1, c.t + 2, c.t + 3):
        for _ in range(10):
            yield random_codeword(c, rng) + random_weight_vector(GF2, c.n, w, rng)
    for _ in range(20):
        yield random_vector(GF2, c.n, rng)


@pytest.mark.parametrize("m,t", DECODE_PIN_CODES)
def test_syndrome_tables_match_naive_evaluation(m, t):
    """The table syndromes are S_1..S_2t, one byte each, on uniform words,
    the all-ones word and the single-bit word at every position (n is
    never a multiple of 4, so the highest chunk is always partial)."""
    rng = np.random.default_rng(100 + m)
    c = bch_build(m, t)
    f, alpha = _alpha(m)
    n = c.n
    assert n % 4 and len(c._syndrome_tables) == (n + 3) // 4
    words = [random_vector(GF2, n, rng) for _ in range(10)]
    words.append(FieldVector(GF2, n=n, bits=(1 << n) - 1))
    words += [FieldVector.from_support(GF2, n, [j]) for j in range(n)]
    for v in words:
        synd = _bch_syndromes(c, v.bits)
        assert list(synd.to_bytes(2 * t, "little")) == _naive_syndromes(f, alpha, v, 2 * t)


@pytest.mark.parametrize("m,t", DECODE_PIN_CODES)
def test_syndrome_codeword_check_matches_is_codeword(m, t):
    """A word of the narrow-sense BCH code is a codeword exactly when its
    syndromes S_1..S_2t vanish: codewords, codewords plus 1..t+3 errors,
    uniform words."""
    rng = np.random.default_rng(200 + m)
    c = bch_build(m, t)
    words = [random_codeword(c, rng) for _ in range(10)]
    words += [random_codeword(c, rng) + random_weight_vector(GF2, c.n, w, rng)
              for w in range(1, t + 4) for _ in range(3)]
    words += [random_vector(GF2, c.n, rng) for _ in range(20)]
    checks = [not _bch_syndromes(c, v.bits) for v in words]
    assert checks == [is_codeword(c, v) for v in words]
    # 1..t+3 <= 2t errors leave a word of a code of distance 2t+1
    assert all(checks[:10]) and not any(checks[10:10 + 3 * (t + 3)])


def test_decode_bounded_pinned_with_both_reject_paths():
    rng = np.random.default_rng(2014)
    digest = hashlib.sha256()
    rejects = {"locator-degree": 0, "root-count": 0, "not-codeword": 0}
    for m, t in DECODE_PIN_CODES:
        c = bch_build(m, t)
        f, alpha = _alpha(m)
        for v in _pin_words(c, rng):
            out = decode_bounded(c, v)
            digest.update(b"-" if out is None else out.bits.to_bytes((c.n + 7) // 8, "little"))
            if out is not None:
                assert is_codeword(c, out) and (out - v).weight() <= t
                continue
            # which check refused v, by the naive syndromes and Chien values
            sigma, L = _berlekamp_massey(bytes(_naive_syndromes(f, alpha, v, 2 * t)), f)
            if L > t or len(sigma) - 1 > t:
                rejects["locator-degree"] += 1
            elif _naive_chien(f, alpha, sigma, c.n).count(0) != L:
                rejects["root-count"] += 1
            else:
                rejects["not-codeword"] += 1
    assert digest.hexdigest() == DECODE_PIN
    assert rejects["locator-degree"] and rejects["root-count"], rejects


def test_decoder_agreement_with_exhaustive(rng):
    c = bch_build(4, 2)  # (15, 7), n small enough for the exhaustive scan
    for _ in range(1000):
        v = random_vector(GF2, c.n, rng)
        alg = decode_bounded(c, v)
        exh = _decode_exhaustive(c, v)
        if alg is None:
            assert exh is None
        else:
            # within-radius decodings are unique, so the decoders must agree
            assert exh == alg


def test_random_codeword_uniform(rng):
    c = bch_build(3, 1)
    counts = {}
    draws = 100_000
    for _ in range(draws):
        cw = random_codeword(c, rng)
        counts[cw.bits] = counts.get(cw.bits, 0) + 1
    assert len(counts) == 16
    expected = draws / 16
    chi2 = sum((cnt - expected) ** 2 / expected for cnt in counts.values())
    assert chi2 < 37.7  # chi-square 15 dof at the 0.1% tail


def test_is_codeword_examples(rng):
    c = bch_build(5, 5)
    assert is_codeword(c, FieldVector.zeros(GF2, 31))
    assert is_codeword(c, random_codeword(c, rng))
    hits = sum(is_codeword(c, random_vector(GF2, 31, rng)) for _ in range(50_000))
    expected = 50_000 * 2 ** (c.k - c.n)
    assert abs(hits - expected) < 5 * np.sqrt(expected)


def test_generic_code_exhaustive_decoding(rng):
    g5 = field(5)
    # repetition-style code over GF(5): n=6, k=2, d=3
    G = FieldMatrix(g5, [[1, 0], [1, 0], [1, 0], [0, 1], [0, 1], [0, 1]])
    c = generic_code(G, 3)
    assert (c.n, c.k, c.decoder) == (6, 2, "exhaustive-bounded")
    for _ in range(100):
        cw = random_codeword(c, rng)
        e = random_weight_vector(g5, 6, int(rng.integers(0, 2)), rng)
        assert decode_bounded(c, cw + e) == cw


def test_generic_code_pattern_budget(rng):
    # the pattern count, not n, bounds exhaustive decoding: a 30-position
    # code with t = 0 decodes, while the GF(32) (20, 8, 13) code of
    # acceptance c10 (t = 6, about 3.5e13 patterns) refuses a non-codeword
    # before scanning and still returns a codeword as it is
    c = generic_code(FieldMatrix.identity(GF2, 30), 1)
    assert decode_bounded(c, FieldVector.zeros(GF2, 30)) == FieldVector.zeros(GF2, 30)
    g32 = field(2, 5)
    G = FieldMatrix(g32, [[g32.pow(i + 1, j) for j in range(8)] for i in range(20)])
    c10 = generic_code(G, 13)
    start = time.perf_counter()
    with pytest.raises(ResourceCapError, match="patterns"):
        decode_bounded(c10, random_codeword(c10, rng) + random_weight_vector(g32, 20, 7, rng))
    assert time.perf_counter() - start < 1
    cw = random_codeword(c10, rng)
    assert decode_bounded(c10, cw) == cw


def test_code_descriptor_round_trip():
    c = parse_code_descriptor("bch:31:5")
    assert (c.n, c.k) == (31, 11)
    assert code_descriptor(c) == "bch:31:5"
    g = generic_code(FieldMatrix.identity(GF2, 4), 1)
    desc = code_descriptor(g)
    c2 = parse_code_descriptor(desc)
    assert c2.G == g.G and c2.d == g.d


@pytest.mark.parametrize("bad", [
    "bch:32:5", "rs:31:5", "bch:31",
    # n and t are canonical ASCII decimals: int() reads each of these as 31 or 5
    "bch: +3_1:5", "bch:\u0663\u0661:5", "bch:031:5", "bch:31:+5", "bch:31:5 ", "bch:31:05",
    "bch:31:\uff15"])
def test_bad_descriptors(bad):
    with pytest.raises(ValueError):
        parse_code_descriptor(bad)


def test_shared_all_ones_codeword():
    """The all-ones word is a codeword of bch_build(m, t) for m = 4..8 and
    every valid t: it is (x^n - 1)/(x - 1), whose roots are every non-zero
    field element but 1, and the narrow-sense generator's roots
    alpha .. alpha^2t never include 1.  A bit permutation fixes the word,
    so two bit-permuted copies of a code share it and the concatenated
    generator has rank at most 2k - 1."""
    for m in range(4, 9):
        n, t = 2 ** m - 1, 1
        ones = FieldVector(GF2, n=n, bits=(1 << n) - 1)
        while True:
            try:
                c = bch_build.__wrapped__(m, t)  # uncached: up to 127 codes per m
            except ValueError:
                break
            assert is_codeword(c, ones), (m, t)
            t += 1
        assert t > n // 2  # every t whose generator degree stays below n was built
