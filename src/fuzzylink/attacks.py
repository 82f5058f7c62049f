"""Record-linkage attacks on fuzzy commitments.

All of them reduce to one question: is the offset of two commitments
within a small Hamming distance of the code spanned by the concatenated
generator blocks?  The engine answers it by enumerating candidate error
patterns in canonical order (weight ascending, support lexicographic,
non-zero values in field order) and testing syndromes incrementally:
the syndrome of a weight-w pattern is a combination of w precomputed
column syndromes, so no full matrix-vector product is ever taken per
pattern.  The tail of each pattern is looked up, not looped over, by one
of two scans chosen by q.  Over GF(2), weight 1 takes its position from a
hash map of column syndromes and weight 2 walks that map for the pairs
whose syndromes XOR to s.  Weights >= 3 probe a numpy array of the
pair syndromes cols[i] ^ cols[j], folded to 32 bits and built once per
scan over the pair positions, which depend only on n and are kept per
length: class 3 in one probe, a class w >= 4 in one probe per head of
w - 4 positions, and each member is completed by the pairs of its fold,
checked on the exact syndromes.  Classes of weight >= 6 are first ruled
out by a meet-in-the-middle existence check.  Over every other field
the last position and its value come from one table of the words
-v*cols[j], v != 0, which the transpose of H~ keeps, so each pattern
costs -s plus the sum of its head's column multiples and one
lookup, on packed words over every field (added by XOR in characteristic
2).  Both preserve first-hit order and indices exactly (differentially
tested against the naive itertools scan that defines the order).

The linear algebra is the reduction of [G~ | I_n], G~ = (G1 | G2): rows
whose G~ part vanishes form the annihilator H~ the scan tests against.
The particular solution x of G~ x = r - e for a hit e comes from the pivot
rows, left in echelon form (E | u) with E = u G~, over every field: x is
one back-substitution, in descending pivot order x_c = <u, r - e> minus
E x over the columns above c, one dot product per row.  The coset has
q^(cols - rank) solutions; its kernel is built only when digests filter
it.  The second candidate is read off the first: G1 m1 - G2 m2 = r - e
gives f2 - G2 m2 = (f1 - G1 m1) - e.  :func:`attack_records` strips
each record's transform off its commitment, one step per transform kind,
so that its block is G with its rows permuted or not, and reads the
reduction off the one of [G | I_n] that G keeps
(:meth:`~fuzzylink.linalg.RowReduction.doubled`) where that is faster.
The blocks of :func:`generalized_attack` and
:func:`linear_decodability_attack` are reduced afresh unless equal.

Every attack ends in one loop over the solutions of a hit.  With codeword
digests that loop runs over the whole coset and accepts a solution only
when both re-encoded codewords hash to the records' digests; each digest
names its algorithm by its length (sha1, sha256 and sha512 differ in
size).  Without digests it runs over the particular solution alone and
accepts it unchecked.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, replace
from functools import lru_cache, reduce
from itertools import combinations, product, repeat
from math import comb
from operator import xor
from time import perf_counter

import numpy as np

from .codes import LinearCode, decode_bounded
from .commitment import HASH_BY_SIZE, codeword_digest
from .fields import FieldSpec
from .linalg import (
    AffineSolutions,
    FieldMatrix,
    FieldVector,
    concat_cols,
    permuted_rows,
    rank,
    word_arithmetic,
)
from .transforms import apply_inverse, detect_affine

SOLUTION_ENUM_CAP = 1 << 16
PATTERN_BUDGET = 10 ** 9


class ResourceCapError(RuntimeError):
    """Operation would exceed a configured enumeration cap."""


def pattern_count(q: int, n: int, b: int) -> int:
    """Number of vectors in F^n of Hamming weight <= b."""
    return sum(comb(n, j) * (q - 1) ** j for j in range(min(b, n) + 1))


def check_pattern_budget(q: int, n: int, b: int, force: bool = False) -> None:
    """Refuse a scan of weight <= b over GF(q)^n that could test more than
    PATTERN_BUDGET patterns, unless forced."""
    total = pattern_count(q, n, b)
    if total > PATTERN_BUDGET and not force:
        raise ResourceCapError(
            f"b={b} scans up to {total} patterns "
            f"(> {PATTERN_BUDGET}); pass force to run it anyway")


# ---------------------------------------------------------------------------
# canonical pattern order
# ---------------------------------------------------------------------------

def _comb_rank(support, n: int) -> int:
    """Lexicographic rank of an ascending index combination.  The
    combinations skipped at position i, one C(n-1-v, w-1-i) per value v
    between the previous index and s_i, sum by the hockey-stick identity
    to C(n-1-prev, w-i) - C(n-s_i, w-i)."""
    w = len(support)
    r = 0
    prev = -1
    for i, s_i in enumerate(support):
        r += comb(n - 1 - prev, w - i) - comb(n - s_i, w - i)
        prev = s_i
    return r


def _comb_unrank(r: int, n: int, w: int):
    out = []
    prev = -1
    for i in range(w):
        for v in range(prev + 1, n):
            c = comb(n - 1 - v, w - 1 - i)
            if r < c:
                out.append(v)
                prev = v
                break
            r -= c
    return tuple(out)


def pattern_index(q: int, n: int, support, values) -> int:
    """Position of the pattern (support, values) in canonical order (see
    the reference branch of :func:`scan_syndrome_hits`)."""
    vrank = 0
    for v in values:
        vrank = vrank * (q - 1) + v - 1
    w = len(support)
    return pattern_count(q, n, w - 1) + _comb_rank(support, n) * (q - 1) ** w + vrank


def pattern_at(q: int, n: int, index: int):
    """The (support, values) pair at position index of canonical order;
    the inverse of :func:`pattern_index`."""
    if index < 0:
        raise IndexError(index)
    rest = index
    for w in range(n + 1):
        vcount = (q - 1) ** w
        size = comb(n, w) * vcount
        if rest < size:
            break
        rest -= size
    else:
        raise IndexError(index)
    support = _comb_unrank(rest // vcount, n, w)
    rest %= vcount
    values = []
    for _ in range(w):
        rest, digit = divmod(rest, q - 1)
        values.append(digit + 1)
    return support, tuple(reversed(values))


@dataclass(frozen=True)
class Hit:
    """A pattern accepted by the syndrome test, with its enumeration index."""

    support: tuple
    values: tuple
    index: int

    def pattern(self, field: FieldSpec, n: int) -> FieldVector:
        return FieldVector.from_support(field, n, self.support, self.values)


# ---------------------------------------------------------------------------
# syndrome scan engine
# ---------------------------------------------------------------------------

def _mitm_weight_exists(cols, s: int, n: int, w: int) -> bool:
    """Can any XOR of w distinct columns equal s?  A match with overlapping
    index sets implies a lower-weight hit, so "no" is always conclusive
    while a spurious "yes" merely costs an exact scan of the class.  The
    scan asks only for w >= 6: its left set has C(n, 3) entries there, and
    for w = 4 and 5 the check would cost as much as the scan of the class
    it guards."""
    a = min(w // 2, 3)
    left = set()
    for combo in combinations(range(n), a):
        acc = 0
        for j in combo:
            acc ^= cols[j]
        left.add(acc)
    for combo in combinations(range(n), w - a):
        acc = s
        for j in combo:
            acc ^= cols[j]
        if acc in left:
            return True
    return False


def _pairs_to(by_val, cols, t: int, n: int):
    """The pairs k < l with cols[k] ^ cols[l] = t, in lex order: k in
    ascending order, l from the column map of the values t ^ cols[k]."""
    get = by_val.get
    for k in range(n - 1):
        lst = get(t ^ cols[k])
        if lst is not None:
            for j in lst[bisect_right(lst, k):]:
                yield k, j


def _fold(x: int) -> int:
    """The XOR of the 32-bit pieces of x.  The fold is linear, so a sum of
    columns equal to t has the fold of t: folding never loses a match."""
    acc = 0
    while x:
        acc ^= x & 0xFFFFFFFF
        x >>= 32
    return acc


@lru_cache(maxsize=4)
def _pair_index(n: int):
    """The pairs k < l of n positions in lexicographic order, as read-only
    intp arrays, which depend only on n and are kept for the last few
    lengths: positions i = 0 .. n, the index starts[i] of the first pair
    whose first position is i (starts[n] is the pair count, returned as an
    int), and each pair's first and second position."""
    i = np.arange(n + 1, dtype=np.intp)
    starts = i * (2 * n - 1 - i) // 2
    count = int(starts[n])
    first = np.repeat(i[:n], n - 1 - i[:n])
    second = np.arange(count, dtype=np.intp) - starts[first] + first + 1
    for a in (i, starts, first, second):
        a.flags.writeable = False
    return i, starts, count, first, second


def _scan_gf2(cols, s: int, n: int, b: int):
    """Yield hit supports in canonical order (values are implicitly all
    ones over GF(2)).  Class 1 looks s up in a map of column syndromes and
    class 2 walks the pairs whose syndromes XOR to s through that map.

    On entering class 3 the scan builds, in numpy, the folds (:func:`_fold`)
    of the pair syndromes cols[k] ^ cols[l], k < l, in lexicographic pair
    order, their keys fold * C(n, 2) + pair index, sorted, and a boolean
    screen indexed by a fold's low bits.  Class 3 is then one probe, of the
    folds of s ^ cols[a] for every a, and a class w >= 4 one probe per head
    of w - 4 positions, of the folds of the head's sum plus each pair
    (a, c) after the head.  A probe that passes the screen finds the pairs
    after its positions that have its fold by two binary searches of the
    keys, in canonical order; such a completion counts when the exact
    syndromes, Python ints, add up to s, which drops fold collisions.  The
    pair positions are kept per length (:func:`_pair_index`); the folds,
    keys and screen live as long as the generator.  Every array that
    indexes another is intp, which numpy indexes by without a cast."""
    if s == 0:
        yield ()
    by_val: dict[int, list[int]] = {}
    for j, cv in enumerate(cols):
        by_val.setdefault(cv, []).append(j)
    if b >= 1:
        yield from ((j,) for j in by_val.get(s, ()))
    if b >= 2:
        yield from _pairs_to(by_val, cols, s, n)
    if b < 3:
        return
    width = max(max(cols), s).bit_length() // 32 + 1  # 32-bit pieces per syndrome
    folds = np.bitwise_xor.reduce(np.frombuffer(
        b"".join(c.to_bytes(4 * width, "little") for c in cols), "<u4").reshape(n, width),
        axis=1).astype(np.intp)
    i, starts, count, first, second = _pair_index(n)
    pairs = folds[first] ^ folds[second]
    keys = pairs * count
    keys += np.arange(count)
    keys.sort()  # by fold, then by pair index
    mask = (1 << count.bit_length() + 4) - 1  # 16 to 32 screen entries per pair
    screen = np.zeros(mask + 1, bool)
    screen[pairs & mask] = True

    def tails(t, probes, *stems):
        """Yield stem + (k, l) for each stem j, the positions stems[.][j],
        and each pair k < l after it whose columns add up to t with the
        stem's, in canonical order; probes[j] is the fold of t plus the
        stem's columns."""
        js = np.flatnonzero(screen[probes & mask])
        base = probes[js] * count
        lo = np.searchsorted(keys, base + starts[stems[-1][js] + 1])
        sizes = np.searchsorted(keys, base + count) - lo
        ends = np.cumsum(sizes)
        p = keys[np.arange(sizes.sum()) + np.repeat(lo - ends + sizes, sizes)] % count
        js = np.repeat(js, sizes)
        for tail in zip(*(x[js].tolist() for x in stems), first[p].tolist(), second[p].tolist()):
            if reduce(xor, map(cols.__getitem__, tail), t) == 0:
                yield tail

    yield from tails(s, _fold(s) ^ folds[:n - 2], i[:n - 2])
    for w in range(4, b + 1):
        if w >= 6 and not _mitm_weight_exists(cols, s, n, w):
            continue
        for head in combinations(range(n - 4), w - 4):
            t = s
            for j in head:
                t ^= cols[j]
            off = starts[head[-1] + 1] if head else 0
            for tail in tails(t, _fold(t) ^ pairs[off:], first[off:], second[off:]):
                yield head + tail


def _scan_multiples(cols: FieldMatrix, s: FieldVector, n: int, b: int):
    """Yield (support, values) hits in canonical order over GF(q), q > 2.

    ``cols`` holds the columns as rows.  Words are packed ints, added by
    the ``add`` of :func:`~fuzzylink.linalg.word_arithmetic` (XOR in
    characteristic 2).  A scan that reaches class 2 reads the table of the
    n(q - 1) words -v*cols[j], v != 0, that ``cols`` keeps
    (:meth:`~fuzzylink.linalg.FieldMatrix.multiples_table`, each word
    mapped to its entry index j*(q - 1) + v - 1): a head support with
    values u completes to a hit at (j, v) exactly when -s plus the head's
    sum of u_i*cols[i] is -v*cols[j].  Every sum therefore starts from -s.
    Class 1 looks up -s itself; classes >= 2 add each multiple of the last
    head position to the sum of the others, after one ``isdisjoint`` call
    has screened all q - 1 of those probes against the table at once.
    Zero and proportional columns repeat keys, which then list all their
    entries.  Hits of one head support are sorted by (last position,
    values) before they are yielded, which is canonical order.  A scan
    that stops at class 1 skips the table, whose size grows with q: each
    column has at most one scalar (:meth:`FieldMatrix.row_scalars`)."""
    f = cols.field
    q = f.q
    add = word_arithmetic(f, s.n).add
    if not s.packed:
        yield (), ()
    if b < 2:
        for j, v in cols.row_scalars(s) if b else ():
            yield (j,), (v,)
        return
    q1 = q - 1
    multiples = cols.row_multiples()
    table = cols.multiples_table()
    keys, get = table.keys(), table.get
    start = (-s).packed

    def indices(found):
        """The ascending entry indices of a table value."""
        return (found,) if isinstance(found, int) else found

    found = get(start)
    for i in indices(found) if found is not None else ():
        yield (i // q1,), (i % q1 + 1,)
    for w in range(2, b + 1):
        for head in combinations(range(n - 1), w - 1):
            # the last head position loops innermost, over its row of multiples
            *outer, j = head
            row = multiples[j][1:]
            lo = (j + 1) * q1
            hits = []
            for prefix in product(range(1, q), repeat=w - 2):
                t = reduce(add, [multiples[i][u] for i, u in zip(outer, prefix)], start)
                if keys.isdisjoint(map(add, repeat(t), row)):
                    continue
                for v, m in enumerate(row, 1):
                    found = get(add(t, m))
                    if found is not None:
                        hits += [(i // q1, prefix + (v, i % q1 + 1))
                                 for i in indices(found) if i >= lo]
            hits.sort()
            for last, values in hits:
                yield head + (last,), values


def scan_syndrome_hits(H: FieldMatrix, s: FieldVector, b: int, *, reference: bool = False):
    """Iterate the patterns e of weight <= b with H e = s, in canonical
    enumeration order, as :class:`Hit` objects carrying their ordinal index.

    The generator is lazy: taking its first element is the first-hit scan,
    continuing it resumes the scan (hash filtering does this), exhausting
    it is the all-hits diagnostic mode.  There are two fast scans, chosen
    by q: over GF(2) the column map and the array of pair syndromes, and
    over every other field the table of column multiples.  With
    ``reference=True`` a naive scan walks every pattern and takes a full
    matrix-vector product for each; its walk defines canonical order
    (weight ascending, supports in lexicographic order, values in field
    order, last position fastest) and its running count the index, so it
    is an independent oracle for both fast scans and :func:`pattern_index`.
    A syndrome whose field or length does not fit H raises ValueError.
    """
    f = H.field
    n = H.cols
    if s.field != f or s.n != H.rows:
        raise ValueError(f"syndrome of length {s.n} over {s.field} does not fit "
                         f"a {H.rows}-row check matrix over {f}")
    if not 0 <= b <= n:
        raise ValueError(f"weight bound {b} out of range for length {n}")
    if reference:
        walk = ((support, values) for w in range(b + 1)
                for support in combinations(range(n), w)
                for values in product(range(1, f.q), repeat=w))
        for index, (support, values) in enumerate(walk):
            hit = Hit(support, values, index)
            if H @ hit.pattern(f, n) == s:
                yield hit
        return
    cols = H.transpose()  # row j is column j of H
    if f.q == 2:
        for support in _scan_gf2(cols.packed_rows, s.bits, n, b):
            ones = (1,) * len(support)
            yield Hit(support, ones, pattern_index(2, n, support, ones))
        return
    for support, values in _scan_multiples(cols, s, n, b):
        yield Hit(support, values, pattern_index(f.q, n, support, values))


# ---------------------------------------------------------------------------
# attacks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AttackOutcome:
    """Result of a linkage attempt on a pair of records."""

    related: bool
    candidates: tuple[FieldVector, FieldVector] | None
    all_solutions: int
    hash_verified: bool
    error_pattern: FieldVector | None
    patterns_scanned: int
    elapsed: float
    gtilde_rank: int
    degenerate: bool

    @property
    def verdict(self) -> str:
        return "related" if self.related else "non-related"


def _attack_core(start, red, k1, encode1, f1, f2, b, hashes, ref_G1, ref_G2,
                 reference_scan=False):
    """The one attack on commitments f1, f2 through the reduction red of
    [G~ | I_n], G~ = (G1 | G2), begun at perf_counter() time start: G1 has
    k1 columns, encode1(m1) is G1 m1, and codewords are hashed as
    ref_G1 m1 and ref_G2 m2."""
    f = f1.field
    n = f1.n
    if f2.field != f or f2.n != n:
        raise ValueError("commitments must share field and length")
    if red.left_kernel.cols != n:
        raise ValueError("generator blocks must have n rows")
    if hashes is not None:
        if len(hashes) != 2:
            raise ValueError(f"expected one digest per record, got {len(hashes)}")
        algs = [HASH_BY_SIZE.get(len(h)) for h in hashes]
        if None in algs:
            raise ValueError("digest length matches no supported hash algorithm")
    r = f1 - f2
    gtilde_rank = red.rank
    Ht = red.left_kernel
    count = f.q ** (red.cols - gtilde_rank)  # solutions per hit, the coset size
    # only digest filtering walks the coset
    kernel = None if hashes is None or count > SOLUTION_ENUM_CAP else red.null_space()

    def outcome(scanned, e=None, m1=None):
        c1 = None if e is None else f1 - encode1(m1)  # the second candidate is c1 - e
        return AttackOutcome(
            related=e is not None,
            candidates=None if e is None else (c1, c1 - e),
            all_solutions=0 if e is None else count,
            hash_verified=e is not None and hashes is not None,
            error_pattern=e,
            patterns_scanned=scanned,
            elapsed=perf_counter() - start,
            gtilde_rank=gtilde_rank,
            degenerate=gtilde_rank == n,
        )

    for hit in scan_syndrome_hits(Ht, Ht @ r, b, reference=reference_scan):
        e = hit.pattern(f, n)
        x = red.particular(r - e)
        if hashes is None:
            solutions = (x,)
        elif kernel is None:
            raise ResourceCapError(f"hash filtering would enumerate {count} solutions")
        else:
            solutions = AffineSolutions(x, kernel)
        for mt in solutions:
            # a solution stores the second message block with a flipped sign
            m1, m2 = mt[:k1], -mt[k1:]
            if hashes is None or (codeword_digest(ref_G1 @ m1, algs[0]) == hashes[0]
                                  and codeword_digest(ref_G2 @ m2, algs[1]) == hashes[1]):
                return outcome(hit.index + 1, e, m1)
        # no coset solution matched the digests: spurious pattern, keep going
    return outcome(pattern_count(f.q, n, b))


def _attack_blocks(G1, G2, f1, f2, b, hashes, ref_G1, ref_G2):
    """The attack on two given generator blocks: equal blocks read
    [G1 | G1 | I_n] off the reduction of [G1 | I_n] that G1 keeps, and
    other blocks reduce [G1 | G2 | I_n] afresh."""
    start = perf_counter()
    red = G1.reduction().doubled() if G1 == G2 else concat_cols(G1, G2).reduction()
    return _attack_core(start, red, G1.cols, G1.__matmul__, f1, f2, b, hashes, ref_G1, ref_G2)


def decodability_attack(f1: FieldVector, f2: FieldVector, code: LinearCode) -> bool:
    """Label two plain commitments as related when their offset decodes."""
    return decode_bounded(code, f1 - f2) is not None


def generalized_attack(G1: FieldMatrix, G2: FieldMatrix, f1: FieldVector,
                       f2: FieldVector, b: int, *, hashes=None) -> AttackOutcome:
    """Linkage/recovery attack on two commitments built over (possibly)
    different codes given by generator blocks G1, G2.

    One reduction of [G~ | I_n], G~ = (G1|G2), yields both the annihilator
    H~ of G~ and a solver for G~ x = r - e.  Error patterns of weight <= b
    are scanned against H~; on a hit the solver gives the particular
    solution, which is split into per-record messages.  Without digests the
    first hit's particular solution is the answer.  With digests (one per
    record; each one's length selects sha1, sha256 or sha512, and any other
    length raises ValueError) the whole solution coset is filtered and the
    scan continues past patterns whose coset contains no digest match, so
    a candidate pair is only ever returned hash-verified.
    """
    return _attack_blocks(G1, G2, f1, f2, b, hashes, G1, G2)


def _strip(G: FieldMatrix, fvec: FieldVector, T):
    """The strip step of one record (commitment fvec, transform T) over G:
    the row map of its generator block (None keeps G), its commitment with
    T stripped, the scale a of the generator a*G that its codeword is hashed
    under, and whether a candidate must go back through sigma^-1."""
    if T.kind == "bit-permutation":
        # P^-1 (P w + G m) = w + (P^-1 G) m
        return T.inverse_permutation(), apply_inverse(T, fvec), 1, False
    if T.kind == "field-permutation":
        f = G.field
        ac = detect_affine(T.sigma, f)
        if ac is None:
            # sigma(w) + G m is attacked as it is
            return None, fvec, 1, True
        # (a w + c*1 + G m - c*1)/a = w + G (m/a); a bijection has a != 0
        a, c = ac
        return None, (fvec - FieldVector(f, (c,) * G.rows)).scale(f.inv(a)), a, False
    return None, fvec, 1, False


def _attack_stripped(start, G, rec1, rec2, steps, b, hashes, reference_scan=False):
    """The attack on records rec1, rec2 over G, begun at perf_counter()
    time start, from their strip steps.  It stands apart from
    :func:`attack_records` so that :func:`affine_reduction_attack` can
    refuse a non-affine record by its step, one detect_affine per record."""
    (map1, f1, a1, back1), (map2, f2, a2, back2) = steps
    if G.field.q == 2 or map1 == map2:
        red = G.reduction().doubled(map1, map2)
    else:
        red = concat_cols(*(G if m is None else permuted_rows(G, m)
                            for m in (map1, map2))).reduction()
    # only digests read the reference generators a_i G
    refs = (G, G) if hashes is None else [G if a == 1 else G.scale(a) for a in (a1, a2)]
    # G1 m1 = P1^-1 (G m1) is G's product gathered by the row map
    out = _attack_core(start, red, G.cols,
                       G.__matmul__ if map1 is None else lambda m1: (G @ m1).gathered(map1),
                       f1, f2, b, hashes, *refs, reference_scan)
    if out.candidates is not None and (back1 or back2):
        c1, c2 = out.candidates
        out = replace(out, candidates=(apply_inverse(rec1[1], c1) if back1 else c1,
                                       apply_inverse(rec2[1], c2) if back2 else c2))
    return out


def attack_records(code, rec1, rec2, b: int, *, hashes=None,
                   reference_scan: bool = False) -> AttackOutcome:
    """Linkage/recovery attack on two records of one code, whatever their
    public transforms.

    rec1/rec2 are (commitment, transform) pairs.  Each record's transform
    is stripped off its commitment, one step per kind:

    - identity: the commitment w + G m itself, block G;
    - bit permutation P: P^-1 f = w + (P^-1 G) m, block G with its rows
      picked by P's inverse;
    - affine field permutation sigma = a*x + c: (f - c*1)/a = w + G (m/a),
      block G, its codeword hashed as (a G)(m/a) = G m;
    - any other sigma: sigma(w) + G m as it is, block G, each candidate
      mapped back through sigma^-1.

    So the candidates are always feature vectors.  The reduction of
    [G1 | G2 | I_n] is read off the one G keeps over GF(2) and whenever the
    row maps are equal (neither record bit-permuted, or one permutation
    twice); over q > 2 unequal maps reduce it afresh, which measured faster
    there (BENCH_pair_readoff.json).  ``reference_scan=True`` scans with the
    naive walk of :func:`scan_syndrome_hits` (the oracle of the fast scan).
    """
    start = perf_counter()
    G = code.G if isinstance(code, LinearCode) else code
    return _attack_stripped(start, G, rec1, rec2, [_strip(G, *rec) for rec in (rec1, rec2)],
                            b, hashes, reference_scan)


def modified_decodability_attack(code, rec1, rec2, b: int, *, hashes=None,
                                 reference_scan: bool = False) -> AttackOutcome:
    """:func:`attack_records` on records whose feature vectors went through
    public record-specific bit permutations (or none); other transforms
    raise ValueError."""
    if any(T.kind not in ("identity", "bit-permutation") for _, T in (rec1, rec2)):
        raise ValueError("records must carry bit-permutation (or identity) transforms")
    return attack_records(code, rec1, rec2, b, hashes=hashes, reference_scan=reference_scan)


def affine_reduction_attack(code, rec1, rec2, b: int, *, hashes=None) -> AttackOutcome:
    """:func:`attack_records` on field-permutation records whose bijections
    sigma_i = a_i*x + c_i are affine; any other record raises ValueError
    (the reduction does not apply)."""
    start = perf_counter()
    G = code.G if isinstance(code, LinearCode) else code
    steps = []
    for rec in (rec1, rec2):
        if rec[1].kind != "field-permutation":
            raise ValueError("affine reduction expects field-permutation records")
        steps.append(_strip(G, *rec))
        if steps[-1][3]:  # only a non-affine sigma maps candidates back
            raise ValueError("transform bijection is not affine; reduction unavailable")
    return _attack_stripped(start, G, rec1, rec2, steps, b, hashes)


def linear_decodability_attack(code, f1: FieldVector, f2: FieldVector,
                               Q: FieldMatrix, R: FieldMatrix, b: int, *,
                               hashes=None) -> AttackOutcome:
    """Attack through a pair of invertible matrices Q, R chosen so that
    Q f1 - R f2 strips the records' transforms: the offset is scanned in
    the code generated by (Q G | R G).

    Candidates come back in the Q-/R-mapped coordinates (for Q = inverse
    of the first transform's linear part they are the feature vectors
    themselves); codeword candidates are mapped back through Q^-1, R^-1,
    i.e. hashed as G m, when digests are checked.
    """
    G = code.G if isinstance(code, LinearCode) else code
    n = G.rows
    if Q.rows != n or Q.cols != n or R.rows != n or R.cols != n:
        raise ValueError("Q and R must be n x n")
    if rank(Q) != n or rank(R) != n:
        raise ValueError("Q and R must be invertible")
    return _attack_blocks(Q @ G, R @ G, Q @ f1, R @ f2, b, hashes, G, G)
