"""Whole attacks against a brute force that shares no code with the attack
engine: no syndrome scan, no reduction, no solve.

The oracle enumerates every message pair (m1, m2) of the two generator
blocks with FieldSpec arithmetic on plain lists.  A pair leaves the error
pattern e = r - (G1 m1 - G2 m2), r = f1 - f2, and the pairs that leave the
same e are its coset.  An attack answers with the first e of weight <= b
in canonical order (weight ascending, supports lexicographic, values in
field order, as itertools walks them) whose coset holds a pair:

* with digests, one whose codewords ref_G1 m1 and ref_G2 m2 hash to them;
* without, the particular solution x = (m1, -m2) of (G1 | G2) x = r - e,
  the one that is 0 at every free column.  A column is free when it is a
  combination of the columns before it, which is when some pair with
  G1 m1 = G2 m2 has its last non-zero entry of x there.

Every code is tiny, q^(k1 + k2) <= 2^16 pairs.
"""

import dataclasses
from functools import reduce
from itertools import combinations, product

import numpy as np
import pytest

from fuzzylink.attacks import (
    AttackOutcome,
    affine_reduction_attack,
    generalized_attack,
    linear_decodability_attack,
    modified_decodability_attack,
)
from fuzzylink.codes import bch_build, generic_code
from fuzzylink.commitment import codeword_digest, enroll
from fuzzylink.fields import GF2, field
from fuzzylink.linalg import FieldMatrix, FieldVector, random_vector, random_weight_vector
from fuzzylink.transforms import TransformDescriptor, random_transform


def _mat_vec(f, G, m):
    return [reduce(f.add, (f.mul(g, x) for g, x in zip(row, m)), 0) for row in G]


def _mat_mul(f, A, B):
    return [_mat_vec(f, [list(col) for col in zip(*B)], row) for row in A]


def _minus(f, a, b):
    return [f.sub(x, y) for x, y in zip(a, b)]


class _Brute:
    """Every message pair of the blocks G1, G2 (lists of rows) against the
    commitments f1, f2 (lists), grouped by the error pattern it leaves."""

    def __init__(self, f, G1, G2, f1, f2, b):
        q, n = f.q, len(f1)
        self.f, self.G1, self.G2, self.f1, self.f2 = f, G1, G2, f1, f2
        self.m1s = [list(m) for m in product(range(q), repeat=len(G1[0]))]
        self.m2s = [list(m) for m in product(range(q), repeat=len(G2[0]))]
        add = [[f.add(x, y) for y in range(q)] for x in range(q)]
        r = tuple(_minus(f, f1, f2))
        heads = [_minus(f, r, _mat_vec(f, G1, m)) for m in self.m1s]
        tails = [_mat_vec(f, G2, m) for m in self.m2s]
        self.cosets = {}  # e of weight <= b -> its pairs (i1, i2)
        kernel = []       # the pairs with G1 m1 = G2 m2, which leave e = r
        for i1, head in enumerate(heads):
            for i2, tail in enumerate(tails):
                e = tuple(add[x][y] for x, y in zip(head, tail))
                if e == r:
                    kernel.append((i1, i2))
                if n - e.count(0) <= b:
                    self.cosets.setdefault(e, []).append((i1, i2))
        image = len(heads) * len(tails) // len(kernel)  # q^rank offsets G1 m1 - G2 m2
        self.rank = 0
        while q ** self.rank < image:
            self.rank += 1
        assert q ** self.rank == image
        self.free = {max(j for j, v in enumerate(x) if v)
                     for x in map(self._x, kernel) if any(x)}

    def _x(self, pair):
        i1, i2 = pair
        return self.m1s[i1] + [self.f.neg(v) for v in self.m2s[i2]]

    def outcome(self, b, hashes=None, refs=None):
        """Every AttackOutcome field but ``elapsed``; with hashes, the
        codewords are hashed as refs[0] m1 and refs[1] m2."""
        f, n = self.f, len(self.f1)
        if hashes is not None:
            digests = [[codeword_digest(FieldVector(f, _mat_vec(f, R, m))) for m in ms]
                       for R, ms in zip(refs, (self.m1s, self.m2s))]
        walk = ((support, values) for w in range(b + 1)
                for support in combinations(range(n), w)
                for values in product(range(1, f.q), repeat=w))
        scanned = 0
        for support, values in walk:
            scanned += 1
            e = [0] * n
            for j, v in zip(support, values):
                e[j] = v
            coset = self.cosets.get(tuple(e), [])
            if hashes is None:
                found = [p for p in coset if not any(self._x(p)[j] for j in self.free)]
            else:
                found = [(i1, i2) for i1, i2 in coset
                         if digests[0][i1] == hashes[0] and digests[1][i2] == hashes[1]]
            if found:
                i1, i2 = found[0]
                c1 = _minus(f, self.f1, _mat_vec(f, self.G1, self.m1s[i1]))
                c2 = _minus(f, self.f2, _mat_vec(f, self.G2, self.m2s[i2]))
                return dict(related=True, candidates=(FieldVector(f, c1), FieldVector(f, c2)),
                            all_solutions=len(coset), hash_verified=hashes is not None,
                            error_pattern=FieldVector(f, e), patterns_scanned=scanned,
                            gtilde_rank=self.rank, degenerate=self.rank == n)
        return dict(related=False, candidates=None, all_solutions=0, hash_verified=False,
                    error_pattern=None, patterns_scanned=scanned,
                    gtilde_rank=self.rank, degenerate=self.rank == n)


def _fields_but_elapsed(out):
    return {fl.name: getattr(out, fl.name) for fl in dataclasses.fields(AttackOutcome)
            if fl.name != "elapsed"}


def _pair(code, rng, distance):
    """Two feature vectors: at the given distance, or independent for None."""
    w1 = random_vector(code.field, code.n, rng)
    if distance is None:
        return w1, random_vector(code.field, code.n, rng)
    return w1, w1 + random_weight_vector(code.field, code.n, distance, rng)


def _generic(f, n, k, rng):
    """A random (n, k) code over f of full rank k."""
    while True:
        G = FieldMatrix(f, [[int(x) for x in rng.integers(0, f.q, size=k)] for _ in range(n)])
        try:
            return generic_code(G, 1)
        except ValueError:  # rank below k
            continue


# (b, distance) per pair: related pairs at every weight up to b, and
# independent ones (None), which a b this small rarely links
PLAN = [(0, 0), (1, 1), (2, 0), (2, 2), (3, 3), (3, 1), (1, None), (2, None), (3, None)]


@pytest.mark.parametrize("m,t,kind,pairs", [
    (4, 3, "bit-permutation", PLAN),
    (4, 3, "identity", PLAN[1::2]),
    (4, 2, "bit-permutation", PLAN[2:5] + PLAN[-2:]),
])
def test_modified_attack_matches_brute_force(m, t, kind, pairs):
    """bit-permutation and identity records on bch:15:3 (k = 5) and
    bch:15:2 (k = 7): blocks T_i^-1 G and commitments T_i^-1 f_i, hashed as
    G m_i."""
    rng = np.random.default_rng(1700 + 10 * t)
    code = bch_build(m, t)
    G, n = code.G.to_grid(), code.n
    related = set()
    for b, distance in pairs:
        w1, w2 = _pair(code, rng, distance)
        ts = [random_transform(kind, n, GF2, rng) for _ in range(2)]
        recs = [enroll(w, code, T, with_hash=True, rng=rng) for w, T in zip((w1, w2), ts)]
        blocks, commitments = [], []
        for rec, T in zip(recs, ts):
            perm = T.permutation or range(n)
            block, f_inv = [None] * n, [None] * n
            for i, p in enumerate(perm):  # T w has entry i = w[perm[i]]
                block[p], f_inv[p] = G[i], rec.commitment.entries[i]
            blocks.append(block)
            commitments.append(f_inv)
        brute = _Brute(GF2, *blocks, *commitments, b)
        hashes = (recs[0].codeword_hash, recs[1].codeword_hash)
        for h in (None, hashes):
            out = modified_decodability_attack(code, *((r.commitment, T) for r, T in zip(recs, ts)),
                                               b, hashes=h)
            assert _fields_but_elapsed(out) == brute.outcome(b, h, (G, G))
            related.add(out.related)
    assert related == {True, False}


FIELDS = [(3, 1, 8, 4), (2, 2, 7, 3), (5, 1, 7, 3)]  # GF(3), GF(4), GF(5): (p, m, n, k)


@pytest.mark.parametrize("p,m,n,k", FIELDS)
def test_generalized_attack_matches_brute_force(p, m, n, k):
    """Two different codes, and one code twice, with commitments G_i m_i + w_i."""
    f = field(p, m)
    rng = np.random.default_rng(1800 + f.q)
    c1, c2 = _generic(f, n, k, rng), _generic(f, n, k, rng)
    related = set()
    for b, distance in PLAN[:5] + PLAN[6:8]:
        for code2 in (c2, c1):
            w1, w2 = _pair(c1, rng, distance)
            blocks = [c1.G.to_grid(), code2.G.to_grid()]
            ms = [[int(x) for x in rng.integers(0, f.q, size=k)] for _ in range(2)]
            words = [_mat_vec(f, G, msg) for G, msg in zip(blocks, ms)]
            fs = [FieldVector(f, c) + w for c, w in zip(words, (w1, w2))]
            brute = _Brute(f, *blocks, *(list(v.entries) for v in fs), b)
            hashes = tuple(codeword_digest(FieldVector(f, c)) for c in words)
            for h in (None, hashes):
                out = generalized_attack(c1.G, code2.G, *fs, b, hashes=h)
                assert _fields_but_elapsed(out) == brute.outcome(b, h, blocks)
                related.add(out.related)
    assert related == {True, False}


@pytest.mark.parametrize("p,m,n,k", FIELDS)
def test_affine_reduction_attack_matches_brute_force(p, m, n, k):
    """sigma_i = a_i x + c_i: blocks G, G, commitments (f_i - c_i) / a_i
    entry by entry, hashed as a_i G m_i."""
    f = field(p, m)
    rng = np.random.default_rng(1900 + f.q)
    code = _generic(f, n, k, rng)
    G = code.G.to_grid()
    related = set()
    for b, distance in PLAN[:5] + PLAN[6:8]:
        w1, w2 = _pair(code, rng, distance)
        affine = [(int(a), int(c)) for a, c in zip(rng.integers(1, f.q, size=2),
                                                   rng.integers(0, f.q, size=2))]
        ts = [TransformDescriptor("field-permutation", n, f,
                                  sigma=tuple(f.add(f.mul(a, x), c) for x in range(f.q)))
              for a, c in affine]
        recs = [enroll(w, code, T, with_hash=True, rng=rng) for w, T in zip((w1, w2), ts)]
        commitments = [[f.div(f.sub(x, c), a) for x in rec.commitment.entries]
                       for rec, (a, c) in zip(recs, affine)]
        refs = [[[f.mul(a, g) for g in row] for row in G] for a, _ in affine]
        brute = _Brute(f, G, G, *commitments, b)
        hashes = (recs[0].codeword_hash, recs[1].codeword_hash)
        for h in (None, hashes):
            out = affine_reduction_attack(code, *((r.commitment, T) for r, T in zip(recs, ts)),
                                          b, hashes=h)
            assert _fields_but_elapsed(out) == brute.outcome(b, h, refs)
            related.add(out.related)
    assert related == {True, False}


@pytest.mark.parametrize("p,m,n,k", [(2, 1, 15, 5)] + FIELDS)
def test_linear_attack_matches_brute_force(p, m, n, k):
    """Monomial Q, R (a permutation with non-zero scales): blocks Q G, R G,
    commitments Q f1, R f2, hashed as G m_i.  The records are planted as
    f1 = Q^-1 (G m1 + w1) and f2 = R^-1 (G m2 + w2)."""
    f = field(p, m)
    rng = np.random.default_rng(2000 + f.q)
    code = bch_build(4, 3) if f.q == 2 else _generic(f, n, k, rng)
    G = code.G.to_grid()
    related = set()
    for b, distance in PLAN[:5] + PLAN[6:8]:
        w1, w2 = _pair(code, rng, distance)
        grids, planted, words = [], [], []
        for w in (w1, w2):
            perm = [int(i) for i in rng.permutation(n)]
            scale = [int(s) for s in rng.integers(1, f.q, size=n)]
            # (Q v)_i = scale_i v_perm[i], so (Q^-1 u)_perm[i] = u_i / scale_i
            grids.append([[scale[i] if j == perm[i] else 0 for j in range(n)] for i in range(n)])
            word = _mat_vec(f, G, [int(x) for x in rng.integers(0, f.q, size=k)])
            u = [f.add(x, y) for x, y in zip(word, w.entries)]
            v = [0] * n
            for i in range(n):
                v[perm[i]] = f.div(u[i], scale[i])
            planted.append(v)
            words.append(word)
        brute = _Brute(f, *(_mat_mul(f, Q, G) for Q in grids),
                       *(_mat_vec(f, Q, v) for Q, v in zip(grids, planted)), b)
        hashes = tuple(codeword_digest(FieldVector(f, c)) for c in words)
        Q, R = (FieldMatrix(f, grid) for grid in grids)
        for h in (None, hashes):
            out = linear_decodability_attack(code, *(FieldVector(f, v) for v in planted), Q, R,
                                             b, hashes=h)
            assert _fields_but_elapsed(out) == brute.outcome(b, h, (G, G))
            related.add(out.related)
    assert related == {True, False}

