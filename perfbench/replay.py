"""Replay of the attack engine's stages through public functions.

``attacks._attack_core`` is one call, so the benchmark cannot time its
inside without editing it.  Instead the traced run repeats each stage on
the op's own inputs, one span per stage, with the same public functions
the engine calls: ``concat_cols``, ``kernel_basis``, the syndrome product,
``scan_syndrome_hits``, ``solve_affine`` and, for hash-bound records,
``codeword_digest`` over the solution coset.  The replay's verdict, first
accepted hit and candidates are compared with the real outcome, and the
part of the real attack time that the replayed stages do not cover is
reported as ``attacks.unattributed_frac``.
"""

from __future__ import annotations

from dataclasses import dataclass

from fuzzylink import (
    FieldMatrix,
    FieldVector,
    codeword_digest,
    concat_cols,
    detect_affine,
    kernel_basis,
    rank,
    scan_syndrome_hits,
    solve_affine,
)
from fuzzylink.linalg import permuted_rows
from fuzzylink.transforms import apply_inverse

SCAN_CLASSES = (1, 2, 3, 4)


@dataclass
class Replay:
    related: bool
    candidates: tuple | None
    first_index: int | None     # enumeration index of the accepted hit
    hit_weight: int | None
    Ht: FieldMatrix
    s: FieldVector
    hits_tested: int
    spurious_hits: int
    solutions_enumerated: int


def annihilator(Gt: FieldMatrix) -> FieldMatrix:
    """H~ with H~ G~ = 0, computed as the attack engine does."""
    return kernel_basis(Gt.transpose()).transpose()


def split_solution(mt: FieldVector, k1: int, k2: int):
    """(m1, m2) from a solution of G~ x = r - e; the engine stores the
    second message block with a flipped sign."""
    f = mt.field
    if mt.bits is not None:
        return (FieldVector(f, n=k1, bits=mt.bits & ((1 << k1) - 1)),
                FieldVector(f, n=k2, bits=mt.bits >> k1))
    e = mt.entries
    return FieldVector(f, e[:k1]), FieldVector(f, [f.neg(x) for x in e[k1:]])


def _rhs(hit, f, n, r):
    e = hit.pattern(f, n)
    return e, r - e


def _candidates(m1, m2, G1, G2, f1, f2):
    return f1 - (G1 @ m1), f2 - (G2 @ m2)


def replay_core(tr, G1, G2, f1, f2, b, hashes, ref_G, hash_alg="sha256") -> Replay:
    """The stages of the engine's core loop, each in its own span."""
    f, n = f1.field, f1.n
    k1, k2 = G1.cols, G2.cols
    r = tr.call("attacks.offset", f1.__sub__, f2)
    Gt = tr.call("linalg.concat", concat_cols, G1, G2)
    Ht = tr.call("linalg.eliminate", annihilator, Gt)
    s = tr.call("linalg.syndrome", Ht.__matmul__, r)
    hits = scan_syndrome_hits(Ht, s, b)
    tested = spurious = enumerated = 0
    while True:
        hit = tr.call("attacks.scan", next, hits, None)
        if hit is None:
            return Replay(False, None, None, None, Ht, s, tested, spurious, enumerated)
        tested += 1
        _, y = tr.call("attacks.pattern", _rhs, hit, f, n, r)
        sols = tr.call("linalg.solve", solve_affine, Gt, y)
        found = None
        if hashes is None:
            enumerated += 1
            found = split_solution(sols.particular, k1, k2)
        else:
            with tr.span("attacks.hash_filter"):
                for mt in sols:
                    enumerated += 1
                    m1, m2 = split_solution(mt, k1, k2)
                    c1 = tr.call("linalg.encode", ref_G.__matmul__, m1)
                    if tr.call("commitment.digest", codeword_digest, c1, hash_alg) != hashes[0]:
                        continue
                    c2 = tr.call("linalg.encode", ref_G.__matmul__, m2)
                    if tr.call("commitment.digest", codeword_digest, c2, hash_alg) != hashes[1]:
                        continue
                    found = (m1, m2)
                    break
        if found is None:
            spurious += 1
            continue
        cands = tr.call("attacks.candidates", _candidates, *found, G1, G2, f1, f2)
        return Replay(True, cands, hit.index, len(hit.support), Ht, s,
                      tested, spurious, enumerated)


def replay_modified(tr, code, rec1, rec2, b, hashes) -> Replay:
    """Stages of ``modified_decodability_attack``: un-permute, then core."""
    G = code.G
    (f1, T1), (f2, T2) = rec1, rec2
    with tr.span("linalg.unpermute"):
        G1 = tr.call("linalg.permuted_rows", permuted_rows, G, T1.inverse_permutation())
        G2 = tr.call("linalg.permuted_rows", permuted_rows, G, T2.inverse_permutation())
        f1p = tr.call("transforms.apply_inverse", apply_inverse, T1, f1)
        f2p = tr.call("transforms.apply_inverse", apply_inverse, T2, f2)
    return replay_core(tr, G1, G2, f1p, f2p, b, hashes, G)


def _affine_prep(f, n, fvec, a, c):
    shift = FieldVector(f, (c,) * n)
    a_inv = f.inv(a)
    Q = FieldMatrix(f, [[a_inv if i == j else 0 for j in range(n)] for i in range(n)])
    return fvec - shift, Q


def _ranks_ok(Q, R, n):
    return rank(Q) == n and rank(R) == n


def replay_affine(tr, code, rec1, rec2, b) -> Replay:
    """Stages of ``affine_reduction_attack``: detect the affine maps, strip
    the shifts, map through Q = a1^-1 I and R = a2^-1 I, then core."""
    G = code.G
    f, n = G.field, G.rows
    stripped = []
    for fvec, T in (rec1, rec2):
        a, c = tr.call("transforms.detect_affine", detect_affine, T.sigma, f)
        stripped.append(tr.call("attacks.affine_prep", _affine_prep, f, n, fvec, a, c))
    (g1, Q), (g2, R) = stripped
    tr.call("linalg.rank_check", _ranks_ok, Q, R, n)
    with tr.span("linalg.map"):
        QG, RG, Qf1, Rf2 = Q @ G, R @ G, Q @ g1, R @ g2
    return replay_core(tr, QG, RG, Qf1, Rf2, b, None, G)


def scan_through_classes(tr, rep: Replay, b: int, scan_total: float) -> dict:
    """Scan time through weight class J (cumulative), for J = 1..4.

    A class below the accepted hit's weight is scanned completely by the
    engine, so its cumulative time is an exhaustive scan at bound J.  From
    the hit's class on, the engine stops at the hit, so the cumulative time
    is the first-hit scan itself.  Class J alone is the difference of
    consecutive values.
    """
    w_stop = rep.hit_weight if rep.related else b + 1
    out = {}
    with tr.span("replay.classes"):
        for J in SCAN_CLASSES:
            if J < w_stop and J <= b:
                with tr.span(f"attacks.scan_through.w{J}") as sid:
                    for _ in scan_syndrome_hits(rep.Ht, rep.s, J):
                        pass
                out[J] = tr.duration(sid)
            else:
                out[J] = scan_total
    return out


def agrees(rep: Replay, out) -> list[str]:
    """Differences between a replay and the engine's real outcome."""
    errs = []
    if rep.related != out.related:
        errs.append(f"replay verdict {rep.related} != outcome {out.related}")
    elif rep.related:
        if rep.first_index != out.patterns_scanned - 1:
            errs.append(f"replay first hit {rep.first_index} != "
                        f"outcome patterns_scanned - 1 = {out.patterns_scanned - 1}")
        if rep.candidates != out.candidates:
            errs.append("replay candidates differ from the outcome's")
    return errs
