"""The benchmark's workloads: seeded inputs, the op, and its oracle.

Every input of op ``i`` is drawn from ``SeedSequence(seed, (workload, i))``,
so the same seed gives the same inputs and an op does not depend on how
many ops ran before it.  An op calls public library functions only.
``check`` judges a result against facts the generator knows (the enrolled
vectors and codewords) and against explicit products with the code's check
matrix, never against the attack's own algebra.  ``trace`` replays the
op's layers in the traced run; a layer the op does not reach is measured
by a probe on the op's own inputs (listed in ``probes``).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import combinations

import numpy as np

from fuzzylink import (
    GF2,
    ExperimentConfig,
    FieldMatrix,
    FieldSpec,
    FieldVector,
    TransformDescriptor,
    affine_reduction_attack,
    apply,
    apply_inverse,
    bch_build,
    code_descriptor,
    codeword_digest,
    decodability_attack,
    decode_bounded,
    detect_affine,
    enroll,
    field,
    generic_code,
    modified_decodability_attack,
    parse_code_descriptor,
    parse_record,
    random_transform,
    random_vector,
    random_weight_vector,
    resolve_code,
    serialize_record,
    verify,
)
from fuzzylink.linalg import permuted_rows

import replay as rp
from spans import NoTrace

COUNTER_OPS = 32     # ops 0..31 feed the deterministic counters


def op_rng(seed: int, workload: str, i: int):
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(zlib.crc32(workload.encode()), i))
    return np.random.default_rng(ss)


@lru_cache(maxsize=None)
def shuffled_supports(seed: int, workload: str, n: int, w: int) -> list[tuple[int, ...]]:
    """Every support of w positions in [0, n), in an order shuffled by the seed."""
    supports = list(combinations(range(n), w))
    order = op_rng(seed, workload + "/supports", 0).permutation(len(supports))
    return [supports[k] for k in order]


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def transform_oracle(T: TransformDescriptor, v: FieldVector) -> FieldVector:
    """T(v) from the transform's tables, without ``transforms.apply``."""
    if T.kind == "bit-permutation":
        return FieldVector(v.field, [v[p] for p in T.permutation])
    if T.kind == "field-permutation":
        return FieldVector(v.field, [T.sigma[e] for e in v.entries])
    return v


def in_code(code, v: FieldVector) -> bool:
    """Codeword membership by an explicit product with the check matrix."""
    return (code.H @ v).weight() == 0


def attack_oracle(code, out, recs, b: int) -> list[str]:
    """A linked outcome must name an error pattern e of weight <= b with
    c1 - c2 = e, and f_i - T_i(c_i) must be a codeword for both records.
    The last two facts put the offset minus e in the span of G~."""
    errs = []
    e = out.error_pattern
    if e is None or out.candidates is None:
        return ["linked outcome without error pattern or candidates"]
    if e.weight() > b:
        errs.append(f"error pattern has weight {e.weight()} > b = {b}")
    c1, c2 = out.candidates
    if c1 - c2 != e:
        errs.append("candidates do not differ by the error pattern")
    for (fvec, T), c in zip(recs, (c1, c2)):
        if not in_code(code, fvec - transform_oracle(T, c)):
            errs.append("offset minus error pattern is outside the span of G~")
            break
    return errs


def decode_oracle(code, residual, decoded) -> list[str]:
    """A decoder's answer is a codeword within radius t of its input, or
    None; whether None is right is not checked (a codeword may lie within
    the radius of a random vector)."""
    if decoded is not None and (not in_code(code, decoded)
                                or (residual - decoded).weight() > code.t):
        return ["decode probe: answer is not a codeword within the radius"]
    return []


def digest_rejection(code, pair, b: int, digest: bytes):
    """The hash-filtered attack on a related pair at distance <= b with the
    first record's digest given for both records.  No solution coset can
    match, so every hit, the genuine one included, is spurious and the
    pair must come out non-related.  The replay runs untraced, so the
    per-op stage times stay those of the op; it counts the rejected hits.
    Returns (replay, errors)."""
    hashes = (digest, digest)
    out = modified_decodability_attack(code, *pair, b, hashes=hashes)
    rep = rp.replay_modified(NoTrace(), code, *pair, b, hashes)
    errs = rp.agrees(rep, out)
    if out.related:
        errs.append("digest probe: a pair with a mismatched digest was linked")
    if rep.spurious_hits < 1:
        errs.append("digest probe: the genuine hit was not tested")
    return rep, errs


def bump(v: FieldVector, i: int = 0) -> FieldVector:
    """v with entry i changed (a deliberate corruption)."""
    f = v.field
    e = list(v.entries)
    e[i] = f.add(e[i], 1)
    return FieldVector(f, e)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    name: str
    b: int
    table1_trials: int          # trials per run_table1 call
    table_field: tuple          # (p, m) of the field whose log tables the code needs

    def table1_config(self, seed: int, chunk: int, trials: int) -> ExperimentConfig:
        raise NotImplementedError

    def table1_failures(self, report) -> int:
        """Trials of a related-mode cell that were not linked (or, with
        digests, not recovered exactly)."""
        cell = report.cells[0]
        missed = cell.trials - cell.linked
        if report.config.with_hash:
            missed = max(missed, cell.trials - cell.recovered)
        return missed


@dataclass
class PairInput:
    op: int
    w1: FieldVector
    w2: FieldVector
    rec1: object
    rec2: object
    data1: bytes = b""
    data2: bytes = b""
    w_impostor: FieldVector | None = None     # an unrelated vector, for the decode probe


@dataclass
class LinkResult:
    r1: object
    r2: object
    out: object


def _link_counters(out, truth) -> dict:
    return {
        "patterns_scanned": out.patterns_scanned,
        f"rank_{out.gtilde_rank}": 1,
        "linked": int(out.related),
        "recovered": int(out.related and out.candidates == truth),
    }


def _mul_loop(f: FieldSpec, pairs):
    mul = f.mul
    for a, b in pairs:
        mul(a, b)


def _time_mul(tr, f, pairs) -> float:
    with tr.span("fields.mul") as sid:
        _mul_loop(f, pairs)
    return tr.duration(sid) / len(pairs) * 1e9


class LinkWorkload(Workload):
    """Related pairs on bch:127:13 with bit-permutation transforms."""

    code_desc = "bch:127:13"
    table_field = (2, 7)

    def __init__(self, name, b, with_hash, table1_trials):
        self.name, self.b, self.with_hash = name, b, with_hash
        self.table1_trials = table1_trials

    def build_code(self):
        return parse_code_descriptor(self.code_desc)

    def cold_build(self):
        return bch_build.__wrapped__(7, 13)

    def make_input(self, code, seed, i, tr) -> PairInput:
        rng = op_rng(seed, self.name, i)
        n = code.n
        w1 = random_vector(GF2, n, rng)
        w2 = w1 + random_weight_vector(GF2, n, self.b, rng)
        t1 = random_transform("bit-permutation", n, GF2, rng)
        t2 = random_transform("bit-permutation", n, GF2, rng)
        rec1 = tr.call("commitment.enroll", enroll, w1, code, t1, with_hash=self.with_hash, rng=rng)
        rec2 = tr.call("commitment.enroll", enroll, w2, code, t2, with_hash=self.with_hash, rng=rng)
        data1 = tr.call("commitment.serialize", serialize_record, rec1)
        data2 = tr.call("commitment.serialize", serialize_record, rec2)
        return PairInput(i, w1, w2, rec1, rec2, data1, data2, random_vector(GF2, n, rng))

    def run_op(self, code, inp, tr) -> LinkResult:
        r1 = tr.call("commitment.parse", parse_record, inp.data1)
        r2 = tr.call("commitment.parse", parse_record, inp.data2)
        hashes = (r1.codeword_hash, r2.codeword_hash) if self.with_hash else None
        out = tr.call("attacks.attack", modified_decodability_attack, code,
                      (r1.commitment, r1.transform), (r2.commitment, r2.transform),
                      self.b, hashes=hashes)
        return LinkResult(r1, r2, out)

    def check(self, code, inp, res) -> list[str]:
        errs = []
        if (res.r1, res.r2) != (inp.rec1, inp.rec2):
            errs.append("parsed records differ from the published ones")
        out = res.out
        if not out.related:
            return errs + ["related pair not linked"]
        recs = [(r.commitment, r.transform) for r in (inp.rec1, inp.rec2)]
        errs += attack_oracle(code, out, recs, self.b)
        if self.with_hash and (not out.hash_verified or out.candidates != (inp.w1, inp.w2)):
            errs.append("hash-filtered candidates differ from the enrolled pair")
        return errs

    def corruptions(self, res):
        out = res.out
        c1, c2 = out.candidates
        yield "verdict_flipped", replace(res, out=replace(out, related=False))
        yield "candidate_corrupted", replace(res, out=replace(out, candidates=(bump(c1), c2)))
        yield "candidates_shifted", replace(res, out=replace(
            out, candidates=(bump(c1), bump(c2))))
        yield "parse_corrupted", replace(res, r1=replace(
            res.r1, commitment=bump(res.r1.commitment)))

    def counters(self, inp, res) -> dict:
        return _link_counters(res.out, (inp.w1, inp.w2))

    def trace(self, code, inp, res, tr):
        """Replay the attack's stages; with digests, also reject the pair
        under a mismatched digest; probe decode (of a sibling and of an
        impostor), verify, apply and the symbol field for the layers the op
        does not reach."""
        r1, r2, out = res.r1, res.r2, res.out
        pair = ((r1.commitment, r1.transform), (r2.commitment, r2.transform))
        hashes = (r1.codeword_hash, r2.codeword_hash) if self.with_hash else None
        with tr.span("replay.attack"):
            rep = rp.replay_modified(tr, code, *pair, self.b, hashes)
        errs = rp.agrees(rep, out)
        tested, spurious, enumerated = rep.hits_tested, rep.spurious_hits, rep.solutions_enumerated
        if self.with_hash:
            rej, rerrs = digest_rejection(code, pair, self.b, r1.codeword_hash)
            errs += rerrs
            tested += rej.hits_tested
            spurious += rej.spurious_hits
            enumerated += rej.solutions_enumerated
        values = {}
        with tr.span("probe"):
            c1 = inp.rec1.commitment - transform_oracle(inp.rec1.transform, inp.w1)
            v = tr.call("commitment.verify", verify, inp.rec1, code, inp.w2)
            if not v.accepted or v.codeword != c1:
                errs.append("verify probe: sibling vector does not open the record")
            residual = inp.rec1.commitment - tr.call("transforms.apply", apply,
                                                     inp.rec1.transform, inp.w2)
            decoded = tr.call("codes.decode", decode_bounded, code, residual)
            if decoded != c1:
                errs.append("decode probe: residual does not decode to the codeword")
            far = inp.rec1.commitment - tr.call("transforms.apply", apply,
                                                inp.rec1.transform, inp.w_impostor)
            far_decoded = tr.call("codes.decode", decode_bounded, code, far)
            errs += decode_oracle(code, far, far_decoded)
            if not self.with_hash:
                tr.call("commitment.digest", codeword_digest, c1, "sha256")
            tr.call("transforms.detect_affine", detect_affine, (1, 0), GF2)
            values["fields.mul_ns"] = _time_mul(tr, GF2, list(zip(inp.w1.entries, inp.w2.entries)))
        counts = {"hits_tested": tested, "spurious_hits": spurious,
                  "solutions_enumerated": enumerated, "decode_calls": 2,
                  "decode_rejects": int(decoded is None) + int(far_decoded is None)}
        return rep, values, counts, errs

    @property
    def probes(self):
        digest = ("attacks.spurious_hits", "attacks.hit_useful_frac") if self.with_hash else ()
        return ("commitment.verify_us", "codes.decode_us", "codes.decode_calls",
                "codes.decode_reject_frac", "transforms.apply_us",
                "transforms.detect_affine_us", "fields.mul_ns") + digest

    def table1_config(self, seed, chunk, trials):
        return ExperimentConfig(code=self.code_desc, b_values=(self.b,), trials=trials,
                                with_hash=self.with_hash, seed=seed * 100_000 + chunk)


@dataclass
class RecordsInput:
    op: int
    w: FieldVector
    t: TransformDescriptor
    enroll_entropy: int
    w_genuine: FieldVector
    w_impostor: FieldVector
    plain_a: FieldVector
    plain_b: FieldVector
    sibling: object          # hash-bound record of w + (weight 1), for the attack probe
    w_sibling: FieldVector


@dataclass
class RecordsResult:
    rec: object
    rec2: object
    code2: object
    genuine: object
    impostor: object
    linked: bool


class RecordsWorkload(Workload):
    name = "records-255"
    code_desc = "bch:255:26"
    table_field = (2, 8)
    b = 1                    # Table-1 cell and attack probe bound
    table1_trials = 12

    def build_code(self):
        return parse_code_descriptor(self.code_desc)

    def cold_build(self):
        return bch_build.__wrapped__(8, 26)

    def make_input(self, code, seed, i, tr) -> RecordsInput:
        rng = op_rng(seed, self.name, i)
        n, t = code.n, code.t
        w = random_vector(GF2, n, rng)
        T = random_transform("bit-permutation", n, GF2, rng)
        entropy = int(rng.integers(1 << 62))
        w_gen = w + random_weight_vector(GF2, n, int(rng.integers(0, t + 1)), rng)
        w_imp = random_vector(GF2, n, rng)
        wa = random_vector(GF2, n, rng)
        wb = wa + random_weight_vector(GF2, n, int(rng.integers(0, t + 1)), rng)
        pa = enroll(wa, code, rng=rng).commitment
        pb = enroll(wb, code, rng=rng).commitment
        w_sib = w + random_weight_vector(GF2, n, 1, rng)
        sib = enroll(w_sib, code, random_transform("bit-permutation", n, GF2, rng),
                     with_hash=True, rng=rng)
        return RecordsInput(i, w, T, entropy, w_gen, w_imp, pa, pb, sib, w_sib)

    def run_op(self, code, inp, tr) -> RecordsResult:
        rng = np.random.default_rng(inp.enroll_entropy)
        rec = tr.call("commitment.enroll", enroll, inp.w, code, inp.t, with_hash=True, rng=rng)
        data = tr.call("commitment.serialize", serialize_record, rec)
        rec2 = tr.call("commitment.parse", parse_record, data)
        code2 = tr.call("commitment.resolve_code", resolve_code, rec2)
        genuine = tr.call("commitment.verify", verify, rec2, code2, inp.w_genuine)
        impostor = tr.call("commitment.verify", verify, rec2, code2, inp.w_impostor)
        linked = tr.call("attacks.decodability", decodability_attack,
                         inp.plain_a, inp.plain_b, code2)
        return RecordsResult(rec, rec2, code2, genuine, impostor, linked)

    def check(self, code, inp, res) -> list[str]:
        errs = []
        if res.rec2 != res.rec:
            errs.append("parse_record(serialize_record(r)) != r")
        if res.code2.G != code.G or res.code2.d != code.d:
            errs.append("resolve_code returned another code")
        c = res.rec.commitment - transform_oracle(inp.t, inp.w)
        if not in_code(code, c):
            errs.append("enrolled commitment minus T(w) is not a codeword")
        g = res.genuine
        if not (g.accepted and g.hash_checked and g.codeword == c):
            errs.append("genuine w' not accepted with the enrolled codeword")
        if res.impostor.accepted:
            errs.append("impostor accepted")
        if not res.linked:
            errs.append("plain pair within the decoding radius not linked")
        return errs

    def corruptions(self, res):
        yield "genuine_rejected", replace(res, genuine=replace(res.genuine, accepted=False))
        yield "impostor_accepted", replace(res, impostor=res.genuine)
        yield "plain_pair_unlinked", replace(res, linked=False)
        yield "parse_corrupted", replace(res, rec2=replace(
            res.rec2, commitment=bump(res.rec2.commitment)))

    def counters(self, inp, res) -> dict:
        return {"genuine_accepted": int(res.genuine.accepted),
                "impostor_rejected": int(not res.impostor.accepted),
                "plain_linked": int(res.linked)}

    def trace(self, code, inp, res, tr):
        """Replay verify's transform, decode and digest steps; probe the
        attack layers with a hash-filtered attack on the op's record and a
        distance-1 sibling, once with the records' digests and once with a
        mismatched one."""
        errs = []
        rec = res.rec
        c = rec.commitment - transform_oracle(inp.t, inp.w)
        residuals, decoded = [], []
        with tr.span("replay.verify"):
            tr.call("transforms.apply", apply, inp.t, inp.w)
            for wp in (inp.w_genuine, inp.w_impostor):
                residuals.append(rec.commitment - tr.call("transforms.apply", apply, inp.t, wp))
                decoded.append(tr.call("codes.decode", decode_bounded, code, residuals[-1]))
            decoded.append(tr.call("codes.decode", decode_bounded, code,
                                   inp.plain_a - inp.plain_b))
            tr.call("commitment.digest", codeword_digest, c, "sha256")
        if decoded[0] != c:
            errs.append("decode replay: genuine residual does not decode to the codeword")
        errs += decode_oracle(code, residuals[1], decoded[1])     # the impostor's
        if decoded[2] is None:
            errs.append("decode replay: plain-pair offset does not decode")
        sib = inp.sibling
        pair = ((rec.commitment, rec.transform), (sib.commitment, sib.transform))
        hashes = (rec.codeword_hash, sib.codeword_hash)
        values = {}
        with tr.span("probe"):
            out = tr.call("attacks.attack", modified_decodability_attack, code, *pair,
                          self.b, hashes=hashes)
            with tr.span("replay.attack"):
                rep = rp.replay_modified(tr, code, *pair, self.b, hashes)
            tr.call("transforms.detect_affine", detect_affine, (1, 0), GF2)
            values["fields.mul_ns"] = _time_mul(tr, GF2, list(zip(inp.w.entries, inp.w_genuine.entries)))
        errs += rp.agrees(rep, out)
        if not out.related or out.candidates != (inp.w, inp.w_sibling):
            errs.append("attack probe: sibling pair not recovered")
        rej, rerrs = digest_rejection(code, pair, self.b, rec.codeword_hash)
        errs += rerrs
        counts = {"hits_tested": rep.hits_tested + rej.hits_tested,
                  "spurious_hits": rep.spurious_hits + rej.spurious_hits,
                  "solutions_enumerated": rep.solutions_enumerated + rej.solutions_enumerated,
                  "decode_calls": len(decoded),
                  "decode_rejects": sum(d is None for d in decoded),
                  "patterns_scanned": out.patterns_scanned, f"rank_{out.gtilde_rank}": 1}
        return rep, values, counts, errs

    probes = ("linalg.eliminate_ms", "linalg.solve_ms", "linalg.unpermute_us",
              "attacks.scan_ms", "attacks.scan_ms.w1", "attacks.scan_ms.w2",
              "attacks.scan_ms.w3", "attacks.scan_ms.w4", "attacks.patterns_scanned",
              "attacks.patterns_per_ms", "attacks.attack_ms", "attacks.unattributed_frac",
              "attacks.hits_tested", "attacks.spurious_hits", "attacks.hit_useful_frac",
              "attacks.solutions_enumerated", "transforms.detect_affine_us", "fields.mul_ns")

    def table1_config(self, seed, chunk, trials):
        return ExperimentConfig(code=self.code_desc, b_values=(self.b,), trials=trials,
                                with_hash=True, seed=seed * 100_000 + chunk)


def vandermonde_code():
    """The GF(32) (20, 8) Vandermonde code with d = 13 (acceptance c10)."""
    g32 = field(2, 5)
    G = FieldMatrix(g32, [[g32.pow(i + 1, j) for j in range(8)] for i in range(20)])
    return generic_code(G, 20 - 8 + 1)


class AffineWorkload(Workload):
    name = "affine-gf32-b2"
    table_field = (2, 5)
    b = 2
    table1_trials = 16

    def build_code(self):
        return vandermonde_code()

    cold_build = build_code

    def make_input(self, code, seed, i, tr) -> PairInput:
        rng = op_rng(seed, self.name, i)
        f, n = code.field, code.n
        recs = []
        w1 = random_vector(f, n, rng)
        # An op's cost is set by where the error's support falls in the
        # scan's order.  Op i takes the i-th support of a seeded shuffle of
        # all C(n, b) of them, so a run covers the scan range evenly and
        # op_ms_p50 does not hinge on the supports a seed happened to draw.
        supports = shuffled_supports(seed, self.name, n, self.b)
        e = [0] * n
        for j in supports[i % len(supports)]:
            e[j] = int(rng.integers(1, f.q))
        w2 = w1 + FieldVector(f, e)
        for w in (w1, w2):
            a, c = int(rng.integers(1, f.q)), int(rng.integers(0, f.q))
            sigma = tuple(f.add(f.mul(a, x), c) for x in range(f.q))
            T = TransformDescriptor("field-permutation", n, f, sigma=sigma)
            recs.append(tr.call("commitment.enroll", enroll, w, code, T, rng=rng))
        return PairInput(i, w1, w2, *recs)

    def run_op(self, code, inp, tr) -> LinkResult:
        r1, r2 = inp.rec1, inp.rec2
        out = tr.call("attacks.attack", affine_reduction_attack, code,
                      (r1.commitment, r1.transform), (r2.commitment, r2.transform), self.b)
        return LinkResult(r1, r2, out)

    def check(self, code, inp, res) -> list[str]:
        out = res.out
        if not out.related:
            return ["related pair not linked"]
        recs = [(r.commitment, r.transform) for r in (inp.rec1, inp.rec2)]
        errs = attack_oracle(code, out, recs, self.b)
        c1, c2 = out.candidates
        if c1 - c2 != inp.w1 - inp.w2:
            errs.append("affine reduction did not return w1 - w2")
        return errs

    def corruptions(self, res):
        out = res.out
        c1, c2 = out.candidates
        yield "verdict_flipped", replace(res, out=replace(out, related=False))
        yield "candidate_corrupted", replace(res, out=replace(out, candidates=(bump(c1), c2)))
        yield "candidates_shifted", replace(res, out=replace(
            out, candidates=(bump(c1), bump(c2))))

    def counters(self, inp, res) -> dict:
        return _link_counters(res.out, (inp.w1, inp.w2))

    def trace(self, code, inp, res, tr):
        """Replay the affine reduction's stages; probe the record codec,
        verify, decode, digest and un-permutation on the op's records."""
        r1, r2, out = inp.rec1, inp.rec2, res.out
        pair = ((r1.commitment, r1.transform), (r2.commitment, r2.transform))
        with tr.span("replay.attack"):
            rep = rp.replay_affine(tr, code, *pair, self.b)
        errs = rp.agrees(rep, out)
        f, n = code.field, code.n
        values = {}
        with tr.span("probe"):
            c1 = r1.commitment - transform_oracle(r1.transform, inp.w1)
            data = tr.call("commitment.serialize", serialize_record, r1)
            if tr.call("commitment.parse", parse_record, data) != r1:
                errs.append("record probe: parse(serialize(r)) != r")
            v = tr.call("commitment.verify", verify, r1, code, inp.w1)
            residual = r1.commitment - tr.call("transforms.apply", apply, r1.transform, inp.w1)
            decoded = tr.call("codes.decode", decode_bounded, code, residual)
            if not v.accepted or v.codeword != c1 or decoded != c1:
                errs.append("verify probe: genuine vector does not open the record")
            tr.call("commitment.digest", codeword_digest, c1, "sha256")
            perm = tuple(reversed(range(n)))
            with tr.span("linalg.unpermute"):
                tr.call("linalg.permuted_rows", permuted_rows, code.G, perm)
                tr.call("linalg.permuted_rows", permuted_rows, code.G, perm)
                tr.call("transforms.apply_inverse", apply_inverse, r1.transform, r1.commitment)
                tr.call("transforms.apply_inverse", apply_inverse, r2.transform, r2.commitment)
            operands = [(g, w) for row in code.G.row_entries for g, w in zip(row, inp.w1.entries)]
            values["fields.mul_ns"] = _time_mul(tr, f, operands)
        counts = {"hits_tested": rep.hits_tested, "spurious_hits": rep.spurious_hits,
                  "solutions_enumerated": rep.solutions_enumerated,
                  "decode_calls": 1, "decode_rejects": int(decoded is None)}
        return rep, values, counts, errs

    probes = ("commitment.serialize_us", "commitment.parse_us", "commitment.verify_us",
              "commitment.digest_us", "codes.decode_us", "codes.decode_calls",
              "codes.decode_reject_frac", "transforms.apply_us", "linalg.unpermute_us")

    def table1_config(self, seed, chunk, trials):
        # default harness config on this code: bit-permutation records and
        # the modified attack over GF(32)
        return ExperimentConfig(code=code_descriptor(vandermonde_code()), b_values=(self.b,),
                                trials=trials, seed=seed * 100_000 + chunk)


# why each workload was chosen: see BENCHMARK.json and README.md
WORKLOADS = {w.name: w for w in (
    LinkWorkload("link-hash-127-b2", 2, True, 32),
    LinkWorkload("link-127-b4", 4, False, 16),
    RecordsWorkload(),
    AffineWorkload(),
)}
