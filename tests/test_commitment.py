import copy
import dataclasses
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fuzzylink.attacks import generalized_attack
from fuzzylink.codes import (bch_build, generic_code, is_codeword, parse_code_descriptor,
                             random_codeword)
from fuzzylink.commitment import (
    HASH_ALGORITHMS,
    HASH_BY_SIZE,
    MalformedRecordError,
    Record,
    RecordFormatError,
    canonical_bytes,
    codeword_digest,
    enroll,
    parse_record,
    resolve_code,
    serialize_record,
    vector_to_text,
    verify,
)
from fuzzylink.fields import GF2, field
from fuzzylink.linalg import FieldMatrix, FieldVector, random_vector, random_weight_vector
from fuzzylink.transforms import identity_transform, random_transform


@pytest.fixture(scope="module")
def code():
    return bch_build(5, 5)  # (31, 11, 11), t = 5


def test_canonical_bytes_big_endian_packing():
    v = FieldVector(GF2, [1, 0, 0, 0, 0, 0, 0, 0, 1])  # bits 0 and 8
    assert canonical_bytes(v) == bytes([0x80, 0x80])
    w = FieldVector(field(5), (0, 4, 2))
    assert canonical_bytes(w) == bytes([0, 4, 2])


def _canonical_bytes_by_bit(v):
    """The per-bit GF(2) encoding: bit i is bit 7 - i % 8 of byte i // 8."""
    out = bytearray((v.n + 7) // 8)
    for i in range(v.n):
        if (v.bits >> i) & 1:
            out[i // 8] |= 0x80 >> (i % 8)
    return bytes(out)


def test_canonical_bytes_matches_bit_loop(rng):
    for n in [*range(70), 127, 255, 1000]:
        for _ in range(3):
            v = random_vector(GF2, n, rng)
            assert canonical_bytes(v) == _canonical_bytes_by_bit(v)
        ones = FieldVector(GF2, n=n, bits=(1 << n) - 1)
        assert canonical_bytes(ones) == _canonical_bytes_by_bit(ones)


def _pinned_records(params):
    """(record, codeword) pairs over GF(p^m) for each (p, m, n, k), with
    field- and bit-permutation transforms, unbound and bound by each digest."""
    rng = np.random.default_rng(2027)
    for p, m, n, k in params:
        f = field(p, m)
        G = FieldMatrix(f, [[int(x) for x in rng.integers(0, f.q, size=k)] for _ in range(n)])
        c = generic_code(G, 1)
        for kind in ("field-permutation", "bit-permutation"):
            for alg in (None,) + HASH_ALGORITHMS:
                w = random_vector(f, n, rng)
                t = random_transform(kind, n, f, rng)
                rec = enroll(w, c, t, with_hash=alg is not None, hash_id=alg or "sha256",
                             rng=rng)
                yield rec, random_codeword(c, rng)


def _hash_records(h, records):
    """Serialized records, canonical bytes, digests and text of vectors."""
    for rec, cw in records:
        h.update(serialize_record(rec))
        h.update(canonical_bytes(cw))
        for alg in HASH_ALGORITHMS:
            h.update(codeword_digest(cw, alg))
        h.update(vector_to_text(rec.commitment).encode())


def test_extension_field_record_bytes_pinned():
    # GF(8), GF(32) and GF(2^9) records, as produced before GF(2^m) vectors
    # were packed into integers
    h = hashlib.sha256()
    _hash_records(h, _pinned_records(((2, 3, 7, 3), (2, 5, 12, 5), (2, 9, 10, 4))))
    assert h.hexdigest() == "6063fadc497255130224c89d0f25b54fd2f8e23afcf92d926d1029a2ba9dc338"


def test_odd_characteristic_outputs_pinned():
    # GF(3), GF(5), GF(3^2) and GF(257) records, and the generalized_attack
    # outcomes (every field but the time) for b = 1 and 2 on pairs of them and
    # on related pairs at distance 0..2, as produced while odd-characteristic
    # vectors were stored as tuples of entries
    h = hashlib.sha256()
    records = list(_pinned_records(((3, 1, 12, 5), (5, 1, 10, 4), (3, 2, 9, 4), (257, 1, 8, 3))))
    _hash_records(h, records)
    rng = np.random.default_rng(2028)
    for (r1, _), (r2, _) in zip(records[::2], records[1::2]):
        c = resolve_code(r1)
        f, n = c.field, c.n
        w = random_vector(f, n, rng)
        noise = random_weight_vector(f, n, int(rng.integers(0, 3)), rng)
        related = (enroll(w, c, rng=rng).commitment, enroll(w + noise, c, rng=rng).commitment)
        for f1, f2 in ((r1.commitment, r2.commitment), related):
            for b in (1, 2):
                out = generalized_attack(c.G, c.G, f1, f2, b)
                fields = {fl.name: getattr(out, fl.name) for fl in dataclasses.fields(out)
                          if fl.name != "elapsed"}
                fields["candidates"] = out.candidates and [list(v) for v in out.candidates]
                fields["error_pattern"] = out.error_pattern and list(out.error_pattern)
                h.update(json.dumps(fields, sort_keys=True).encode())
    assert h.hexdigest() == "fa130ee702343c5367932feb3eba56cc71bd89d5fbaaffd95a0704c4e781844e"


def test_vector_to_text_pinned():
    assert vector_to_text(FieldVector(GF2, [1, 0, 0, 0, 0, 0, 0, 0, 1, 1])) == "80c0"
    assert vector_to_text(FieldVector(field(5), (0, 4, 2))) == "0,4,2"
    assert vector_to_text(FieldVector(field(2, 3), (7, 0, 1))) == "7,0,1"
    assert vector_to_text(FieldVector(field(2, 5), (31, 16, 0, 5))) == "31,16,0,5"
    assert vector_to_text(FieldVector(field(2, 9), (511, 256, 0, 255))) == "511,256,0,255"


def test_enroll_identity_commitment_difference(code, rng):
    w = random_vector(GF2, code.n, rng)
    rec = enroll(w, code, identity_transform(GF2, code.n), rng=rng)
    assert is_codeword(code, rec.commitment - w)


def test_enroll_verify_round_trip(code, rng):
    for kind in ("identity", "bit-permutation"):
        for with_hash in (False, True):
            w = random_vector(GF2, code.n, rng)
            t = random_transform(kind, code.n, GF2, rng)
            rec = enroll(w, code, t, with_hash=with_hash, rng=rng)
            res = verify(rec, code, w)
            assert res.accepted
            assert res.hash_checked == with_hash
            # verify checks no codeword itself: a digest-free accept rests on
            # decode_bounded returning only codewords
            assert is_codeword(code, res.codeword)


def test_verify_within_radius(code, rng):
    for dist in (1, 3, 5):
        w = random_vector(GF2, code.n, rng)
        t = random_transform("bit-permutation", code.n, GF2, rng)
        rec = enroll(w, code, t, with_hash=True, rng=rng)
        w_close = w + random_weight_vector(GF2, code.n, dist, rng)
        assert verify(rec, code, w_close).accepted
    # the residual lies t + d - 1 from the enrolled codeword, so it cannot
    # decode to it, and any other codeword fails the digest
    w_far = w + random_weight_vector(GF2, code.n, code.t + code.d - 1, rng)
    assert not verify(rec, code, w_far).accepted


def test_tampered_hash_rejects(code, rng):
    w = random_vector(GF2, code.n, rng)
    rec = enroll(w, code, rng=rng, with_hash=True)
    bad = bytes([rec.codeword_hash[0] ^ 1]) + rec.codeword_hash[1:]
    tampered = Record(rec.code_id, rec.commitment, rec.transform, bad, rec.hash_id)
    assert not verify(tampered, code, w).accepted


def test_noise_flips_triangle(code, rng):
    # z = 2 flips, verifier at distance 3: 3 + 2 <= t = 5 always accepts
    accepted = 0
    trials = 400
    for _ in range(trials):
        w = random_vector(GF2, code.n, rng)
        t = random_transform("bit-permutation", code.n, GF2, rng)
        rec = enroll(w, code, t, noise_flips=2, rng=rng)
        w_close = w + random_weight_vector(GF2, code.n, 3, rng)
        accepted += verify(rec, code, w_close).accepted
    assert accepted == trials


def test_negative_noise_flips_rejected(code, rng):
    w = random_vector(GF2, code.n, rng)
    with pytest.raises(ValueError, match="noise flips must be >= 0"):
        enroll(w, code, noise_flips=-1, rng=rng)


def test_noise_rejected_on_non_binary_field(rng):
    from fuzzylink.codes import generic_code
    from fuzzylink.linalg import FieldMatrix
    g5 = field(5)
    c = generic_code(FieldMatrix.identity(g5, 4), 1)
    w = random_vector(g5, 4, rng)
    with pytest.raises(ValueError):
        enroll(w, c, noise_flips=1, rng=rng)


def test_verify_unrelated_accept_rate_matches_density(code, rng):
    # acceptance rate of uniformly random candidates ~ sphere packing density
    from fuzzylink.analysis import DensityQuery, sphere_packing_density
    dens = float(sphere_packing_density(DensityQuery(q=2, n=31, k=11, d=11)))
    w = random_vector(GF2, code.n, rng)
    t = random_transform("bit-permutation", code.n, GF2, rng)
    rec = enroll(w, code, t, rng=rng)
    trials = 3000
    hits = sum(verify(rec, code, random_vector(GF2, code.n, rng)).accepted
               for _ in range(trials))
    sigma = (dens * (1 - dens) / trials) ** 0.5
    assert abs(hits / trials - dens) < 4 * sigma


# ---------------------------------------------------------------------------
# record format
# ---------------------------------------------------------------------------

def test_serialize_parse_round_trip(code, rng):
    for kind in ("identity", "bit-permutation"):
        for with_hash in (False, True):
            w = random_vector(GF2, code.n, rng)
            t = random_transform(kind, code.n, GF2, rng)
            rec = enroll(w, code, t, with_hash=with_hash, rng=rng)
            data = serialize_record(rec)
            back = parse_record(data)
            assert back == rec
            assert serialize_record(back) == data  # canonical encoding


def test_record_json_layout(code, rng):
    w = random_vector(GF2, code.n, rng)
    rec = enroll(w, code, rng=rng, with_hash=True)
    obj = json.loads(serialize_record(rec))
    assert obj["version"] == 1
    assert obj["field"] == {"p": 2, "m": 1}
    assert obj["code"] == "bch:31:5"
    assert isinstance(obj["f"], str) and len(obj["f"]) == 8  # 4 packed bytes
    assert obj["transform"]["type"] in ("identity", "bit-permutation")
    assert obj["hash"]["alg"] == "sha256"
    assert resolve_code(rec).n == code.n


def test_noise_records_schema_identical(code, rng):
    w = random_vector(GF2, code.n, rng)
    t = random_transform("bit-permutation", code.n, GF2, rng)
    plain = json.loads(serialize_record(enroll(w, code, t, rng=rng)))
    noisy = json.loads(serialize_record(enroll(w, code, t, noise_flips=3, rng=rng)))
    assert set(plain) == set(noisy)
    assert {k: type(v) for k, v in plain.items()} == {k: type(v) for k, v in noisy.items()}


def test_parse_error_reports_position():
    with pytest.raises(RecordFormatError) as err:
        parse_record(b'{"version":1,')
    assert err.value.position is not None


@pytest.mark.parametrize("data", [b'{"f":"\xff"}', b"[" * 100000], ids=["not-text", "deep"])
def test_parse_rejects_undecodable_bytes(data):
    with pytest.raises(RecordFormatError):
        parse_record(data)


def test_parse_unknown_transform_type(code, rng):
    w = random_vector(GF2, code.n, rng)
    rec = enroll(w, code, rng=rng)
    obj = json.loads(serialize_record(rec))
    obj["transform"] = {"type": "rot13"}
    with pytest.raises(RecordFormatError):
        parse_record(json.dumps(obj).encode())


def test_parse_rejects_bad_padding(code, rng):
    w = random_vector(GF2, code.n, rng)
    rec = enroll(w, code, rng=rng)
    obj = json.loads(serialize_record(rec))
    raw = bytearray.fromhex(obj["f"])
    raw[-1] |= 0x01  # n = 31: the last packed bit is padding
    obj["f"] = raw.hex()
    with pytest.raises(MalformedRecordError):
        parse_record(json.dumps(obj).encode())


def test_parse_rejects_bad_digest_length(code, rng):
    w = random_vector(GF2, code.n, rng)
    rec = enroll(w, code, rng=rng, with_hash=True)
    obj = json.loads(serialize_record(rec))
    obj["hash"]["digest"] = obj["hash"]["digest"][:-2]
    with pytest.raises(MalformedRecordError):
        parse_record(json.dumps(obj).encode())


def test_codeword_digest_deterministic(code, rng):
    c = FieldVector(GF2, n=31, bits=0x1234)
    assert codeword_digest(c) == codeword_digest(c)
    assert codeword_digest(c) != codeword_digest(FieldVector(GF2, n=31, bits=0x1235))


def test_hash_sizes_name_their_algorithm():
    # one size per algorithm: a new algorithm whose digest size collides
    # with a supported one would make digests ambiguous
    assert sorted(HASH_BY_SIZE.values()) == sorted(HASH_ALGORITHMS)
    for name in HASH_ALGORITHMS:
        assert HASH_BY_SIZE[hashlib.new(name).digest_size] == name


@pytest.fixture(scope="module")
def hashed_record_obj(code):
    rng = np.random.default_rng(3)
    t = random_transform("bit-permutation", code.n, GF2, rng)
    rec = enroll(random_vector(GF2, code.n, rng), code, t, with_hash=True, rng=rng)
    return json.loads(serialize_record(rec))


def _with(obj, path, value):
    """A deep copy of obj with the member at path set to value."""
    obj = copy.deepcopy(obj)
    target = obj
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return obj


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=8), children, max_size=4)),
    max_leaves=8,
)
MEMBERS = [("version",), ("field",), ("field", "p"), ("field", "m"), ("code",), ("f",),
           ("transform",), ("transform", "type"), ("transform", "perm"), ("hash",),
           ("hash", "alg"), ("hash", "digest")]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(MEMBERS), JSON_VALUES)
def test_parse_record_survives_any_member_value(hashed_record_obj, member, value):
    try:
        rec = parse_record(json.dumps(_with(hashed_record_obj, member, value)).encode())
    except (RecordFormatError, MalformedRecordError):
        return
    assert isinstance(rec, Record)


def test_record_version_and_code_have_one_spelling(hashed_record_obj):
    """The version is the JSON integer 1 and the BCH descriptor spells n
    and t as canonical ASCII decimals: true, 1.0, "bch:031:5" or
    Arabic-Indic digits were read as version 1 and bch:31:5, so the record
    re-serialized to other bytes or kept a second spelling of the code."""
    assert hashed_record_obj["version"] == 1 and hashed_record_obj["code"] == "bch:31:5"
    for value in (True, 1.0, "1"):
        with pytest.raises(MalformedRecordError, match="record version"):
            parse_record(json.dumps(_with(hashed_record_obj, ("version",), value)).encode())
    for desc in ("bch:\u0663\u0661:5", "bch: +3_1:5", "bch:031:5", "bch:31:+5", "bch:31:05"):
        with pytest.raises(MalformedRecordError, match="unknown code descriptor"):
            parse_record(json.dumps(_with(hashed_record_obj, ("code",), desc)).encode())


def test_record_numbers_must_be_json_integers(hashed_record_obj):
    """A float, bool or numeric string where a record or an inline code
    holds an integer is refused, not rewritten into the integer it rounds
    to (which re-serialized to a record other than the one parsed)."""
    gf9 = json.loads(serialize_record(next(_pinned_records(((3, 2, 9, 4),)))[0]))
    assert gf9["transform"]["type"] == "field-permutation" and gf9["field"]["modulus"]
    for obj in (hashed_record_obj, gf9):
        assert parse_record(json.dumps(obj).encode())
    perm = hashed_record_obj["transform"]["perm"]
    for obj, path, value in [
            (hashed_record_obj, ("transform", "perm"), [i + 0.4 for i in perm]),
            (hashed_record_obj, ("field", "p"), "2"),
            (hashed_record_obj, ("field", "m"), True),
            (gf9, ("f",), [float(e) for e in gf9["f"]]),
            (gf9, ("transform", "sigma"), [s + 0.5 for s in gf9["transform"]["sigma"]]),
            (gf9, ("field", "modulus"), [float(c) for c in gf9["field"]["modulus"]])]:
        with pytest.raises(MalformedRecordError, match="JSON integers"):
            parse_record(json.dumps(_with(obj, path, value)).encode())
    inline = gf9["code"]
    assert parse_code_descriptor(inline).field == field(3, 2)
    grid = inline["generator"]
    for path, value in [(("field", "p"), 3.7), (("d",), 2.5)] + [
            (("generator",), [[x] + row[1:] for row in grid]) for x in (1.9, True, "1")]:
        with pytest.raises(ValueError, match="JSON integers"):
            parse_code_descriptor(_with(inline, path, value))
