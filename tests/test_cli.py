import hashlib
import json
import math
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from fuzzylink import attacks, experiments
from fuzzylink.cli import main
from fuzzylink.codes import generic_code, parse_code_descriptor
from fuzzylink.commitment import (
    MalformedRecordError,
    RecordFormatError,
    enroll,
    parse_record,
    resolve_code,
    serialize_record,
    vector_to_text,
)
from fuzzylink.fields import GF2, MAX_ORDER, field
from fuzzylink.linalg import FieldMatrix, random_vector, random_weight_vector
from fuzzylink.transforms import (
    TransformDescriptor,
    apply_inverse,
    detect_affine,
    random_transform,
)


@pytest.fixture
def runner():
    return CliRunner()


def test_code_info(runner):
    res = runner.invoke(main, ["code", "info", "bch:31:5"])
    assert res.exit_code == 0
    assert "n=31 k=11 d=11" in res.output
    assert "0.196808" in res.output


def test_code_info_bad_descriptor(runner):
    res = runner.invoke(main, ["code", "info", "bch:32:5"])
    assert res.exit_code == 2


def test_enroll_verify_attack_flow(runner, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    res = runner.invoke(main, ["enroll", "--code", "bch:31:5", "--w", "random",
                               "--seed", "5", "--out", str(a), "--print-w"])
    assert res.exit_code == 0
    w_hex = res.output.strip().splitlines()[-1].split(" = ")[1]
    res = runner.invoke(main, ["enroll", "--code", "bch:31:5", "--w", w_hex,
                               "--seed", "6", "--out", str(b)])
    assert res.exit_code == 0

    res = runner.invoke(main, ["verify", str(a), "--w", w_hex])
    assert res.exit_code == 0
    assert "ACCEPT" in res.output

    res = runner.invoke(main, ["verify", str(a), "--w", "00000000"])
    assert res.exit_code == 1
    assert "REJECT" in res.output

    res = runner.invoke(main, ["attack", "pair", str(a), str(b), "--b", "0"])
    assert res.exit_code == 0
    out = json.loads(res.output)
    assert out["verdict"] == "related"
    assert out["all_solutions"] >= 2


def test_verify_beyond_pattern_budget(runner, tmp_path):
    # an impostor against a record over the GF(32) (20, 8, 13) code of
    # acceptance c10: its exhaustive decoder would scan about 3.5e13 patterns
    g32 = field(2, 5)
    G = FieldMatrix(g32, [[g32.pow(i + 1, j) for j in range(8)] for i in range(20)])
    c = generic_code(G, 13)
    rng = np.random.default_rng(3)
    path = tmp_path / "rec.json"
    path.write_bytes(serialize_record(enroll(random_vector(g32, 20, rng), c, rng=rng)))
    impostor = vector_to_text(random_vector(g32, 20, rng))
    res = runner.invoke(main, ["verify", str(path), "--w", impostor])
    assert res.exit_code == 2
    assert res.stdout == ""
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "force" not in lines[0]


def test_attack_pair_non_related(runner, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    runner.invoke(main, ["enroll", "--code", "bch:63:7", "--w", "random",
                         "--seed", "1", "--out", str(a)])
    runner.invoke(main, ["enroll", "--code", "bch:63:7", "--w", "random",
                         "--seed", "2", "--out", str(b)])
    res = runner.invoke(main, ["attack", "pair", str(a), str(b), "--b", "1"])
    assert res.exit_code == 1
    assert json.loads(res.output)["verdict"] == "non-related"


def test_attack_pair_hash_requires_digests(runner, tmp_path):
    a = tmp_path / "a.json"
    runner.invoke(main, ["enroll", "--code", "bch:31:5", "--w", "random",
                         "--seed", "1", "--out", str(a)])
    res = runner.invoke(main, ["attack", "pair", str(a), str(a), "--b", "0", "--hash"])
    assert res.exit_code == 2


def test_attack_pair_hash_solution_cap(runner, tmp_path):
    # identity transforms on (63, 24): each hit's coset has 2^24 solutions,
    # more than hash filtering enumerates; without --hash the pair links
    paths = [str(tmp_path / "a.json"), str(tmp_path / "b.json")]
    res = runner.invoke(main, ["enroll", "--code", "bch:63:7", "--w", "random", "--seed", "1",
                               "--transform", "identity", "--hash", "--out", paths[0],
                               "--print-w"])
    w_hex = res.output.strip().splitlines()[-1].split(" = ")[1]
    runner.invoke(main, ["enroll", "--code", "bch:63:7", "--w", w_hex, "--seed", "2",
                         "--transform", "identity", "--hash", "--out", paths[1]])
    res = runner.invoke(main, ["attack", "pair", *paths, "--b", "1", "--hash"])
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr.splitlines() == [
        f"error: hash filtering would enumerate {2 ** 24} solutions"]
    res = runner.invoke(main, ["attack", "pair", *paths, "--b", "1"])
    assert res.exit_code == 0
    assert json.loads(res.output)["all_solutions"] == 2 ** 24


def test_attack_pair_bad_record(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    res = runner.invoke(main, ["attack", "pair", str(bad), str(bad), "--b", "0"])
    assert res.exit_code == 2


def test_experiment_table1_json(runner, tmp_path):
    out = tmp_path / "rep.json"
    res = runner.invoke(main, ["experiment", "table1", "--code", "bch:31:5",
                               "--b", "0,1", "--trials", "25", "--mode", "related",
                               "--seed", "3", "--format", "json", "--out", str(out)])
    assert res.exit_code == 0
    rep = json.loads(out.read_bytes())
    assert [c["b"] for c in rep["cells"]] == [0, 1]
    assert all(c["linkage_rate"] == 1.0 for c in rep["cells"])


def test_experiment_table1_failed_run_leaves_no_file(runner, tmp_path):
    out = tmp_path / "rep.json"
    # C(255, 5) patterns: the run is refused by the pattern budget
    res = runner.invoke(main, ["experiment", "table1", "--code", "bch:255:26", "--b", "5",
                               "--trials", "1", "--out", str(out)])
    assert res.exit_code == 2
    assert len(res.stderr.splitlines()) == 1
    assert not out.exists()


def test_experiment_determinism_across_threads(runner, tmp_path):
    outs = []
    for threads in ("1", "4"):
        out = tmp_path / f"rep{threads}.json"
        res = runner.invoke(main, ["experiment", "table1", "--code", "bch:31:5",
                                   "--b", "0,1", "--trials", "30", "--seed", "11",
                                   "--threads", threads, "--no-timing",
                                   "--out", str(out)])
        assert res.exit_code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_experiment_secure_rng(runner, tmp_path):
    out = tmp_path / "rep.json"
    res = runner.invoke(main, ["experiment", "table1", "--code", "bch:31:5", "--b", "1",
                               "--trials", "8", "--mode", "related", "--secure-rng",
                               "--out", str(out)])
    assert res.exit_code == 0
    rep = json.loads(out.read_bytes())
    assert rep["rng"] == "os-entropy (non-reproducible)"
    [cell] = rep["cells"]
    assert (cell["b"], cell["trials"], cell["linked"]) == (1, 8, 8)


def test_experiment_guardrail_exit(runner):
    res = runner.invoke(main, ["experiment", "table1", "--code", "bch:255:26",
                               "--b", "5", "--trials", "1"])
    assert res.exit_code == 2
    assert "force" in res.output


def test_attack_pair_pattern_budget(runner, tmp_path, monkeypatch):
    paths = []
    for seed in (1, 2):
        path = tmp_path / f"r{seed}.json"
        res = runner.invoke(main, ["enroll", "--code", "bch:255:26", "--w", "random",
                                   "--seed", str(seed), "--out", str(path)])
        assert res.exit_code == 0
        paths.append(str(path))
    # C(255, 6) patterns: refused before any elimination or scan starts
    res = runner.invoke(main, ["attack", "pair", *paths, "--b", "6"])
    assert res.exit_code == 2
    assert res.stdout == ""
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "force" in lines[0]
    # --force overrides the budget, as it does for experiment table1
    monkeypatch.setattr(attacks, "PATTERN_BUDGET", 100)
    assert runner.invoke(main, ["attack", "pair", *paths, "--b", "1"]).exit_code == 2
    res = runner.invoke(main, ["attack", "pair", *paths, "--b", "1", "--force"])
    assert res.exit_code == 1
    assert json.loads(res.output)["verdict"] == "non-related"


def test_analyze_density(runner):
    res = runner.invoke(main, ["analyze", "density", "--code", "bch:31:5"])
    assert res.exit_code == 0
    out = json.loads(res.output)
    assert out["density"]["exact"] == "6449/32768"
    assert out["radius"] == 5


def test_analyze_union_bound(runner):
    res = runner.invoke(main, ["analyze", "union-bound", "--q", "2", "--n", "31",
                               "--rank", "21", "--b", "1"])
    assert res.exit_code == 0
    assert json.loads(res.output)["union_bound"]["exact"] == "1/32"


def test_analyze_linear_prob(runner):
    res = runner.invoke(main, ["analyze", "linear-prob", "--q", "32"])
    assert res.exit_code == 0
    out = json.loads(res.output)
    assert abs(out["affine_probability"]["log2"] + 108) < 0.5
    res = runner.invoke(main, ["analyze", "linear-prob", "--q", "2"])
    assert res.exit_code == 2


def test_analyze_linear_prob_large_fields(runner):
    # 2046! has more decimal digits than int -> str converts by default
    res = runner.invoke(main, ["analyze", "linear-prob", "--q", "2048"])
    assert res.exit_code == 0
    out = json.loads(res.output)["affine_probability"]
    num, den = out["exact"].split("/")
    assert num == "1" and int(Decimal(den)) == math.factorial(2046)
    assert out["float"] == 0.0
    res = runner.invoke(main, ["analyze", "linear-prob", "--q", str(MAX_ORDER + 1)])
    assert res.exit_code == 2
    assert res.stderr.splitlines() == [
        f"error: field order {MAX_ORDER + 1} exceeds supported maximum {MAX_ORDER}"]


def test_verify_theorem(runner):
    res = runner.invoke(main, ["verify-theorem", "--n", "2"])
    assert res.exit_code == 0
    assert "8 distance-preserving bijections" in res.output
    res = runner.invoke(main, ["verify-theorem", "--n", "9"])
    assert res.exit_code == 2


def test_demo_appendix(runner):
    res = runner.invoke(main, ["demo", "appendix", "--seed", "21"])
    assert res.exit_code == 0
    assert res.output.strip() in ("REVERTED", "RELATED")
    res = runner.invoke(main, ["demo", "appendix", "--seed", "21", "--non-related"])
    assert res.output.strip() == "NON-RELATED"
    res = runner.invoke(main, ["demo", "appendix", "--seed", "21", "--hash"])
    assert res.output.strip() == "REVERTED"


def test_usage_error_exit_code(runner):
    res = runner.invoke(main, ["attack", "pair", "--b", "0"])
    assert res.exit_code == 2


def _hashed_pair(tmp_path, algs=("sha256", "sha256"), transforms=("bit-permutation",) * 2,
                 code="bch:31:5", b=1, seed=17):
    """Two records of a distance-b pair on code, digests bound with the
    given algorithms; each transform is a kind drawn at random or a given
    descriptor.  Returns their paths and feature vectors."""
    rng = np.random.default_rng(seed)
    if isinstance(code, str):
        code = parse_code_descriptor(code)
    f, n = code.field, code.n
    w1 = random_vector(f, n, rng)
    ws = (w1, w1 + random_weight_vector(f, n, b, rng))
    paths = []
    for i, (w, alg, t) in enumerate(zip(ws, algs, transforms)):
        if isinstance(t, str):
            t = random_transform(t, n, f, rng)
        rec = enroll(w, code, t, with_hash=True, hash_id=alg, rng=rng)
        path = tmp_path / f"r{i}.json"
        path.write_bytes(serialize_record(rec))
        paths.append(str(path))
    return paths, ws


@pytest.mark.parametrize("algs", [("sha512", "sha512"), ("sha1", "sha512")])
def test_attack_pair_hash_reads_algorithm_from_digest(runner, tmp_path, algs):
    (a, b), (w1, w2) = _hashed_pair(tmp_path, algs)
    res = runner.invoke(main, ["attack", "pair", a, b, "--b", "1", "--hash"])
    assert res.exit_code == 0
    out = json.loads(res.output)
    assert out["hash_verified"] is True
    assert out["candidates"] == {"w1": vector_to_text(w1), "w2": vector_to_text(w2)}


def _vandermonde_code(f, n, k):
    """The (n, k) code over f with rows (x^0, ..., x^(k-1)), x = 1..n, which
    is MDS for n < q."""
    G = FieldMatrix(f, [[f.pow(i + 1, j) for j in range(k)] for i in range(n)])
    return generic_code(G, n - k + 1)


def _pair_json(runner, paths, b, *options):
    res = runner.invoke(main, ["attack", "pair", *paths, "--b", str(b), *options])
    assert res.exit_code in (0, 1), res.output
    out = json.loads(res.output)
    del out["elapsed_ms"]
    return out


# attack pair JSON, without elapsed_ms, of seeded related pairs on
# bch:31:5 at b = 2 (sha256 of the sorted-key dump); the last pair is
# affine over GF(16) with linear parts 3 and 7, so its digests are checked
# under a*G with a != 1
PAIR_PINS = {
    "identity/identity":
        "8c3f2eb1d456a9280a341a7302e70dca8dc075185571ecd2c129a6632fa410f6",
    "bit/bit":
        "c66caa4ea237b7129ec6a9a5d766b928ebf48766d39456dfe7a3583f18c941d6",
    "identity/bit":
        "fc7db4e9db5c69b496a4e0a16e4109ef971b5b57050d1f9c4dc0aeb62ba47d50",
    "affine/affine":
        "83edb284b877e0d9c386fb387e68282748dc0e5ab1480d4cc8247ec192541cd5",
    "affine/affine --hash":
        "07f2f891a8bff296860b86bcffbe7a8c8c37189370356a82d42e65e908073268",
    "gf16-affine/affine --hash":
        "5304883b833ea59d351d5858fe71461763d38e940fe075438ba9eaa17b99c8f4",
}


def _pinned_pair(tmp_path, case):
    g16 = field(2, 4)
    kinds = {"identity": "identity", "bit": "bit-permutation", "affine": "field-permutation"}
    if case.startswith("gf16"):
        sigmas = [tuple(g16.add(g16.mul(a, x), c) for x in range(16)) for a, c in ((3, 5), (7, 0))]
        transforms = [TransformDescriptor("field-permutation", 15, g16, sigma=sg) for sg in sigmas]
        return _hashed_pair(tmp_path, transforms=transforms, code=_vandermonde_code(g16, 15, 3),
                            b=2, seed=31)
    first, second = case.split()[0].split("/")
    return _hashed_pair(tmp_path, transforms=(kinds[first], kinds[second]), b=2, seed=29)


@pytest.mark.parametrize("case", sorted(PAIR_PINS))
def test_attack_pair_json_pinned(runner, tmp_path, case):
    paths, _ = _pinned_pair(tmp_path, case)
    out = _pair_json(runner, paths, 2, *case.split()[1:])
    assert out["verdict"] == "related"
    digest = hashlib.sha256(json.dumps(out, sort_keys=True).encode()).hexdigest()
    assert digest == PAIR_PINS[case]


def test_attack_pair_affine_field_permutation_hash_recovers(runner, tmp_path):
    paths, (w1, w2) = _pinned_pair(tmp_path, "gf16-affine/affine --hash")
    out = _pair_json(runner, paths, 2, "--hash")
    assert out["hash_verified"] is True
    assert out["candidates"] == {"w1": vector_to_text(w1), "w2": vector_to_text(w2)}


def test_attack_pair_non_affine_field_permutation(runner, tmp_path):
    # one non-affine sigma on both records of a distance-1 pair: the raw
    # commitments' offset is sigma(w1) - sigma(w2) plus a codeword, which
    # has weight 1, so the pair links without stripping sigma
    g16 = field(2, 4)
    code = _vandermonde_code(g16, 15, 3)
    sigma = (0, 1, 3, 2) + tuple(range(4, 16))
    assert detect_affine(sigma, g16) is None
    t = TransformDescriptor("field-permutation", 15, g16, sigma=sigma)
    paths, _ = _hashed_pair(tmp_path, transforms=(t, t), code=code, b=1, seed=37)
    out = _pair_json(runner, paths, 1)
    recs = [parse_record(Path(p).read_bytes()) for p in paths]
    ref = attacks.generalized_attack(code.G, code.G, recs[0].commitment, recs[1].commitment, 1)
    assert ref.related
    assert out["verdict"] == ref.verdict
    assert out["error_pattern"] == vector_to_text(ref.error_pattern)
    assert out["patterns_scanned"] == ref.patterns_scanned
    assert out["candidates"] == {"w1": vector_to_text(apply_inverse(t, ref.candidates[0])),
                                 "w2": vector_to_text(apply_inverse(t, ref.candidates[1]))}


def test_attack_pair_mixed_transform_kinds_run(runner, tmp_path):
    paths, _ = _hashed_pair(tmp_path, transforms=("identity", "field-permutation"), b=1)
    res = runner.invoke(main, ["attack", "pair", *paths, "--b", "1"])
    assert res.exit_code in (0, 1), res.output


HAMMING_7_4 = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1],
               [1, 1, 0, 1], [1, 0, 1, 1], [0, 1, 1, 1]]


def _base_record(kind):
    rng = np.random.default_rng(5)
    if kind == "bch":
        code = parse_code_descriptor("bch:31:5")
        t = random_transform("bit-permutation", code.n, GF2, rng)
        rec = enroll(random_vector(GF2, code.n, rng), code, t, with_hash=True, rng=rng)
    else:  # inline generic (7, 4) Hamming code
        code = generic_code(FieldMatrix(GF2, HAMMING_7_4), 3)
        rec = enroll(random_vector(GF2, code.n, rng), code, rng=rng)
    return json.loads(serialize_record(rec))


MALFORMED = {
    "transform-list": ("bch", ("transform",), []),
    "perm-missing": ("bch", ("transform",), {"type": "bit-permutation"}),
    "sigma-missing": ("bch", ("transform",), {"type": "field-permutation"}),
    "code-length-text": ("bch", ("code",), "bch:abc:5"),
    "hash-alg-list": ("bch", ("hash", "alg"), ["x"]),
    "generator-int": ("inline", ("code", "generator"), 5),
    "generator-nested": ("inline", ("code", "generator"), [[[1]]] * 7),
    "d-null": ("inline", ("code", "d"), None),
    # numbers that are not JSON integers, once rewritten by int() and accepted
    "perm-float": ("bch", ("transform", "perm"), [i + 0.4 for i in range(31)]),
    "field-p-text": ("bch", ("field", "p"), "2"),
    "field-m-bool": ("bch", ("field", "m"), True),
    "code-p-float": ("inline", ("code", "field", "p"), 2.7),
    "generator-bool": ("inline", ("code", "generator"),
                       [[x == 1 for x in row] for row in HAMMING_7_4]),
    "generator-text": ("inline", ("code", "generator"),
                       [[str(x) for x in row] for row in HAMMING_7_4]),
    "d-float": ("inline", ("code", "d"), 3.5),
    "version-bool": ("bch", ("version",), True),
    "version-float": ("bch", ("version",), 1.0),
    # other spellings of bch:31:5, once resolved to it by int()
    "code-length-signed": ("bch", ("code",), "bch: +3_1:5"),
    "code-length-arabic-indic": ("bch", ("code",), "bch:\u0663\u0661:5"),
    "code-length-zero-padded": ("bch", ("code",), "bch:031:5"),
    "code-t-spaced": ("bch", ("code",), "bch:31: 5"),
}


@pytest.mark.parametrize("shape", sorted(MALFORMED))
def test_malformed_record_fails_cleanly(runner, tmp_path, shape):
    kind, member, value = MALFORMED[shape]
    obj = _base_record(kind)
    target = obj
    for key in member[:-1]:
        target = target[key]
    target[member[-1]] = value
    data = json.dumps(obj).encode()
    try:
        rec = parse_record(data)
    except (RecordFormatError, MalformedRecordError):
        pass
    else:
        with pytest.raises(ValueError):
            resolve_code(rec)
    path = tmp_path / "bad.json"
    path.write_bytes(data)
    res = runner.invoke(main, ["attack", "pair", str(path), str(path), "--b", "1"])
    assert res.exit_code == 2
    assert res.stdout == ""
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


@pytest.mark.parametrize("args", [
    ["enroll", "--code", "bch:31:5", "--w", "random", "--seed", "1", "--noise-z", "-1",
     "--out", "{tmp}/r.json"],
    ["experiment", "table1", "--code", "bch:31:5", "--b", "0", "--trials", "2",
     "--noise-z", "-3"],
], ids=["enroll", "table1"])
def test_negative_noise_exits_2_with_clear_error(runner, tmp_path, args):
    res = runner.invoke(main, [a.format(tmp=tmp_path) for a in args])
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr.splitlines() == ["error: noise flips must be >= 0"]


# inputs that used to escape the error boundary with a traceback
BAD_INPUTS = {
    "enroll-out-missing-dir": ["enroll", "--code", "bch:31:5", "--w", "random",
                               "--seed", "1", "--out", "{missing}/r.json"],
    "table1-out-missing-dir": ["experiment", "table1", "--code", "bch:31:5", "--b", "0",
                               "--trials", "2", "--out", "{missing}/t.json"],
    "enroll-negative-seed": ["enroll", "--code", "bch:31:5", "--w", "random",
                             "--seed", "-1", "--out", "{tmp}/r.json"],
    "demo-negative-hw": ["demo", "appendix", "--seed", "1", "--hw", "-1"],
    # 2t >= n, refused before the BCH construction walks the cosets of 1..2t
    "code-info-huge-t": ["code", "info", "bch:31:10000000"],
    "demo-hw-beyond-n": ["demo", "appendix", "--seed", "1", "--hw", "200"],
    # sizes beyond analysis.MAX_LENGTH, refused before any exact arithmetic
    "union-bound-huge-n": ["analyze", "union-bound", "--q", "2", "--n", "1000000000",
                           "--rank", "1", "--b", "1000000000"],
    "density-huge-n": ["analyze", "density", "--q", "2", "--n", "1000000000",
                       "--k", "1", "--radius", "1000000000"],
    "density-huge-k": ["analyze", "density", "--q", "2", "--n", "10", "--k", "-1000000000",
                       "--radius", "1"],
    "density-zero-q": ["analyze", "density", "--q", "0", "--n", "10", "--k", "1",
                       "--radius", "1"],
    # a density of 2^1024 has no float
    "density-float-overflow": ["analyze", "density", "--q", "2", "--n", "1024",
                               "--k", "1024", "--radius", "1024"],
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_2_with_one_error_line(runner, tmp_path, monkeypatch, case):
    args = [a.format(tmp=tmp_path, missing=tmp_path / "missing") for a in BAD_INPUTS[case]]
    runs = []
    monkeypatch.setattr(experiments, "run_table1", runs.append)
    res = runner.invoke(main, args)
    assert runs == []  # table1-out-missing-dir fails before the first trial
    assert res.exit_code == 2
    assert type(res.exception) is SystemExit
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
