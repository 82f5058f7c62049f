"""Command-line front end.

Exit codes: linkage-style commands exit 0 for a positive outcome
(Related / Accept), 1 for the negative one, 2 on usage or input errors.
Input errors are reported in one place, :class:`_Main`: any ValueError,
OSError, OverflowError or ResourceCapError a command raises becomes one
``error:`` line on stderr and exit 2.
"""

from __future__ import annotations

import json
import math
import os
import sys
from decimal import Decimal
from fractions import Fraction

import click
import numpy as np

from . import analysis, attacks, codes, commitment, experiments, transforms
from .linalg import random_vector, random_weight_vector


def _fail(message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(2)


def _load_record(path: str) -> commitment.Record:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return commitment.parse_record(data)
    except (commitment.RecordFormatError, commitment.MalformedRecordError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def _rng(seed):
    return np.random.default_rng(seed)


def _fraction_json(x: Fraction) -> dict:
    # float underflows to 0.0 for tiny values; log2 stays exact.  Decimal
    # renders integers beyond the int -> str digit limit (1/(q-2)! passes
    # it from q ~ 1560 on)
    return {
        "exact": f"{Decimal(x.numerator)}/{Decimal(x.denominator)}",
        "float": float(x),
        "log2": analysis.log2_fraction(x) if x > 0 else None,
    }


class _Main(click.Group):
    """The error boundary of every command."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (ValueError, OSError, OverflowError, attacks.ResourceCapError) as exc:
            _fail(str(exc))


@click.group(cls=_Main)
def main():
    """Fuzzy commitments over linear codes and the attacks that link them."""


# ---------------------------------------------------------------------------
# code info
# ---------------------------------------------------------------------------

@main.group()
def code():
    """Inspect code constructions."""


@code.command("info")
@click.argument("descriptor")
def code_info(descriptor):
    """Print parameters of a code descriptor such as bch:31:5."""
    c = codes.parse_code_descriptor(descriptor)
    dens = analysis.sphere_packing_density(
        analysis.DensityQuery(q=c.field.q, n=c.n, k=c.k, d=c.d))
    click.echo(f"code {descriptor}: n={c.n} k={c.k} d={c.d} t={c.t} "
               f"field=GF({c.field.q}) decoder={c.decoder}")
    click.echo(f"sphere packing density = {float(dens):.6g} "
               f"({dens.numerator}/{dens.denominator})")


# ---------------------------------------------------------------------------
# enroll / verify
# ---------------------------------------------------------------------------

@main.command()
@click.option("--code", "descriptor", required=True, help="code descriptor, e.g. bch:31:5")
@click.option("--w", "w_text", required=True,
              help='feature vector: hex (GF(2)) / comma ints, or "random"')
@click.option("--transform", "transform_kind", default="bit-permutation",
              type=click.Choice(transforms.VARIANTS), show_default=True)
@click.option("--hash/--no-hash", "with_hash", default=False, show_default=True,
              help="bind the drawn codeword with a digest")
@click.option("--noise-z", default=0, show_default=True,
              help="enrollment-time random bit flips (GF(2) only)")
@click.option("--seed", type=int, default=None, help="RNG seed (default: OS entropy)")
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
@click.option("--print-w", is_flag=True, help="echo the enrolled feature vector")
def enroll(descriptor, w_text, transform_kind, with_hash, noise_z, seed, out_path, print_w):
    """Create a protected record file."""
    c = codes.parse_code_descriptor(descriptor)
    rng = _rng(seed)
    if w_text == "random":
        w = random_vector(c.field, c.n, rng)
    else:
        w = commitment.vector_from_text(w_text, c.field, c.n)
    t = transforms.random_transform(transform_kind, c.n, c.field, rng)
    rec = commitment.enroll(w, c, t, with_hash=with_hash, noise_flips=noise_z, rng=rng)
    with open(out_path, "wb") as fh:
        fh.write(commitment.serialize_record(rec))
    click.echo(f"record written to {out_path}")
    if print_w:
        click.echo(f"w = {commitment.vector_to_text(w)}")


@main.command()
@click.argument("record_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--w", "w_text", required=True, help="candidate feature vector")
def verify(record_path, w_text):
    """Verify a candidate feature vector against a record (exit 0/1)."""
    rec = _load_record(record_path)
    c = commitment.resolve_code(rec)
    w = commitment.vector_from_text(w_text, c.field, c.n)
    result = commitment.verify(rec, c, w)
    if result.accepted:
        kind = "hash-verified" if result.hash_checked else "unverified (no digest bound)"
        click.echo(f"ACCEPT ({kind})")
        sys.exit(0)
    click.echo("REJECT")
    sys.exit(1)


# ---------------------------------------------------------------------------
# attacks
# ---------------------------------------------------------------------------

def _outcome_json(out: attacks.AttackOutcome) -> dict:
    return {
        "verdict": out.verdict,
        "candidates": None if out.candidates is None else {
            "w1": commitment.vector_to_text(out.candidates[0]),
            "w2": commitment.vector_to_text(out.candidates[1]),
        },
        "all_solutions": out.all_solutions,
        "hash_verified": out.hash_verified,
        "error_pattern": None if out.error_pattern is None
        else commitment.vector_to_text(out.error_pattern),
        "patterns_scanned": out.patterns_scanned,
        "elapsed_ms": round(out.elapsed * 1e3, 3),
        "gtilde_rank": out.gtilde_rank,
        "degenerate": out.degenerate,
    }


@main.group()
def attack():
    """Run linkage attacks on record files."""


@attack.command("pair")
@click.argument("rec1_path", type=click.Path(exists=True, dir_okay=False))
@click.argument("rec2_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--b", "bound", type=int, required=True, help="error-pattern weight bound")
@click.option("--hash", "use_hash", is_flag=True,
              help="filter candidates through the records' codeword digests")
@click.option("--force", is_flag=True, help="override the pattern-budget guardrail")
def attack_pair(rec1_path, rec2_path, bound, use_hash, force):
    """Attack two records; exit 0 = related, 1 = non-related, 2 = error."""
    r1 = _load_record(rec1_path)
    r2 = _load_record(rec2_path)
    if r1.code_id != r2.code_id:
        _fail("records use different codes")
    c = commitment.resolve_code(r1)
    attacks.check_pattern_budget(c.field.q, c.n, bound, force)
    hashes = None
    if use_hash:
        if r1.codeword_hash is None or r2.codeword_hash is None:
            _fail("--hash requires digests in both records")
        hashes = (r1.codeword_hash, r2.codeword_hash)
    out = attacks.attack_records(c, (r1.commitment, r1.transform),
                                 (r2.commitment, r2.transform), bound, hashes=hashes)
    click.echo(json.dumps(_outcome_json(out), indent=2))
    sys.exit(0 if out.related else 1)


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

@main.group()
def experiment():
    """Monte Carlo linkage/recovery experiments."""


@experiment.command("table1")
@click.option("--code", "descriptor", required=True)
@click.option("--b", "b_list", required=True,
              help="comma-separated weight bounds, e.g. 0,1,2,3")
@click.option("--trials", type=int, required=True)
@click.option("--mode", type=click.Choice(experiments.MODES), default="related",
              show_default=True)
@click.option("--related-sampling", type=click.Choice(experiments.SAMPLING),
              default="exact-weight", show_default=True)
@click.option("--sampling-weight", type=int, default=None,
              help="exact related distance (default: the cell's b)")
@click.option("--transform", type=click.Choice(transforms.VARIANTS),
              default="bit-permutation", show_default=True)
@click.option("--with-hash", is_flag=True)
@click.option("--noise-z", type=int, default=0, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--threads", type=int, default=1, show_default=True)
@click.option("--format", "fmt", type=click.Choice(("csv", "json")), default="json",
              show_default=True)
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None,
              help="output path (default: stdout)")
@click.option("--timing/--no-timing", default=True, show_default=True,
              help="include wall-clock timing in the report (timing is the "
                   "only non-deterministic report content)")
@click.option("--force", is_flag=True, help="override the pattern-budget guardrail")
@click.option("--secure-rng", is_flag=True,
              help="use OS entropy per trial; reproducibility is waived")
def experiment_table1(descriptor, b_list, trials, mode, related_sampling,
                      sampling_weight, transform, with_hash, noise_z, seed,
                      threads, fmt, out_path, timing, force, secure_rng):
    """Measure linkage/recovery rates over a grid of weight bounds."""
    try:
        b_values = tuple(int(x) for x in b_list.split(",") if x != "")
    except ValueError:
        _fail(f"bad --b list: {b_list!r}")
    config = experiments.ExperimentConfig(
        code=descriptor, b_values=b_values, trials=trials, mode=mode,
        related_sampling=related_sampling, sampling_weight=sampling_weight,
        transform=transform, with_hash=with_hash, noise_z=noise_z,
        seed=seed, threads=threads, force=force, secure_rng=secure_rng)
    if out_path is None:
        report = experiments.run_table1(config)
        experiments.write_report(report, fmt, click.get_binary_stream("stdout"),
                                 include_timing=timing)
        return
    # open first, so a path that cannot be written fails before the first trial
    with open(out_path, "wb") as fh:
        try:
            report = experiments.run_table1(config)
        except BaseException:
            os.remove(out_path)
            raise
        n = experiments.write_report(report, fmt, fh, include_timing=timing)
    click.echo(f"{n} bytes written to {out_path}", err=True)


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------

@main.group()
def analyze():
    """Closed-form quantities (exact rational + float + log2)."""


@analyze.command("density")
@click.option("--code", "descriptor", default=None, help="take q,n,k,d from a code")
@click.option("--q", type=int, default=None)
@click.option("--n", type=int, default=None)
@click.option("--k", type=int, default=None)
@click.option("--d", type=int, default=None)
@click.option("--radius", type=int, default=None, help="explicit radius instead of (d-1)/2")
def analyze_density(descriptor, q, n, k, d, radius):
    """Sphere packing density."""
    if descriptor is not None:
        c = codes.parse_code_descriptor(descriptor)
        q, n, k = c.field.q, c.n, c.k
        if d is None and radius is None:
            d = c.d
    if None in (q, n, k):
        _fail("give --code or all of --q/--n/--k")
    query = analysis.DensityQuery(q=q, n=n, k=k, d=d, radius=radius)
    dens = analysis.sphere_packing_density(query)
    click.echo(json.dumps({"density": _fraction_json(dens),
                           "radius": query.effective_radius}, indent=2))


@analyze.command("union-bound")
@click.option("--q", type=int, required=True)
@click.option("--n", type=int, required=True)
@click.option("--rank", "rank_", type=int, required=True,
              help="rank of the concatenated generator")
@click.option("--b", type=int, required=True)
def analyze_union_bound(q, n, rank_, b):
    """Union bound on the non-related linkage rate (an upper bound, not a
    prediction)."""
    val = analysis.union_bound_linkage(q, n, rank_, b)
    click.echo(json.dumps({"union_bound": _fraction_json(val)}, indent=2))


@analyze.command("linear-prob")
@click.option("--q", type=int, required=True)
def analyze_linear_prob(q):
    """Probability that a random field bijection is affine: 1/(q-2)!."""
    val = analysis.linear_map_probability(q)
    click.echo(json.dumps({"affine_probability": _fraction_json(val)}, indent=2))


# ---------------------------------------------------------------------------
# oracles / demo
# ---------------------------------------------------------------------------

@main.command("verify-theorem")
@click.option("--n", "n_", type=int, required=True, help="domain dimension, 1..3")
def verify_theorem(n_):
    """Exhaustively enumerate the distance-preserving bijections of {0,1}^n
    and check that each is a bit permutation plus a constant shift."""
    maps = transforms.enumerate_distance_preserving_bijections(n_)
    expected = math.factorial(n_) * 2 ** n_
    click.echo(f"{len(maps)} distance-preserving bijections of {{0,1}}^{n_}; "
               f"all decompose as P*v XOR s (expected n!*2^n = {expected})")
    sys.exit(0 if len(maps) == expected else 1)


@main.group()
def demo():
    """Narrative demonstrations."""


@demo.command("appendix")
@click.option("--seed", type=int, default=None, help="RNG seed (default: OS entropy)")
@click.option("--hw", type=int, default=4, show_default=True,
              help="Hamming distance of the related pair / scan bound")
@click.option("--non-related", is_flag=True, help="draw an independent second vector")
@click.option("--hash", "use_hash", is_flag=True, help="filter through codeword digests")
def demo_appendix(seed, hw, non_related, use_hash):
    """Replay the permuted-records walkthrough on the (127,36,31) code."""
    rng = _rng(seed)
    c = codes.bch_build(7, 15)
    n = c.n
    w1 = random_vector(c.field, n, rng)
    if non_related:
        w2 = random_vector(c.field, n, rng)
    else:
        w2 = w1 + random_weight_vector(c.field, n, hw, rng)
    t1 = transforms.random_transform("bit-permutation", n, c.field, rng)
    t2 = transforms.random_transform("bit-permutation", n, c.field, rng)
    rec1 = commitment.enroll(w1, c, t1, with_hash=use_hash, rng=rng)
    rec2 = commitment.enroll(w2, c, t2, with_hash=use_hash, rng=rng)
    hashes = (rec1.codeword_hash, rec2.codeword_hash) if use_hash else None
    out = attacks.attack_records(c, (rec1.commitment, t1), (rec2.commitment, t2), hw,
                                 hashes=hashes)
    if not out.related:
        click.echo("NON-RELATED")
    elif out.candidates == (w1, w2):
        click.echo("REVERTED")
    else:
        click.echo("RELATED")


if __name__ == "__main__":
    main()
