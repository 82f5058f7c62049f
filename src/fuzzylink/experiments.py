"""Monte Carlo harness for linkage/recovery rate grids.

One run covers a single code and mode over a list of weight bounds.  Per
trial: draw a feature-vector pair (related pairs differ by a sampled
error pattern, non-related pairs are independent), draw two transforms
and two codewords independently, build the commitments and attack them
with :func:`~fuzzylink.attacks.attack_records`, whatever the transform.
A trial counts as a linkage when the attack outputs candidates and as a
recovery when the candidates are exactly the enrolled feature vectors.

Trials are independent and may run on several threads; every trial owns
an RNG stream derived from (master seed, cell index, trial index), and
aggregation is order-independent, so reports are identical for any
thread count.  Wall-clock timing is the one non-deterministic output and
can be omitted from serialized reports.
"""

from __future__ import annotations

import csv
import io
import json
import statistics
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .attacks import attack_records, check_pattern_budget, pattern_at, pattern_count
from .codes import LinearCode, parse_code_descriptor
from .commitment import enroll
from .linalg import FieldVector, random_vector, random_weight_vector
from .transforms import random_transform

RNG_ID = "pcg64:seedseq(seed,cell,trial)"
REPORT_VERSION = 1

MODES = ("related", "non-related")
SAMPLING = ("exact-weight", "uniform-ball")


@dataclass(frozen=True)
class ExperimentConfig:
    code: str
    b_values: tuple
    trials: int
    mode: str = "related"
    related_sampling: str = "exact-weight"
    sampling_weight: int | None = None  # None: use b of the cell
    transform: str = "bit-permutation"
    with_hash: bool = False
    noise_z: int = 0
    seed: int = 0
    threads: int = 1
    force: bool = False
    secure_rng: bool = False

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.related_sampling not in SAMPLING:
            raise ValueError(f"related_sampling must be one of {SAMPLING}")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if self.b_values is None:
            raise ValueError("b_values must be a sequence of weight bounds")
        object.__setattr__(self, "b_values", tuple(int(b) for b in self.b_values))


@dataclass(frozen=True)
class CellReport:
    code: str
    n: int
    k: int
    d: int
    b: int
    mode: str
    trials: int
    linked: int
    recovered: int
    patterns_mean: float
    patterns_median: float
    patterns_max: int
    rank_histogram: dict
    time_mean_ms: float
    time_median_ms: float

    @property
    def linkage_rate(self) -> float:
        return self.linked / self.trials

    @property
    def recovery_rate(self) -> float:
        return self.recovered / self.trials


@dataclass(frozen=True)
class ExperimentReport:
    config: ExperimentConfig
    cells: tuple
    rng_id: str = RNG_ID

    def cell(self, b: int) -> CellReport:
        for c in self.cells:
            if c.b == b:
                return c
        raise KeyError(b)


@dataclass(frozen=True)
class _TrialResult:
    linked: bool
    recovered: bool
    patterns_scanned: int
    elapsed: float
    gtilde_rank: int


def _trial_rng(config: ExperimentConfig, cell_index: int, trial_index: int):
    if config.secure_rng:
        return np.random.default_rng()
    ss = np.random.SeedSequence(entropy=config.seed, spawn_key=(cell_index, trial_index))
    return np.random.default_rng(ss)


def _ball_pattern(f, n, b, rng):
    support, values = pattern_at(f.q, n, int(rng.integers(0, pattern_count(f.q, n, b))))
    return FieldVector.from_support(f, n, support, values)


def run_cell(code: LinearCode, b: int, config: ExperimentConfig, cell_index: int) -> CellReport:
    f = code.field
    n = code.n
    check_pattern_budget(f.q, n, b, config.force)
    if config.mode == "related":
        w_exact = config.sampling_weight if config.sampling_weight is not None else b
        if not 0 <= w_exact <= b:
            raise ValueError("related sampling weight must be within the scan bound")

    def one_trial(trial_index: int) -> _TrialResult:
        rng = _trial_rng(config, cell_index, trial_index)
        w1 = random_vector(f, n, rng)
        if config.mode == "related":
            if config.related_sampling == "exact-weight":
                e = random_weight_vector(f, n, w_exact, rng)
            else:
                e = _ball_pattern(f, n, b, rng)
            w2 = w1 + e
        else:
            w2 = random_vector(f, n, rng)
        t1 = random_transform(config.transform, n, f, rng)
        t2 = random_transform(config.transform, n, f, rng)
        rec1 = enroll(w1, code, t1, with_hash=config.with_hash,
                      noise_flips=config.noise_z, rng=rng)
        rec2 = enroll(w2, code, t2, with_hash=config.with_hash,
                      noise_flips=config.noise_z, rng=rng)
        hashes = (rec1.codeword_hash, rec2.codeword_hash) if config.with_hash else None
        out = attack_records(code, (rec1.commitment, t1), (rec2.commitment, t2), b,
                             hashes=hashes)
        return _TrialResult(out.related, out.related and out.candidates == (w1, w2),
                            out.patterns_scanned, out.elapsed, out.gtilde_rank)

    if config.threads == 1:
        results = [one_trial(i) for i in range(config.trials)]
    else:
        with ThreadPoolExecutor(max_workers=config.threads) as pool:
            results = list(pool.map(one_trial, range(config.trials)))

    ranks = Counter(r.gtilde_rank for r in results)
    scanned = [r.patterns_scanned for r in results]
    times = [r.elapsed for r in results]
    return CellReport(
        code=config.code, n=n, k=code.k, d=code.d, b=b, mode=config.mode,
        trials=config.trials,
        linked=sum(r.linked for r in results),
        recovered=sum(r.recovered for r in results),
        patterns_mean=statistics.fmean(scanned),
        patterns_median=float(statistics.median(scanned)),
        patterns_max=max(scanned),
        rank_histogram={str(k_): v for k_, v in sorted(ranks.items())},
        time_mean_ms=statistics.fmean(times) * 1e3,
        time_median_ms=float(statistics.median(times)) * 1e3,
    )


def run_table1(config: ExperimentConfig) -> ExperimentReport:
    """Run every (code, b) cell of the configured grid."""
    code = parse_code_descriptor(config.code)
    for b in config.b_values:
        if not 0 <= b <= code.n:
            raise ValueError(f"weight bound {b} out of range for n={code.n}")
    cells = tuple(run_cell(code, b, config, ci) for ci, b in enumerate(config.b_values))
    return ExperimentReport(config, cells)


# ---------------------------------------------------------------------------
# report serialization
# ---------------------------------------------------------------------------

CSV_COLUMNS = ("code", "n", "k", "d", "b", "mode", "trials", "linkage_rate",
               "recovery_rate", "mean_time_ms", "median_time_ms", "seed")


def report_to_dict(report: ExperimentReport, include_timing: bool = True) -> dict:
    cfg = report.config
    out = {
        "version": REPORT_VERSION,
        "rng": report.rng_id if not cfg.secure_rng else "os-entropy (non-reproducible)",
        "config": {
            "code": cfg.code,
            "b_values": list(cfg.b_values),
            "trials": cfg.trials,
            "mode": cfg.mode,
            "related_sampling": cfg.related_sampling,
            "sampling_weight": cfg.sampling_weight,
            "transform": cfg.transform,
            "with_hash": cfg.with_hash,
            "noise_z": cfg.noise_z,
            "seed": cfg.seed,
        },
        "cells": [],
    }
    for c in report.cells:
        cell = {
            "code": c.code, "n": c.n, "k": c.k, "d": c.d, "b": c.b,
            "mode": c.mode, "trials": c.trials,
            "linked": c.linked, "recovered": c.recovered,
            "linkage_rate": round(c.linkage_rate, 6),
            "recovery_rate": round(c.recovery_rate, 6),
            "patterns_scanned": {
                "mean": round(c.patterns_mean, 3),
                "median": c.patterns_median,
                "max": c.patterns_max,
            },
            "rank_histogram": c.rank_histogram,
        }
        if include_timing:
            cell["timing_ms"] = {
                "mean": round(c.time_mean_ms, 4),
                "median": round(c.time_median_ms, 4),
            }
        out["cells"].append(cell)
    return out


def write_report(report: ExperimentReport, fmt: str, sink, include_timing: bool = True) -> int:
    """Serialize to an open binary file-like sink; returns bytes written."""
    if fmt == "json":
        data = (json.dumps(report_to_dict(report, include_timing), indent=2) + "\n").encode()
        sink.write(data)
        return len(data)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for c in report.cells:
            writer.writerow([
                c.code, c.n, c.k, c.d, c.b, c.mode, c.trials,
                f"{c.linkage_rate:.4f}", f"{c.recovery_rate:.4f}",
                f"{c.time_mean_ms:.3f}" if include_timing else "",
                f"{c.time_median_ms:.3f}" if include_timing else "",
                report.config.seed,
            ])
        data = buf.getvalue().encode()
        sink.write(data)
        return len(data)
    raise ValueError(f"unknown report format {fmt!r}")
