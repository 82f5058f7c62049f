#!/usr/bin/env python3
"""The fuzzylink benchmark.

    python3 perfbench/run.py --workload link-127-b4 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout; it imports the library from ``src/``.
One process drives the library in a closed loop, one op at a time, with no
threads.  A run spends ``OP_SHARE`` of ``--seconds`` on ops and the rest on
``experiments.run_table1`` calls.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` records spans around the library calls, replays the
attack stages and reports the per-layer metrics.  Set-up time is measured
in fresh child processes, run one after another before the ops start.
End-to-end op and Table-1 times are read on the thread CPU clock, which
leaves out the time the hypervisor runs other guests (see ``cpu_clock``).
Times and rates are reported at the speed of the interpreter-speed gauge
(gauge.py), which cancels the host's speed drift; the unscaled values are
kept under ``samples.raw`` in the run's detail file.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The run's details
(environment, deterministic counters, sample counts, self-test, failures)
go to ``<out>/<workload>/seed<seed>-trace<0|1>.json`` and the traced run's
spans to ``<out>/<workload>/seed<seed>-spans.jsonl``.  The exit code is 0
when every op passed its correctness check, 1 when one did not, and 2 on
a usage error or when the library sources are missing.

``analysis`` and ``cli`` are not measured: ``analysis`` is on no hot path
(closed-form rates, evaluated once per report), and ``cli`` is a thin click
front end whose cost is process start.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter, thread_time

from gauge import Gauge

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

OP_SHARE = 0.65      # share of --seconds spent on ops; the rest on Table-1 calls
CPU_SHARE_MIN = 0.5  # below this share of thread CPU in wall time, read the wall clock
SETUP_RUNS = 7       # child processes per run for setup_s
BUILD_RUNS = 5       # cold code builds and field-table builds in the traced run
GAUGE_EVERY_S = 0.02     # op time between two gauge ticks

END_TO_END = {
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "table1_trials_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# per-layer metric -> (unit, source).  "op:<span>" is the median over ops of
# the span's total time in the op, "call:<span>" the median over calls,
# "val:<key>" the median of a per-op value; the rest are computed below.
PER_LAYER = {
    "linalg.eliminate_ms": ("ms", "op:linalg.eliminate"),
    "linalg.solve_ms": ("ms", "op:linalg.solve"),
    "linalg.unpermute_us": ("us", "op:linalg.unpermute"),
    "attacks.scan_ms": ("ms", "op:attacks.scan"),
    "attacks.scan_ms.w1": ("ms", "val:scan_through.w1"),
    "attacks.scan_ms.w2": ("ms", "val:scan_through.w2"),
    "attacks.scan_ms.w3": ("ms", "val:scan_through.w3"),
    "attacks.scan_ms.w4": ("ms", "val:scan_through.w4"),
    "attacks.patterns_scanned": ("count", None),
    "attacks.patterns_per_ms": ("1/ms", None),
    "attacks.attack_ms": ("ms", "op:attacks.attack"),
    "attacks.unattributed_frac": ("ratio", "val:unattributed"),
    "attacks.hits_tested": ("count", None),
    "attacks.spurious_hits": ("count", None),
    "attacks.hit_useful_frac": ("ratio", None),
    "attacks.solutions_enumerated": ("count", None),
    "commitment.enroll_us": ("us", "call:commitment.enroll"),
    "commitment.serialize_us": ("us", "call:commitment.serialize"),
    "commitment.parse_us": ("us", "call:commitment.parse"),
    "commitment.verify_us": ("us", "call:commitment.verify"),
    "commitment.digest_us": ("us", "call:commitment.digest"),
    "codes.decode_us": ("us", "call:codes.decode"),
    "codes.decode_calls": ("count", None),
    "codes.decode_reject_frac": ("ratio", None),
    "codes.build_ms": ("ms", "call:codes.build"),
    "transforms.apply_us": ("us", "call:transforms.apply"),
    "transforms.detect_affine_us": ("us", "call:transforms.detect_affine"),
    "fields.mul_ns": ("ns", "val:fields.mul_ns"),
    "fields.table_build_ms": ("ms", "call:fields.table_build"),
    "experiments.trial_ms": ("ms", None),
    "experiments.overhead_frac": ("ratio", None),
    "trace.op_ms_p50": ("ms", None),
    "trace.overhead_ms": ("ms", None),
    "trace.overhead_frac": ("ratio", None),
}
SCALE = {"ms": 1e3, "us": 1e6, "s": 1.0}


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """sha256 over the library sources, which names the code under test
    even where the checkout carries no git metadata."""
    h = hashlib.sha256()
    for path in sorted((SRC / "fuzzylink").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "workload_seed": seed,
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# phases
# ---------------------------------------------------------------------------

def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """(raw, gauge-scaled) setup_s of SETUP_RUNS fresh processes, run one
    after another; each child gauges the machine right after its set-up."""
    raw, scaled = [], []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_child.py"), "--workload", workload,
             "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        child = json.loads(proc.stdout.strip().splitlines()[-1])
        raw.append(child["setup_s"])
        scaled.append(child["setup_s"] * child["gauge_factor"])
    return raw, scaled


def self_test(wl, code, seed, notrace) -> dict:
    """Feed the correctness check deliberately corrupted results; each one
    must be caught, which shows the check is live."""
    inp = wl.make_input(code, seed, 0, notrace)
    res = wl.run_op(code, inp, notrace)
    caught = {"genuine_result_passes": not wl.check(code, inp, res)}
    for name, bad in wl.corruptions(res):
        caught[name] = bool(wl.check(code, inp, bad))
    return caught


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.counters: Counter = Counter()

    def record(self, op, errs):
        self.attempted += 1
        if errs:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"op {op}: " + "; ".join(errs))


def cpu_clock(cpu: float, wall: float) -> bool:
    """Whether a phase is read on the thread CPU clock.  On a shared virtual
    machine the hypervisor stops this guest for tens of milliseconds at a
    time to run others (steal); the wall clock counts those pauses and the
    thread CPU clock does not.  But the CPU clock would also leave out work
    the thread handed to another thread or process and waited for, so a
    phase whose thread was on the CPU for less than CPU_SHARE_MIN of its
    wall time is read on the wall clock."""
    return cpu >= CPU_SHARE_MIN * wall


def run_checked(wl, code, inp, tr, tally):
    """One op; returns (result or None, wall seconds, thread CPU seconds)."""
    err = None
    t0, c0 = perf_counter(), thread_time()
    try:
        res = wl.run_op(code, inp, tr)
    except Exception as exc:  # an op that raises counts as failed
        res, err = None, exc
    wall, cpu = perf_counter() - t0, thread_time() - c0
    if err is not None:
        tally.record(inp.op, [f"raised {err!r}"])
    return res, wall, cpu


def op_phase(wl, code, seed, budget, tally, notrace, gauge):
    """Ops until ``budget`` seconds of wall clock have passed (and at least
    COUNTER_OPS ran).  Returns per-op latencies and the phase's seconds
    without the gauge ticks (input drawing and checks included), each raw
    and at gauge speed, and the phase's thread CPU share of wall time; the
    times are on the clock ``cpu_clock`` picks."""
    from workloads import COUNTER_OPS

    lat, lat_wall, tick_of = [], [], []
    gaps, gaps_wall = [], []    # time between gauge ticks j and j + 1
    since_gauge = 0.0
    gauge.tick()
    i, t_start = 0, perf_counter()
    g_wall, g_cpu = t_start, thread_time()
    while perf_counter() - t_start < budget or i < COUNTER_OPS:
        inp = wl.make_input(code, seed, i, notrace)
        res, wall, cpu = run_checked(wl, code, inp, notrace, tally)
        lat.append(cpu)
        lat_wall.append(wall)
        tick_of.append(len(gauge.ticks) - 1)
        since_gauge += wall
        if res is not None:
            tally.record(i, wl.check(code, inp, res))
            if i < COUNTER_OPS:
                tally.counters.update(wl.counters(inp, res))
        if since_gauge >= GAUGE_EVERY_S:
            gaps.append(thread_time() - g_cpu)
            gaps_wall.append(perf_counter() - g_wall)
            gauge.tick()
            g_wall, g_cpu = perf_counter(), thread_time()
            since_gauge = 0.0
        i += 1
    gaps.append(thread_time() - g_cpu)
    gaps_wall.append(perf_counter() - g_wall)
    gauge.tick()
    share = sum(gaps) / sum(gaps_wall)
    if not cpu_clock(sum(gaps), sum(gaps_wall)):
        lat, gaps = lat_wall, gaps_wall
    lat_g = [dt * gauge.between(t) for dt, t in zip(lat, tick_of)]
    phase_g = sum(g * gauge.between(j) for j, g in enumerate(gaps))
    return lat, lat_g, sum(gaps), phase_g, share


def table1_phase(wl, seed, budget, tally, tr, gauge) -> list[tuple[float, float, object]]:
    """run_table1 calls of ``table1_trials`` trials each, until ``budget``
    seconds have passed.  Returns (wall seconds, thread CPU seconds, report
    cell) per call.  The gauge ticks before each call and once after the
    last, so on a gauge that starts with this phase ``gauge.between(c)``
    brackets call c."""
    from fuzzylink import run_table1

    calls = []
    chunk, t_start = 0, perf_counter()
    while perf_counter() - t_start < budget or chunk == 0:
        gauge.tick()
        cfg = wl.table1_config(seed, chunk, wl.table1_trials)
        t0, c0 = perf_counter(), thread_time()
        report = tr.call("experiments.run_table1", run_table1, cfg)
        cell = report.cells[0]
        calls.append((perf_counter() - t0, thread_time() - c0, cell))
        missed = wl.table1_failures(report)
        tally.attempted += cfg.trials
        tally.failed += missed
        if missed and len(tally.failures) < 20:
            tally.failures.append(f"table1 chunk {chunk}: {missed} related trials missed")
        if chunk == 0:
            tally.counters.update({
                "table1.linked": cell.linked, "table1.recovered": cell.recovered,
                "table1.patterns_max": cell.patterns_max,
                "table1.patterns_total": round(cell.patterns_mean * cell.trials),
                **{f"table1.rank_{k}": v for k, v in cell.rank_histogram.items()},
            })
        chunk += 1
    gauge.tick()
    return calls


def quantile(values, q: float) -> float:
    """Quantile by statistics.quantiles (exclusive method), q in (0, 1)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[round(q * 100) - 1]


def untraced_run(wl, code, args, tally, notrace) -> tuple[dict, dict]:
    setup_raw, setup_scaled = measure_setup(wl.name, args.seed)
    g_ops, g_t1 = Gauge(), Gauge()
    lat, lat_g, phase, phase_g, op_share = op_phase(
        wl, code, args.seed, args.seconds * OP_SHARE, tally, notrace, g_ops)
    calls = table1_phase(wl, args.seed, args.seconds * (1 - OP_SHARE), tally, notrace, g_t1)
    walls = [w for w, _, _ in calls]
    busy = [c for _, c, _ in calls]
    t1_share = sum(busy) / sum(walls)
    if not cpu_clock(sum(busy), sum(walls)):
        busy = walls
    trials = wl.table1_trials * len(calls)
    busy_g = sum(dt * g_t1.between(c) for c, dt in enumerate(busy))
    raw = {
        "ops_per_s": len(lat) / phase,
        "op_ms_p50": quantile(lat, 0.5) * 1e3,
        "op_ms_p90": quantile(lat, 0.9) * 1e3,
        "table1_trials_per_s": trials / sum(busy),
        "setup_s": statistics.median(setup_raw),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    metrics = {
        "ops_per_s": len(lat) / phase_g,
        "op_ms_p50": quantile(lat_g, 0.5) * 1e3,
        "op_ms_p90": quantile(lat_g, 0.9) * 1e3,
        "table1_trials_per_s": trials / busy_g,
        "setup_s": statistics.median(setup_scaled),
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    p90 = metrics["op_ms_p90"] / 1e3
    samples = {"ops": len(lat), "ops_above_p90": sum(x > p90 for x in lat_g),
               "table1_calls": len(calls),
               "table1_trials_per_call": wl.table1_trials, "setup_runs": len(setup_raw),
               "gauge_factor": {"ops": g_ops.factor(), "table1": g_t1.factor()},
               "gauge_ticks": {"ops": len(g_ops.ticks), "table1": len(g_t1.ticks)},
               "cpu_share": {"ops": op_share, "table1": t1_share},
               "raw": raw}
    return metrics, samples


def traced_run(wl, code, args, tally, notrace, tracer) -> tuple[dict, dict]:
    import replay as rp
    from spans import NONE
    from fuzzylink import FieldSpec
    from workloads import COUNTER_OPS

    gauge = Gauge()
    gauge.tick()
    for _ in range(BUILD_RUNS):
        tracer.call("codes.build", wl.cold_build)
        # FieldSpec itself, not the caching field() factory, so tables are built
        tracer.call("fields.table_build", FieldSpec, *wl.table_field)

    values = defaultdict(list)     # per-op derived values
    plain, traced, gaps = [], [], []
    patterns = scan_total_s = 0.0
    i, t_start = 0, perf_counter()
    while perf_counter() - t_start < args.seconds * OP_SHARE or i < COUNTER_OPS:
        tracer.op = i
        mark = len(tracer)
        inp = wl.make_input(code, args.seed, i, tracer)
        # the same op untraced, for the tracing-overhead gap; the order of
        # the pair alternates so that neither side always runs warm
        res = None
        for traced_side in ((False, True) if i % 2 == 0 else (True, False)):
            if traced_side:
                with tracer.span("op") as sid:
                    res, _, _ = run_checked(wl, code, inp, tracer, tally)
                traced.append(tracer.duration(sid))
            else:
                plain.append(run_checked(wl, code, inp, notrace, Tally())[1])
        gaps.append(traced[-1] - plain[-1])
        if res is not None:
            errs = wl.check(code, inp, res)
            rep, vals, counts, rerrs = wl.trace(code, inp, res, tracer)
            tally.record(i, errs + rerrs)
            scan_s = sum(d for name, d, _, _ in tracer.spans(mark) if name == "attacks.scan")
            for J, v in rp.scan_through_classes(tracer, rep, wl.b, scan_s).items():
                values[f"scan_through.w{J}"].append(v)
            for key, v in vals.items():
                values[key].append(v)
            op_patterns = counts.pop("patterns_scanned", None) or res.out.patterns_scanned
            patterns += op_patterns
            scan_total_s += scan_s
            if i < COUNTER_OPS:
                tally.counters.update(counts)
                tally.counters.update(wl.counters(inp, res))
                tally.counters.update({"useful_hits": int(rep.related),
                                       "replay.patterns_scanned": op_patterns})
        gauge.tick()
        i += 1
    tracer.op = None
    calls = table1_phase(wl, args.seed, args.seconds * (1 - OP_SHARE), tally, tracer, gauge)
    trial_ms = [dt * 1e3 / wl.table1_trials for dt, _, _ in calls]
    overhead = [1.0 - cell.time_mean_ms / ms for ms, (_, _, cell) in zip(trial_ms, calls)]

    per_call = defaultdict(list)   # span name -> seconds per call
    op_sums = defaultdict(float)   # (op, span name) -> seconds in the op
    replay_op = {}                 # id of a replay.attack span -> its op
    covered = defaultdict(float)   # op -> seconds of the replayed attack stages
    for sid, (name, d, parent, op) in enumerate(tracer.spans()):
        per_call[name].append(d)
        if op != NONE:
            op_sums[op, name] += d
        if name == "replay.attack":
            replay_op[sid] = op
        elif parent in replay_op:
            covered[replay_op[parent]] += d
    per_op = defaultdict(list)
    for (_, name), total in op_sums.items():
        per_op[name].append(total)
    # attack time that the replayed stages do not cover
    for op, staged in covered.items():
        values["unattributed"].append(1.0 - staged / op_sums[op, "attacks.attack"])

    c = tally.counters
    p50_plain = statistics.median(plain)
    raw = {}
    for name, (unit, source) in PER_LAYER.items():
        if source is None:
            continue
        kind, key = source.split(":", 1)
        data = {"op": per_op, "call": per_call, "val": values}[kind].get(key)
        if not data:
            raise RuntimeError(f"{wl.name}: no samples for per-layer metric {name}")
        raw[name] = statistics.median(data) * SCALE.get(unit, 1.0)
    tested = c["hits_tested"]
    raw.update({
        "attacks.patterns_scanned": c["replay.patterns_scanned"],
        "attacks.patterns_per_ms": patterns / (scan_total_s * 1e3),
        "attacks.hits_tested": tested,
        "attacks.spurious_hits": c["spurious_hits"],
        "attacks.hit_useful_frac": c["useful_hits"] / tested,
        "attacks.solutions_enumerated": c["solutions_enumerated"],
        "codes.decode_calls": c["decode_calls"],
        "codes.decode_reject_frac": c["decode_rejects"] / c["decode_calls"],
        "experiments.trial_ms": statistics.median(trial_ms),
        "experiments.overhead_frac": statistics.median(overhead),
        "trace.op_ms_p50": statistics.median(traced) * 1e3,
        "trace.overhead_ms": statistics.median(gaps) * 1e3,
        "trace.overhead_frac": statistics.median(gaps) / p50_plain,
    })
    f = gauge.factor()
    metrics = {}
    for name, (unit, _) in PER_LAYER.items():
        if unit in ("ms", "us", "ns"):
            metrics[name] = raw[name] * f
        elif unit == "1/ms":
            metrics[name] = raw[name] / f
        else:
            metrics[name] = raw[name]
    samples = {"traced_ops": len(traced), "untraced_op_ms_p50": p50_plain * 1e3 * f,
               "table1_calls": len(trial_ms), "spans": len(tracer),
               "code_builds": BUILD_RUNS, "probe_metrics": list(wl.probes),
               "gauge_factor": f, "gauge_ticks": len(gauge.ticks), "raw": raw}
    return metrics, samples


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def run_one(args) -> int:
    import workloads
    from spans import NoTrace, Tracer

    import fuzzylink

    if not Path(fuzzylink.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: fuzzylink imported from {fuzzylink.__file__}, not {SRC}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    env = environment(args.seed)
    notrace = NoTrace()
    code = wl.build_code()
    wl.run_op(code, wl.make_input(code, args.seed, 0, notrace), notrace)   # warm-up
    caught = self_test(wl, code, args.seed, notrace)
    tally = Tally()
    tracer = Tracer() if args.trace else None
    if args.trace:
        metrics, samples = traced_run(wl, code, args, tally, notrace, tracer)
        units = {k: PER_LAYER[k][0] for k in metrics}
    else:
        metrics, samples = untraced_run(wl, code, args, tally, notrace)
        units = END_TO_END
    selftest_ok = all(caught.values())
    correct = tally.failed == 0 and selftest_ok
    out_dir = Path(args.out) / wl.name
    out_dir.mkdir(parents=True, exist_ok=True)
    detail = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "environment": env,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "failed_frac": tally.failed / max(tally.attempted, 1),
        "attempted": tally.attempted, "failed": tally.failed, "failures": tally.failures,
        "selftest": caught, "counters": dict(sorted(tally.counters.items())),
        "samples": samples,
    }
    stem = f"seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(detail, indent=2) + "\n")
    if tracer is not None:
        tracer.write_jsonl(out_dir / f"seed{args.seed}-spans.jsonl")
    for k, v in metrics.items():
        print(f"# {wl.name} {k} = {v:.6g} {units[k]}", file=sys.stderr)
    print(f"# {wl.name} failed_frac = {detail['failed_frac']:.6g} "
          f"({tally.failed}/{tally.attempted}); self-test {'ok' if selftest_ok else caught}",
          file=sys.stderr)
    for msg in tally.failures:
        print(f"# FAILED {msg}", file=sys.stderr)
    print(json.dumps({
        "correct": correct, "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process, one after another; prints each
    metric by name with its unit."""
    import workloads

    results, status = {}, 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", args.out],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = 1
            sys.stderr.write(proc.stderr)
            if not lines:
                continue
        res = json.loads(lines[-1])
        results[name] = res
        for metric, mv in res["metrics"].items():
            print(f"{name:18s} {metric:30s} {mv['value']:14.6g} {mv['unit']}")
        print(f"{name:18s} {'failed_frac':30s} {res['failed'] / res['attempted']:14.6g} "
              f"({res['failed']}/{res['attempted']})")
    print(json.dumps(results))
    return status


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=27)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=str(HERE / "out"))
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fuzzylink" / "__init__.py").is_file():
        print(f"error: library sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of "
              f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
