#!/usr/bin/env python3
"""homspace benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Drives ``homspace.cli.run`` in process as a closed loop with one client: the
next query is sent only when the previous one has returned.  The process
that runs it is fresh, so the program's caches start empty and its peak
memory belongs to this workload.  Every output is checked outside the timed
region (see ``checks.py``).

``--trace 0`` measures the end-to-end metrics over whole decks of queries
for about ``--seconds`` seconds, after a warm-up deck, with every time
rescaled to the host's reference speed (see ``speed.py``).  ``--trace 1``
runs a fixed number of decks of the same stream three times, each in a
fresh interpreter: once untraced, twice with per-layer wrappers
(see ``tracing.py``).  It reports the per-layer metrics and the tracing
overhead, and fails if traced stdout differs from untraced stdout or if the
exact counters of the two traced passes differ.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a report
for people.  Exit status is nonzero, without a result line, when the
sources are missing or an output check cannot run.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
if HERE not in sys.path:
    sys.path.insert(0, HERE)

from checks import CheckUnavailable, check_output, digest, load_golden  # noqa: E402
from speed import SpeedTrack  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, decks  # noqa: E402

SETUP_RUNS = 15  # cold starts per run; the median is reported
PASS_TIMEOUT_S = 170
PROBE_TIMEOUT_S = 3
ERROR_CODE = re.compile(r"error\[(E_[A-Z_]+)\]")
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
COMMANDS = ("describe", "invariants", "weights", "ext", "snf")

END_TO_END = {
    "setup_s": "s",
    "query_p50_ms": "ms",
    "query_tail_ms": "ms",
    "queries_per_s": "1/s",
    "peak_rss_mb": "MB",
}
EXACT_LAYER_UNITS = {
    "intlinalg.hnf.calls": "count",
    "intlinalg.kernel.calls": "count",
    "intlinalg.snf.calls": "count",
    "intlinalg.max_cells": "count",
    "intlinalg.out_bits_max": "bits",
    "abgroups.calls": "count",
    "rootdata.calls": "count",
    "groups.pi1.calls": "count",
    "extensions.cocycle.calls": "count",
    "extensions.table_cells": "count",
    "cli.out_bytes": "bytes",
}
for _fn in ("build_datum", "_gluing", "_pi1_span", "_elements", "_add_table"):
    for _stat in ("hits", "misses", "currsize"):
        EXACT_LAYER_UNITS[f"cache.{_fn}.{_stat}"] = "count"
TIMED_LAYER_UNITS = {
    f"{layer}.self_s": "s"
    for layer in ("intlinalg.hnf", "intlinalg.kernel", "intlinalg.snf", "intlinalg.other", "abgroups",
                  "rootdata", "groups", "extensions", "invariants", "cli")
}
TIMED_LAYER_UNITS.update({f"cli.cmd.{c}.p50_ms": "ms" for c in COMMANDS})
TIMED_LAYER_UNITS["trace.overhead_frac"] = "ratio"
PER_LAYER = {**EXACT_LAYER_UNITS, **TIMED_LAYER_UNITS}


class BenchError(Exception):
    """The benchmark cannot produce a valid result."""


def import_cli():
    """Import homspace.cli from the checkout's own sources, never from
    anywhere else on the path."""
    sys.path.insert(0, SRC)
    from homspace import cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise BenchError(f"imported homspace from {cli.__file__}, not from {SRC}")
    return cli


@dataclass
class Outcome:
    command: str
    seconds: float
    failure: str  # "" when the query succeeded and its output checked out
    out_bytes: int
    digest: str
    size: str = ""  # matrix shape of snf queries
    problems: list = field(default_factory=list)
    mark: int = 0  # SpeedTrack position of a measured query


def exit_label(code: int, stderr: str) -> str:
    """Failure key of a nonzero exit: the exit code and the error code."""
    match = ERROR_CODE.search(stderr)
    return f"exit {code} {match.group(1) if match else 'no-code'}"


class Runner:
    """Sends queries to the CLI entry point and checks their outputs."""

    def __init__(self, cli, workdir: str, golden: dict):
        self.cli = cli
        self.spec_path = os.path.join(workdir, "spec.json")
        self.golden = golden

    def argv(self, query, spec_path=None) -> list:
        spec_path = spec_path or self.spec_path
        if query.spec is not None:
            with open(spec_path, "w", encoding="utf-8") as handle:
                handle.write(query.spec)
        return query.argv(spec_path)

    def ask(self, query) -> Outcome:
        argv = self.argv(query)
        out, err = io.StringIO(), io.StringIO()
        start = perf_counter()
        code = self.cli.run(argv, stdout=out, stderr=err)
        seconds = perf_counter() - start
        text = out.getvalue()
        problems = check_output(query, text, self.golden) if code == 0 else []
        failure = exit_label(code, err.getvalue()) if code else "exit 0 CHECK" if problems else ""
        rows = query.meta.get("rows")
        size = f"{len(rows)}x{len(rows[0])}" if rows else ""
        return Outcome(query.command, seconds, failure, len(text.encode("utf-8")), digest(text), size, problems)


def closed_loop(runner: Runner, workload: str, seed: int, seconds=None, max_decks=None, between_decks=None,
                speed=None):
    """Send the anchor query and whole decks.  With ``max_decks``, exactly
    that many decks.  Otherwise the first deck is the warm-up (it fills the
    caches) and measured decks follow until the one during which ``seconds``
    ran out is complete, so that every run measures warm decks of the same
    composition.  ``between_decks(elapsed)`` is called after each measured
    deck; its time does not count.  With a ``SpeedTrack``, the host's speed
    is sampled between measured queries and each measured outcome carries
    its ``mark``.  Returns the outcomes, the number of warm-up outcomes, and
    the peak RSS (MB) at the end of the first deck, a point reached after the
    same work on every commit."""
    stream = decks(workload, seed)
    outcomes = [runner.ask(WORKLOADS[workload].anchor)]
    outcomes.extend(runner.ask(query) for query in next(stream))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    warmup = len(outcomes)
    elapsed = 0.0
    if speed is not None:
        speed.sample()
    for count, deck in enumerate(stream, start=2):
        if max_decks is not None and count > max_decks:
            break
        start = perf_counter()
        for query in deck:
            mark = speed.mark() if speed is not None else 0
            outcome = runner.ask(query)
            outcome.mark = mark
            outcomes.append(outcome)
            if speed is not None:
                speed.due()
        elapsed += perf_counter() - start
        if between_decks is not None:
            between_decks(elapsed)
        if seconds is not None and elapsed >= seconds:
            break
    if speed is not None:
        speed.sample()
    return outcomes, warmup, rss_mb


def failure_breakdown(outcomes) -> dict:
    breakdown = defaultdict(Counter)
    for o in outcomes:
        if o.failure:
            breakdown[o.failure][o.size or o.command] += 1
    return {key: dict(sizes) for key, sizes in sorted(breakdown.items())}


def tail_latency(values, wanted: float):
    """Latency at ``wanted`` percent, or at the next lower percentile of the
    ladder when fewer than 10 samples lie beyond it (nearest rank)."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in (p for p in TAIL_LADDER if p <= wanted):
        rank = math.ceil(pct / 100 * n)
        if n - rank >= 10 or pct == TAIL_LADDER[-1]:
            return ordered[max(rank, 1) - 1], pct, n - rank
    raise AssertionError("unreachable")


def cold_start(cmd) -> tuple:
    """Wall time and stdout digest of one fresh interpreter answering a
    query, as a command-line user runs it."""
    start = perf_counter()
    proc = subprocess.run(cmd, capture_output=True, cwd=ROOT, timeout=PASS_TIMEOUT_S)
    elapsed = perf_counter() - start
    if proc.returncode:
        raise BenchError(f"cold start exited {proc.returncode}: {proc.stderr.decode()[-500:]}")
    return elapsed, digest(proc.stdout.decode("utf-8"))


def limit_probe(queries, runner: Runner) -> list:
    """Run each query in a fresh interpreter with a time limit and report
    how it ended.  These inputs are valid but lie beyond what the program
    handles today; they are kept out of the measured queries."""
    results = []
    for query in queries:
        argv = runner.argv(query)
        cmd = [sys.executable, os.path.join(HERE, "coldstart.py"), SRC, *argv]
        rows = query.meta.get("rows")
        if rows:
            label = f"{len(rows)}x{len(rows[0])}"
        else:
            label = "x".join(f"{f}{n}" for f, n in query.meta["factors"]) + f" r={query.meta['r']}"
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            results.append(f"{label} no answer within {PROBE_TIMEOUT_S} s")
            continue
        if proc.returncode:
            results.append(f"{label} {exit_label(proc.returncode, proc.stderr)}")
        else:
            problems = check_output(query, proc.stdout, runner.golden)
            results.append(f"{label} {'wrong: ' + problems[0] if problems else 'ok'}")
    return results


def result_line(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    })


def print_failures(outcomes, label: str):
    breakdown = failure_breakdown(outcomes)
    print(f"failures ({label}): " + (json.dumps(breakdown) if breakdown else "none"))
    for o in [o for o in outcomes if o.problems][:5]:
        print(f"  {o.command} {o.size}: {'; '.join(o.problems[:3])}")


def measure(workload: str, seed: int, seconds: float, workdir: str) -> str:
    spec = WORKLOADS[workload]
    runner = Runner(import_cli(), workdir, load_golden())
    anchor_argv = runner.argv(spec.anchor, os.path.join(workdir, "anchor.json"))
    anchor_cmd = [sys.executable, os.path.join(HERE, "coldstart.py"), SRC, *anchor_argv]
    speed = SpeedTrack()
    starts = [cold_start(anchor_cmd)]  # compiles bytecode; not timed
    cold, cold_raw = [], []

    # the timed cold starts are spread over the run, so that they sample the
    # machine at the same moments as the queries do
    def between_decks(elapsed):
        while len(cold) < SETUP_RUNS * min(elapsed / seconds, 1.0):
            speed.sample()
            mark = speed.mark()
            starts.append(cold_start(anchor_cmd))
            speed.sample()
            cold_raw.append(starts[-1][0])
            cold.append(starts[-1][0] * speed.scale(mark))

    outcomes, warmup, rss_mb = closed_loop(runner, workload, seed, seconds=seconds, between_decks=between_decks,
                                           speed=speed)
    between_decks(seconds)
    if any(d != outcomes[0].digest for _, d in starts):
        outcomes[0].failure = "exit 0 CHECK"
        outcomes[0].problems.append("cold-start stdout differs from the in-process stdout")
    raw = [o.seconds for o in outcomes[warmup:]]
    measured = [o.seconds * speed.scale(o.mark) for o in outcomes[warmup:]]
    tail, pct, beyond = tail_latency(measured, spec.tail_percentile)
    raw_tail, _, _ = tail_latency(raw, spec.tail_percentile)
    failed = sum(1 for o in outcomes if o.failure)
    metrics = {
        "setup_s": statistics.median(cold),
        "query_p50_ms": statistics.median(measured) * 1e3,
        "query_tail_ms": tail * 1e3,
        "queries_per_s": len(measured) / sum(measured),
        "peak_rss_mb": rss_mb,
    }
    print(f"workload {workload}, seed {seed}: closed loop, 1 client, {seconds} s")
    print(f"times at the reference host speed; as measured in brackets; {len(speed.samples)} speed samples, "
          f"host at {speed.median_scale():.3f} x the reference speed (median)")
    print(f"setup_s       {metrics['setup_s']:.4f} s     [{statistics.median(cold_raw):.4f}] "
          f"median of {len(cold)} cold starts spread over the run")
    print(f"query_p50_ms  {metrics['query_p50_ms']:.3f} ms    [{statistics.median(raw) * 1e3:.3f}] "
          f"n={len(measured)} after {warmup} warm-up queries")
    print(f"query_tail_ms {metrics['query_tail_ms']:.3f} ms    [{raw_tail * 1e3:.3f}] "
          f"p{pct:g}, n={len(measured)}, {beyond} beyond")
    print(f"queries_per_s {metrics['queries_per_s']:.3f} 1/s   [{len(raw) / sum(raw):.3f}] "
          f"{len(measured)} queries in {sum(measured):.3f} s of query time")
    print(f"failed_frac   {failed / len(outcomes):.4f} ratio {failed} failed / {len(outcomes)} attempted")
    print(f"peak_rss_mb   {metrics['peak_rss_mb']:.2f} MB    ru_maxrss after the first deck")
    print_failures(outcomes, workload)
    if spec.probe is not None:
        print("limit probe, not counted above: " + ", ".join(limit_probe(spec.probe(seed), runner)))
    return result_line(failed == 0, len(outcomes), failed, metrics, END_TO_END)


def run_pass(workload: str, seed: int, traced: bool, workdir: str) -> str:
    """One pass of the trace comparison, in its own interpreter."""
    cli = import_cli()
    runner = Runner(cli, workdir, load_golden())
    tracer = Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    try:
        outcomes, _, _ = closed_loop(runner, workload, seed, max_decks=WORKLOADS[workload].trace_decks)
    finally:
        if tracer is not None:
            tracer.remove()
    result = {
        "digests": [o.digest for o in outcomes],
        "seconds": [o.seconds for o in outcomes],
        "commands": [o.command for o in outcomes],
        "out_bytes": sum(o.out_bytes for o in outcomes),
        "failed": sum(1 for o in outcomes if o.failure),
        "failures": failure_breakdown(outcomes),
    }
    if tracer is not None:
        result["layers"] = {**tracer.layer_metrics(), **tracer.cache_stats()}
    return json.dumps(result)


def trace(workload: str, seed: int) -> str:
    passes = []
    for name in ("untraced", "traced", "traced"):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed), "--pass", name]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=PASS_TIMEOUT_S)
        if proc.returncode:
            raise BenchError(f"{name} pass exited {proc.returncode}: {proc.stderr[-2000:]}")
        passes.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    plain, first, second = passes
    for traced in (first, second):
        if traced["digests"] != plain["digests"]:
            raise BenchError("traced stdout differs from untraced stdout")
    exact = {name: first["layers"][name] for name in EXACT_LAYER_UNITS if name in first["layers"]}
    if exact != {name: second["layers"][name] for name in exact}:
        raise BenchError("exact counters differ between two traced passes of the same seed")

    metrics = dict(first["layers"])
    metrics["cli.out_bytes"] = plain["out_bytes"]
    by_command = defaultdict(list)
    for command, seconds in zip(plain["commands"][1:], plain["seconds"][1:]):
        by_command[command].append(seconds * 1e3)
    for command in COMMANDS:
        metrics[f"cli.cmd.{command}.p50_ms"] = statistics.median(by_command[command]) if by_command[command] else 0.0
    metrics["trace.overhead_frac"] = sum(first["seconds"]) / sum(plain["seconds"]) - 1

    attempted = len(plain["digests"])
    print(f"workload {workload}, seed {seed}: traced run, {attempted} queries per pass, 3 fresh interpreters")
    print(f"failures ({workload}): " + (json.dumps(plain["failures"]) if plain["failures"] else "none"))
    for name, unit in PER_LAYER.items():
        print(f"{name:32s} {metrics[name]!r:>24} {unit}")
    return result_line(plain["failed"] == 0, attempted, plain["failed"], metrics, PER_LAYER)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pass", dest="pass_name", choices=("untraced", "traced"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    workdir = os.path.join(ROOT, ".perfbench-work", str(os.getpid()))
    try:
        if not os.path.isfile(os.path.join(SRC, "homspace", "cli.py")):
            raise BenchError(f"homspace sources not found under {SRC}")
        os.makedirs(workdir)
        if args.pass_name:
            line = run_pass(args.workload, args.seed, args.pass_name == "traced", workdir)
        elif args.trace:
            line = trace(args.workload, args.seed)
        else:
            line = measure(args.workload, args.seed, args.seconds, workdir)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    except CheckUnavailable as exc:
        print(f"perfbench: an output check cannot run: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
