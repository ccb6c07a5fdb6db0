"""Tests of the benchmark itself, on small seeds.

    python3 -m pytest -q perfbench/tests
"""

import io
import json
import os
import random
import shutil
import subprocess
import sys
from itertools import islice, product

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, decks, invariant_factors, preset_query  # noqa: E402

CLI = run.import_cli()


def keys(workload, seed, n_decks=2):
    return [q.key for deck in islice(decks(workload, seed), n_decks) for q in deck]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_generation_is_deterministic_per_seed(workload):
    assert keys(workload, 7) == keys(workload, 7)
    assert keys(workload, 7) != keys(workload, 8)


def test_torus_models_are_unique():
    seen = keys("torus_reports", 3, n_decks=4)
    assert len(seen) == len(set(seen))


class Tampering:
    """Stands in for homspace.cli and corrupts one field of the JSON report."""

    def __init__(self, edit):
        self.edit = edit

    def run(self, argv, stdout, stderr):
        buffer = io.StringIO()
        code = CLI.run(argv, stdout=buffer, stderr=stderr)
        payload = json.loads(buffer.getvalue())
        self.edit(payload)
        stdout.write(json.dumps(payload, indent=2) + "\n")
        return code


def _double_gluing_order(payload):
    payload["gluing_order"] *= 2


def _bump_diagonal(payload):
    payload["diagonal"][0] += 1


def _wrong_brauer(payload):
    payload["invariants"]["brauer"] = "Z/3"


def _other_pic(payload):
    payload["invariants"]["pic_group"] = "Z^1"


TORUS_DESCRIBE = next(q for q in next(decks("torus_reports", 5)) if q.command == "describe")
TORUS_INVARIANTS = WORKLOADS["torus_reports"].anchor


@pytest.mark.parametrize(
    "query, edit",
    [
        (WORKLOADS["snf_matrices"].anchor, _bump_diagonal),
        (TORUS_DESCRIBE, _double_gluing_order),
        (TORUS_INVARIANTS, _other_pic),
        (preset_query("SO", 8), _wrong_brauer),
    ],
)
def test_wrong_output_counts_as_failed(tmp_path, query, edit):
    golden = checks.load_golden()
    assert run.Runner(CLI, str(tmp_path), golden).ask(query).failure == ""
    outcome = run.Runner(Tampering(edit), str(tmp_path), golden).ask(query)
    assert outcome.failure == "exit 0 CHECK"
    assert outcome.problems


def test_failures_are_counted_per_run(tmp_path):
    runner = run.Runner(Tampering(_bump_diagonal), str(tmp_path), checks.load_golden())
    outcomes, _, _ = run.closed_loop(runner, "snf_matrices", 1, max_decks=1)
    assert all(o.failure == "exit 0 CHECK" for o in outcomes)
    assert sum(run.failure_breakdown(outcomes)["exit 0 CHECK"].values()) == len(outcomes)


def test_missing_digest_cannot_be_checked():
    query = preset_query("SO", 8)
    with pytest.raises(checks.CheckUnavailable):
        checks.check_output(query, "{}", {})


def test_own_arithmetic():
    for moduli in ((4, 6), (2, 2, 2), (12, 12, 3)):
        gens = [tuple(random.Random(sum(moduli) + i).randrange(m) for m in moduli) for i in range(2)]
        closure = {tuple(0 for _ in moduli)}
        frontier = list(closure)
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = tuple((a + b) % m for a, b, m in zip(x, g, moduli))
                if y not in closure:
                    closure.add(y)
                    frontier.append(y)
        assert checks.subgroup_order(gens, moduli) == len(closure)
    assert checks.det([[2, 1], [7, 4]]) == 1
    assert checks.det([[0, 1, 0], [1, 0, 0], [0, 0, 5]]) == -5
    assert invariant_factors((6, 2, 2, 2)) == (2, 2, 2, 6)
    assert invariant_factors((4, 8)) == (4, 8)
    assert invariant_factors((3, 9, 2)) == (3, 18)


def test_tail_percentile_ladder():
    values = list(range(1, 1001))
    assert run.tail_latency(values, 99.0) == (990, 99.0, 10)
    assert run.tail_latency(values[:100], 99.0) == (90, 90.0, 10)


def test_speed_scale_brackets_each_measurement():
    track = speed.SpeedTrack(interval_s=3600.0, reps=1)
    with pytest.raises(ValueError):
        track.mark()
    track.sample()
    first = track.mark()
    track.due()  # the last sample is fresh, so none is taken
    assert track.mark() == first
    track.sample()
    track.samples[:] = [speed.REFERENCE_S, 3 * speed.REFERENCE_S]
    assert track.scale(first) == pytest.approx(0.5)
    assert speed.reference_work() == speed.reference_work()


def test_tracer_restores_every_function():
    tracer = tracing.Tracer()
    before = {name: dict(vars(m)) for name, m in tracer.modules.items()}
    tracer.install()
    assert tracer.modules["intlinalg"].hermite_normal_form is not before["intlinalg"]["hermite_normal_form"]
    assert tracer.modules["abgroups"].integer_kernel is not before["abgroups"]["integer_kernel"]
    CLI.run(["invariants", "--json", "--preset", "PGL(4)"], stdout=io.StringIO(), stderr=io.StringIO())
    tracer.remove()
    for name, module in tracer.modules.items():
        assert all(vars(module)[k] is v for k, v in before[name].items())
    metrics = tracer.layer_metrics()
    assert metrics["groups.pi1.calls"] > 0 and metrics["extensions.cocycle.calls"] == 3


def _result(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _declared(section):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[section]}


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_metric_names_match_benchmark_json(trace, section):
    result = _result("--workload", "snf_matrices", "--seed", "3", "--seconds", "1", "--trace", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == _declared(section)


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "snf_matrices", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=170,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_every_catalogue_query_has_a_digest():
    golden = checks.load_golden()
    from workloads import semisimple_catalogue

    assert all(q.key in golden for q in semisimple_catalogue())
    assert all(q.key in golden for deck in islice(decks("semisimple_reports", 11), 2) for q in deck)


def test_snf_sizes_cover_kinds():
    shapes = {(len(q.meta["rows"]), len(q.meta["rows"][0])) for q in next(decks("snf_matrices", 2))}
    assert shapes == {(n, m) for n, extra in product(range(8, 13), (0, 4)) for m in (n + extra,)}
