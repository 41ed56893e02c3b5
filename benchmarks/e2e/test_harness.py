"""Tests of the benchmark harness itself.

    PYTHONPATH=src python -m pytest benchmarks/e2e
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import compare  # noqa: E402
import inputs  # noqa: E402
import loads  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

from repro import ParserSession, VectorEngine  # noqa: E402
from repro.grammar.builtin.english import english_grammar  # noqa: E402
from repro.pipeline.session import DEFAULT_TEMPLATE_CACHE  # noqa: E402


def shapes(sentences):
    grammar = english_grammar()
    return [grammar.tokenize(s).category_sets for s in sentences]


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_same_inputs(workload):
    first = inputs.make_inputs(workload, 7, 1.0)
    second = inputs.make_inputs(workload, 7, 1.0)
    assert first == second
    assert first != inputs.make_inputs(workload, 8, 1.0)


def test_every_generated_word_is_in_the_lexicon():
    for workload in inputs.WORKLOADS:
        generated = inputs.make_inputs(workload, 0, 0.5)
        shapes(generated.warmup + generated.timed)  # raises LexiconError otherwise


def test_warm_pool_shapes_and_weights_do_not_depend_on_the_seed():
    pools = [inputs.warm_pool(seed) for seed in (0, 1, 2)]
    profiles = [Counter(zip(shapes(pool), weights)) for pool, weights in pools]
    assert profiles[0] == profiles[1] == profiles[2]
    assert pools[0][0] != pools[1][0]  # the seed still picks the words
    lengths = Counter()
    for sentence, weight in zip(*pools[0]):
        lengths[len(sentence.split())] += weight
    shares = [lengths[n] / lengths[6] for n in (6, 8, 10, 12, 14)]
    assert shares == pytest.approx([1, 2, 4, 2, 1])


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_different_seeds_keep_the_shape_sequence(workload):
    first, second = (inputs.make_inputs(workload, seed, 2.0) for seed in (0, 1))
    assert shapes(first.timed) == shapes(second.timed)
    assert shapes(first.warmup) == shapes(second.warmup)
    assert first.timed != second.timed


def test_long_tail_working_set_exceeds_the_cache_tenfold():
    distinct = set(shapes(inputs.make_inputs("long-tail", 0, 5.0).timed))
    assert len(distinct) > 10 * DEFAULT_TEMPLATE_CACHE


def test_oracle_catches_one_flipped_bit():
    grammar = english_grammar()
    sentence = "the big dog sees the cat in the park"
    result = ParserSession(grammar).parse(sentence)
    assert oracle.check(grammar, [(sentence, result)]) == []
    result.network.matrix_bits = result.network.matrix_bits.copy()
    result.network.matrix_bits[0, 0] ^= 1
    failures = oracle.check(grammar, [(sentence, result)])
    assert len(failures) == 1 and "matrix_bits" in failures[0]


def test_percentile_nearest_rank():
    sample = [float(v) for v in range(1, 101)]
    assert loads.percentile(sample, 50) == 50.0
    assert loads.percentile(sample, 99) == 99.0
    assert loads.percentile(sample, 100) == 100.0
    assert loads.percentile(sample, 0) == 1.0
    assert loads.percentile([3.0], 99) == 3.0
    with pytest.raises(ValueError):
        loads.percentile([], 50)


def test_window_rates_count_full_windows_only():
    times = [0.1, 0.2, 0.9, 1.5, 2.2, 2.3, 2.4, 2.95, 3.5]
    assert loads.window_rates(times, 0.0, 3.6) == [3.0, 1.0, 4.0]
    assert loads.window_rates(times, 0.0, 3.6, width=2.0) == [2.0]
    assert loads.window_rates([0.1, 0.2], 0.0, 0.5) == [4.0]


def test_throughput_and_latency_pool_windows_but_not_the_pause():
    first = loads.Window(start=0.0, end=2.0, completions=[0.5, 1.2, 1.4, 1.6],
                         latencies=[0.001, 0.002])
    second = loads.Window(start=10.0, end=12.0, completions=[10.5, 10.6, 11.5],
                          latencies=[0.003, 0.004])
    # Rates 1, 3 | 2, 1: the 8 s pause contributes no empty windows.
    assert loads.throughput([first, second]) == 1.5
    assert loads.latency_ms([first, second], 50) == pytest.approx(2.0)
    assert loads.latency_ms([first], 99) == pytest.approx(2.0)


def test_split_closed_loop_continues_where_the_first_window_stopped():
    units = ((k, lambda: None) for k in range(10**9))
    seen = []
    first = loads.closed_loop(units, 0.01, lambda key, _: seen.append(key))
    second = loads.closed_loop(units, 0.01, lambda key, _: seen.append(key))
    assert seen == list(range(len(seen)))
    assert first.attempted + second.attempted == len(seen)


def test_compare_runs_an_invalid_run_again(monkeypatch, tmp_path):
    validity = iter([False, True])

    def fake_run(command, **kwargs):
        out = Path(command[command.index("--out") + 1])
        out.mkdir(parents=True)
        (out / "result.json").write_text(json.dumps({"stamp": {"valid": next(validity)}}))
        line = json.dumps({"correct": True, "attempted": 1, "failed": 0, "metrics": {}})
        return subprocess.CompletedProcess(command, 0, stdout=line + "\n", stderr="")

    monkeypatch.setattr(compare.subprocess, "run", fake_run)
    assert compare.run_once(tmp_path, "cluster-open", 0, tmp_path / "run")["attempted"] == 1
    assert sorted(p.name for p in (tmp_path / "run").iterdir()) == ["attempt-0", "attempt-1"]


def test_reservoir_is_seeded_and_bounded():
    def sample(seed):
        reservoir = loads.Reservoir(4, seed)
        for i in range(100):
            reservoir.offer(i, None)
        return [key for key, _ in reservoir.items]

    assert sample("a") == sample("a")
    assert len(sample("a")) == 4
    assert sample("a") != sample("b")


def test_span_self_time_subtracts_direct_children():
    spans = [
        (2, 1, 0, "child", 10, 30),
        (3, 1, 0, "child", 40, 45),
        (4, 2, 0, "leaf", 12, 20),
        (1, 0, 0, "root", 0, 100),
    ]
    totals = tracing.span_totals(spans)
    assert totals["root"] == {"count": 1, "ns": 100, "self_ns": 75}
    assert totals["child"] == {"count": 2, "ns": 25, "self_ns": 17}
    assert totals["leaf"] == {"count": 1, "ns": 8, "self_ns": 8}


def test_trace_wrappers_record_and_are_fully_restored():
    originals = {
        (owner, attr): owner.__dict__[attr] for owner, attr, _ in tracing.trace_points(VectorEngine)
    }
    tracer = tracing.Tracer()
    session = ParserSession(english_grammar())
    with pytest.raises(RuntimeError):
        with tracing.traced(tracer, VectorEngine):
            assert len(tracing.installed_wrappers(VectorEngine)) == len(originals)
            session.parse("the dog sees the cat")
            raise RuntimeError("leave the block abnormally")
    assert tracing.installed_wrappers(VectorEngine) == []
    for (owner, attr), original in originals.items():
        assert owner.__dict__[attr] is original
    names = {span[3] for span in tracer.spans}
    assert {"pipeline.parse", "grammar.tokenize", "engines.run", "network.readout"} <= names


def test_an_untraced_run_installs_no_wrappers(monkeypatch, tmp_path):
    def forbidden(*args, **kwargs):
        raise AssertionError("an untraced run entered the tracing context")

    monkeypatch.setattr(workloads, "traced", forbidden)
    generated = inputs.make_inputs("warm-mix", 0, 0.2)
    outcome = workloads.run("warm-mix", generated, 0.2, trace=False, seed=0, out_dir=tmp_path)
    assert outcome.failed == 0 and outcome.attempted > 0
    assert outcome.backend == "packed" and outcome.engine == "vector"
    assert tracing.installed_wrappers(VectorEngine) == []


def test_kernel_proxy_keeps_results_and_counts_calls():
    tracer = tracing.Tracer()
    from repro.kernels.backend import create_backend

    plain = ParserSession(english_grammar()).parse("the dog sees the cat")
    proxy = tracing.TracedBackend(create_backend(None), tracer)
    traced_result = ParserSession(english_grammar(), backend=proxy).parse("the dog sees the cat")
    assert oracle.compare(traced_result, plain) == []
    assert traced_result.stats.extra["kernel_backend"] == "packed"
    metrics = tracing.layer_metrics(tracer.spans, units=1)
    assert metrics["kernels.support_any.calls"] > 0
    assert metrics["kernels.and_accumulate.calls"] > 0


def test_compare_verdicts():
    rng = random.Random(0)
    parent = [100 + rng.uniform(-1, 1) for _ in range(10)]
    same = [100 + rng.uniform(-1, 1) for _ in range(10)]
    faster = [v * 1.2 for v in parent]
    slower = [v * 0.8 for v in parent]
    noisy = [100 * (1 + (0.3 if i % 2 else -0.3)) for i in range(10)]
    check = compare.verdict
    assert check(parent, same, better="higher", bound=0.1)["verdict"] == "within bound"
    assert check(parent, faster, better="higher", bound=0.1)["verdict"] == "gain"
    assert check(parent, slower, better="higher", bound=0.1)["verdict"] == "regression"
    assert check(parent, slower, better="lower", bound=0.1)["verdict"] == "gain"
    assert check(parent, noisy, better="higher", bound=0.1)["verdict"] == "unresolved"
    row = check(parent, faster, better="higher", bound=0.1)
    assert row["change_wins"] == 1.0 and row["parent_wins"] == 0.0


def test_quick_run_covers_all_workloads_within_a_minute(tmp_path):
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--seed", "0", "--quick", "--out", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    elapsed = time.monotonic() - started
    assert proc.returncode == 0, proc.stderr
    assert elapsed < 60
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in inputs.WORKLOADS:
        result = json.loads((tmp_path / f"{workload}-trace0" / "result.json").read_text())
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
        assert result["stamp"]["seconds"] == pytest.approx(spec["run_seconds"] / 10)


def test_refuses_to_run_under_the_sanitizer(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "warm-mix", "--seconds", "0.1"],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
        env={**os.environ, "REPRO_SANITIZE": "1"},
    )
    assert proc.returncode != 0
    assert "REPRO_SANITIZE" in proc.stderr and proc.stdout == ""
