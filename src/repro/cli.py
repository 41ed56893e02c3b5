"""Command-line interface: ``python -m repro <command> ...``.

Commands:

``parse``
    Parse a sentence with a built-in (or file-loaded) grammar on any
    engine; print the settled network, parses, and engine statistics.
``grammars``
    List the built-in grammars.
``timing``
    Print the simulated-MasPar parse-time step function (RES-T2).
``figures``
    Re-derive the paper's worked example (Figures 1-7) on the terminal.
``serve-bench``
    Drive a :class:`~repro.serve.ParseService` under synthetic load and
    print its throughput plus a full metrics snapshot; ``--streaming``
    drives word-at-a-time service streams instead of whole sentences.
``stream``
    Parse word-at-a-time from the arguments or stdin, printing the
    running verdict and domain sizes after every token.
``cluster``
    The networked sharded parse cluster: ``cluster shard`` runs one
    shard server (the launcher's entry point) and ``cluster up`` spawns
    a local fleet.  The cluster's timing lives in the end-to-end
    benchmark's ``cluster-open`` workload, its bit-identity in
    ``tests/test_cluster.py``.

``--engine`` values are validated against the live registry (not a
frozen argparse choice list), so engines registered at runtime work and
an unknown name reports the registered ones.  Counts and durations are
validated by argparse: a worker count, shape count or batch size below
1, or a negative linger, is a usage error (exit 2).  Every command runs
the one packed kernel core (:mod:`repro.kernels.backend`).
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from typing import Callable, Sequence

from repro import ParserSession, __version__, extract_parses
from repro.analysis import format_seconds, format_table
from repro.engines.registry import available_engines
from repro.errors import ReproError
from repro.grammar import CDGGrammar, load_grammar_file
from repro.grammar.builtin import (
    abcd_grammar,
    anbn_grammar,
    copy_language_grammar,
    dyck_grammar,
    english_extended_grammar,
    english_grammar,
    free_order_grammar,
    program_grammar,
)

BUILTIN_GRAMMARS: dict[str, Callable[[], CDGGrammar]] = {
    "program": program_grammar,
    "english": english_grammar,
    "english-extended": english_extended_grammar,
    "anbn": anbn_grammar,
    "copy": copy_language_grammar,
    "dyck": dyck_grammar,
    "abcd": abcd_grammar,
    "free-order": free_order_grammar,
}

def _resolve_grammar(name: str) -> CDGGrammar:
    if name in BUILTIN_GRAMMARS:
        return BUILTIN_GRAMMARS[name]()
    if name.endswith(".cdg"):
        return load_grammar_file(name)
    raise ReproError(
        f"unknown grammar {name!r}; use one of {sorted(BUILTIN_GRAMMARS)} or a .cdg file"
    )


def _positive_int(text: str) -> int:
    """argparse type for counts: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _non_negative_float(text: str) -> float:
    """argparse type for durations: a finite number of at least 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not 0 <= value < math.inf:  # also false for nan
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text}")
    return value


def _cmd_parse(args: argparse.Namespace, out) -> int:
    grammar = _resolve_grammar(args.grammar)
    session = ParserSession(
        grammar,
        engine=args.engine,
        filter_limit=args.filter_limit,
    )
    words = list(args.words)
    if len(words) == 1 and " " in words[0]:
        words = words[0].split()
    result = session.parse(words)

    if args.network:
        print(result.network.describe(), file=out)
        print(file=out)
    print(f"locally consistent: {result.locally_consistent}", file=out)
    print(f"ambiguous: {result.ambiguous}", file=out)

    parses = extract_parses(result.network, limit=args.max_parses)
    print(f"parses ({len(parses)}{'+' if len(parses) == args.max_parses else ''}):", file=out)
    for index, parse in enumerate(parses, 1):
        print(f"--- parse {index} ---", file=out)
        if args.conll:
            from repro.search import to_conll

            print(to_conll(parse, grammar.symbols), file=out)
        else:
            print(parse.describe(grammar.symbols), file=out)

    if args.profile:
        from repro.analysis import profile_parse

        profile = profile_parse(grammar, words, engine=session)
        print(file=out)
        print(
            format_table(
                ["constraint", "kind", "direct", "via consistency", "total"],
                profile.as_rows(),
                title=f"Eliminations per constraint "
                f"({profile.initial_role_values} role values -> {profile.surviving_role_values})",
            ),
            file=out,
        )
        idle = profile.idle_constraints()
        if idle:
            print(f"idle constraints on this sentence: {', '.join(idle)}", file=out)

    if args.stats:
        stats = result.stats
        rows = [
            ["engine", stats.engine],
            ["wall time", format_seconds(stats.wall_seconds)],
            ["unary checks", stats.unary_checks],
            ["pair checks", stats.pair_checks],
            ["role values killed", stats.role_values_killed],
            ["consistency passes", stats.consistency_passes],
            ["filtering iterations", stats.filtering_iterations],
        ]
        if stats.processors:
            rows.append(["processors", stats.processors])
        if stats.parallel_steps:
            rows.append(["parallel steps", stats.parallel_steps])
        if stats.simulated_seconds is not None:
            rows.append(["simulated MP-1 time", format_seconds(stats.simulated_seconds)])
        if "network_bytes" in stats.extra:
            rows.append(["bytes/network", stats.extra["network_bytes"]])
        if "template_cache_bytes" in stats.extra:
            rows.append(["template cache bytes", stats.extra["template_cache_bytes"]])
        print(file=out)
        print(format_table(["stat", "value"], rows), file=out)
    return 0 if (parses or not args.strict) else 1


def _cmd_grammars(args: argparse.Namespace, out) -> int:
    rows = []
    for name, factory in sorted(BUILTIN_GRAMMARS.items()):
        grammar = factory()
        rows.append(
            [
                name,
                grammar.n_labels,
                grammar.n_roles,
                len(grammar.unary_constraints),
                len(grammar.binary_constraints),
                len(grammar.lexicon),
            ]
        )
    print(
        format_table(
            ["grammar", "labels", "roles", "unary", "binary", "lexicon"],
            rows,
            title="Built-in CDG grammars",
        ),
        file=out,
    )
    return 0


def _cmd_timing(args: argparse.Namespace, out) -> int:
    from repro.parsec import step_function_seconds, virtualization_units
    from repro.workloads import toy_sentence

    session = ParserSession(program_grammar(), engine="maspar")
    rows = []
    for n in range(2, args.max_n + 1):
        result = session.parse(toy_sentence(n))
        rows.append(
            [
                n,
                result.stats.processors,
                virtualization_units(n),
                format_seconds(result.stats.simulated_seconds),
                format_seconds(step_function_seconds(n)),
            ]
        )
    print(
        format_table(
            ["n", "virtual PEs", "units", "simulated", "paper model"],
            rows,
            title="Simulated MasPar parse time (paper section 3)",
        ),
        file=out,
    )
    return 0


def _cmd_figures(args: argparse.Namespace, out) -> int:
    states: list[tuple[str, str]] = []
    grammar = program_grammar()
    session = ParserSession(grammar, engine="serial")
    result = session.parse(
        "The program runs",
        trace=lambda event, net: states.append((event, net.describe())),
    )
    labels = {
        "built": "Figure 1: the initial constraint network",
        "unary:verbs-are-ungoverned-roots": "Figure 2: after the first unary constraint",
        "unary-done": "Figure 3: after unary propagation",
        "consistency:subj-governed-by-root-to-right": "Figure 5: after the first binary constraint + consistency",
        "filtering-done": "Figure 6: the final network",
    }
    for event, text in states:
        if event in labels:
            print(f"== {labels[event]} ==", file=out)
            print(text, file=out)
            print(file=out)
    print("== Figure 7: the precedence graph ==", file=out)
    for parse in extract_parses(result.network):
        print(parse.describe(grammar.symbols), file=out)
    return 0


def _cmd_stream(args: argparse.Namespace, out) -> int:
    grammar = _resolve_grammar(args.grammar)
    session = ParserSession(grammar, engine=args.engine)
    stream = session.stream()

    def tokens():
        if args.words:
            words = list(args.words)
            if len(words) == 1 and " " in words[0]:
                words = words[0].split()
            yield from words
        else:
            for line in sys.stdin:
                yield from line.split()

    for word in tokens():
        result = stream.extend(word)
        network = result.network
        verdict = "consistent" if result.locally_consistent else "REJECTED"
        flavor = " (ambiguous)" if result.ambiguous else ""
        print(
            f"[{stream.n_words:>3}] {word:<16} {verdict}{flavor}  "
            f"alive {network.alive_count()}/{network.nv} role values, "
            f"domains {'/'.join(str(s) for s in network.domain_sizes())}",
            file=out,
        )
    if stream.n_words == 0:
        print("no tokens received", file=out)
        return 1
    builds = session.template_builds()
    print(
        f"{stream.n_words} words: {builds['full']} full + "
        f"{builds['extended']} prefix-extended template build(s)",
        file=out,
    )
    return 0 if stream.result().locally_consistent else 1


def _serve_bench_streaming(args: argparse.Namespace, service, out) -> int:
    from repro.workloads import sentence_of_length

    words = sentence_of_length(10)
    with service:
        start = time.perf_counter()
        streams = [service.submit_stream() for _ in range(args.shapes)]
        futures = []
        # Round-robin feeding interleaves every stream's tokens through
        # one admission queue — the owner-affinity scheduling case.
        for word in words:
            futures.extend(stream.feed(word) for stream in streams)
        results = [future.result() for future in futures]
        for stream in streams:
            stream.close()
        service.drain()
        elapsed = time.perf_counter() - start
        snapshot = service.snapshot()

    final = results[-len(streams):]
    print(
        f"{len(streams)} stream(s) x {len(words)} tokens on {args.workers} "
        f"{args.workers_mode} worker(s): "
        f"{elapsed:.3f}s = {len(results) / elapsed:.1f} tokens/s "
        f"({sum(1 for r in final if r.locally_consistent)} of {len(streams)} "
        f"final prefixes locally consistent)",
        file=out,
    )
    print(file=out)
    print(service.metrics.render(snapshot), file=out)
    return 0


def _cmd_serve_bench(args: argparse.Namespace, out) -> int:
    from repro.serve import ParseService
    from repro.workloads import sentence_of_length

    grammar = _resolve_grammar(args.grammar)
    # A shape-interleaved arrival stream: the adversarial case for the
    # template cache, and exactly what shape-batching reorders.
    sentences = [
        sentence_of_length(3 + (i % args.shapes)) for i in range(args.requests)
    ]
    service = ParseService(
        grammar,
        engine=args.engine,
        workers=args.workers,
        workers_mode=args.workers_mode,
        start_method=args.start_method,
        max_queue=max(args.requests, 1),
        max_batch_size=args.batch_size,
        max_linger=args.linger_ms / 1000.0,
        admission="block",
    )
    if args.streaming:
        return _serve_bench_streaming(args, service, out)
    with service:
        start = time.perf_counter()
        futures = [service.submit(words) for words in sentences]
        results = [future.result() for future in futures]
        service.drain()
        elapsed = time.perf_counter() - start
        # Snapshot before shutdown: the shared store (process mode)
        # unlinks its blocks on close, zeroing shared_store_bytes.
        snapshot = service.snapshot()

    accepted = sum(1 for r in results if r.locally_consistent)
    print(
        f"{len(results)} requests ({args.shapes} shapes) on {args.workers} "
        f"{args.workers_mode} worker(s): "
        f"{elapsed:.3f}s = {len(results) / elapsed:.1f} req/s "
        f"({accepted} locally consistent)",
        file=out,
    )
    print(file=out)
    print(service.metrics.render(snapshot), file=out)
    cache = snapshot["service"]["template_cache"]
    print(
        f"template cache over {snapshot['service']['workers']} worker(s): "
        f"{cache['hits']} hits / {cache['misses']} misses",
        file=out,
    )
    memory = snapshot["service"]["memory"]
    print(
        f"memory: {snapshot['gauges']['network_bytes']} bytes/network, "
        f"template caches {memory['template_cache_bytes']} bytes "
        f"({memory['shapes_profiled']} shape(s) profiled)",
        file=out,
    )
    if memory.get("shared_store_bytes"):
        print(
            f"shared template store: {memory['shared_store_bytes']} bytes "
            f"exported once, mapped by every worker process",
            file=out,
        )
    return 0


def _cmd_cluster_shard(args: argparse.Namespace, out) -> int:
    from repro.cluster import ParseServer

    grammar = _resolve_grammar(args.grammar)
    server = ParseServer(
        grammar,
        engine=args.engine,
        host=args.host,
        port=args.port,
        shard_id=args.shard_id,
        workers=args.workers,
        workers_mode=args.workers_mode,
        max_batch_size=args.max_batch_size,
        max_linger=args.max_linger,
        log_path=args.log,
        port_file=args.port_file,
    )
    # Blocks until SIGTERM/SIGINT, then drains and shuts the service down.
    server.serve_forever()
    return 0


def _cmd_cluster_up(args: argparse.Namespace, out) -> int:
    from repro.cluster import ClusterLauncher

    launcher = ClusterLauncher(
        args.grammar,
        shards=args.shards,
        engine=args.engine,
        workers=args.workers,
        workers_mode=args.workers_mode,
        run_dir=args.run_dir,
    )
    with launcher:
        print(f"cluster up: {args.shards} shard(s), logs in {launcher.log_dir}", file=out)
        for index, address in enumerate(launcher.addresses):
            print(f"  shard {index}: {address}", file=out)
        print("Ctrl-C to drain and shut down.", file=out)
        try:
            while all(launcher.alive()):
                time.sleep(0.5)
            down = [i for i, ok in enumerate(launcher.alive()) if not ok]
            print(f"shard(s) {down} exited; shutting the cluster down", file=out)
            return 1
        except KeyboardInterrupt:
            print("shutting down...", file=out)
    return 0


def _cmd_explain(args: argparse.Namespace, out) -> int:
    from repro.debugging import TraceRecorder

    grammar = _resolve_grammar(args.grammar)
    words = list(args.words)
    if len(words) == 1 and " " in words[0]:
        words = words[0].split()
    recorder = TraceRecorder()
    result = ParserSession(grammar, engine=args.engine).parse(words, trace=recorder)
    print(recorder.explain(skip_quiet=not args.all_phases), file=out)
    print(file=out)
    print(f"locally consistent: {result.locally_consistent}", file=out)
    print(f"ambiguous: {result.ambiguous}", file=out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PARSEC: parallel CDG parsing (Helzerman & Harper, ICPP 1992)",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Engine names are validated at dispatch time by the registry (so
    # runtime-registered engines work); the help text lists built-ins.
    engine_help = f"engine name; registered: {', '.join(available_engines())}"

    p_parse = sub.add_parser("parse", help="parse a sentence")
    p_parse.add_argument("words", nargs="+", help="the sentence (words or one quoted string)")
    p_parse.add_argument("--grammar", "-g", default="english")
    p_parse.add_argument("--engine", "-e", default="vector", help=engine_help)
    p_parse.add_argument("--max-parses", type=int, default=5)
    p_parse.add_argument("--filter-limit", type=int, default=None)
    p_parse.add_argument("--network", action="store_true", help="print the settled CN")
    p_parse.add_argument("--stats", action="store_true", help="print engine statistics")
    p_parse.add_argument(
        "--profile", action="store_true", help="print per-constraint elimination counts"
    )
    p_parse.add_argument(
        "--conll", action="store_true", help="print parses in CoNLL-style columns"
    )
    p_parse.add_argument(
        "--strict", action="store_true", help="exit 1 when the sentence has no parse"
    )
    p_parse.set_defaults(func=_cmd_parse)

    p_grammars = sub.add_parser("grammars", help="list built-in grammars")
    p_grammars.set_defaults(func=_cmd_grammars)

    p_timing = sub.add_parser("timing", help="simulated MasPar timing sweep")
    p_timing.add_argument("--max-n", type=int, default=12)
    p_timing.set_defaults(func=_cmd_timing)

    p_figures = sub.add_parser("figures", help="replay the paper's worked example")
    p_figures.set_defaults(func=_cmd_figures)

    p_serve = sub.add_parser(
        "serve-bench",
        help="run a ParseService under synthetic load and print its metrics",
    )
    p_serve.add_argument("--grammar", "-g", default="english",
                         help="grammar whose lexicon covers the workload generator "
                              "(english / english-extended)")
    p_serve.add_argument("--engine", "-e", default="vector", help=engine_help)
    p_serve.add_argument("--workers", "-w", type=_positive_int, default=2)
    p_serve.add_argument("--workers-mode", choices=("thread", "process"),
                         default="thread",
                         help="thread workers (GIL-shared) or process workers "
                              "over the shared-memory template store")
    p_serve.add_argument("--start-method", choices=("fork", "spawn", "forkserver"),
                         default=None,
                         help="multiprocessing start method for --workers-mode=process "
                              "(default: fork where available)")
    p_serve.add_argument("--requests", "-n", type=int, default=64)
    p_serve.add_argument("--shapes", type=_positive_int, default=4,
                         help="distinct sentence shapes interleaved in the load")
    p_serve.add_argument("--batch-size", type=_positive_int, default=16,
                         help="dynamic batcher flush size")
    p_serve.add_argument("--streaming", action="store_true",
                         help="drive word-at-a-time streams (one per --shapes) "
                              "instead of whole-sentence requests")
    p_serve.add_argument("--linger-ms", type=_non_negative_float, default=2.0,
                         help="dynamic batcher max linger (milliseconds)")
    p_serve.set_defaults(func=_cmd_serve_bench)

    p_stream = sub.add_parser(
        "stream",
        help="parse word-at-a-time (incremental streaming core)",
        description="Feed words one at a time — as arguments, or from stdin "
        "when none are given — and print the running verdict and domain "
        "sizes after each token.  Templates are grown by prefix extension, "
        "so the whole stream costs one cumulative template build.",
    )
    p_stream.add_argument("words", nargs="*",
                          help="tokens (or one quoted sentence); default: read stdin")
    p_stream.add_argument("--grammar", "-g", default="english")
    p_stream.add_argument("--engine", "-e", default="vector", help=engine_help)
    p_stream.set_defaults(func=_cmd_stream)

    p_cluster = sub.add_parser(
        "cluster",
        help="networked sharded parse cluster (shard / up)",
        description="Run the repro.cluster subsystem: a consistent-hash "
        "router fanning parse and stream requests across shard servers, "
        "each fronting its own ParseService on a localhost socket.",
    )
    cluster_sub = p_cluster.add_subparsers(dest="cluster_command", required=True)

    p_shard = cluster_sub.add_parser(
        "shard", help="run one shard server (used by the launcher)"
    )
    p_shard.add_argument("--grammar", "-g", default="english")
    p_shard.add_argument("--engine", "-e", default="vector", help=engine_help)
    p_shard.add_argument("--host", default="127.0.0.1")
    p_shard.add_argument("--port", type=int, default=0,
                         help="TCP port; 0 asks the OS (announced via --port-file)")
    p_shard.add_argument("--shard-id", type=int, default=0)
    p_shard.add_argument("--workers", "-w", type=_positive_int, default=1)
    p_shard.add_argument("--workers-mode", choices=("thread", "process"), default="thread")
    p_shard.add_argument("--max-batch-size", type=_positive_int, default=16)
    p_shard.add_argument("--max-linger", type=_non_negative_float, default=0.002,
                         help="dynamic batcher max linger (seconds)")
    p_shard.add_argument("--log", default=None, help="structured shard log path")
    p_shard.add_argument("--port-file", default=None,
                         help="file to write host:port into once listening")
    p_shard.set_defaults(func=_cmd_cluster_shard)

    p_up = cluster_sub.add_parser(
        "up", help="launch a local cluster of shard subprocesses"
    )
    p_up.add_argument("--grammar", "-g", default="english")
    p_up.add_argument("--engine", "-e", default="vector", help=engine_help)
    p_up.add_argument("--shards", type=int, default=2)
    p_up.add_argument("--workers", "-w", type=_positive_int, default=1,
                      help="service workers per shard")
    p_up.add_argument("--workers-mode", choices=("thread", "process"), default="thread")
    p_up.add_argument("--run-dir", default=None,
                      help="directory for port files and shard logs")
    p_up.set_defaults(func=_cmd_cluster_up)

    p_explain = sub.add_parser(
        "explain", help="trace a parse and show what each constraint eliminated"
    )
    p_explain.add_argument("words", nargs="+")
    p_explain.add_argument("--grammar", "-g", default="english")
    p_explain.add_argument("--engine", "-e", default="vector", help=engine_help)
    p_explain.add_argument(
        "--all-phases", action="store_true", help="include phases that eliminated nothing"
    )
    p_explain.set_defaults(func=_cmd_explain)

    return parser


def main(argv: Sequence[str] | None = None, out=None) -> int:
    out = out or sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, out)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
