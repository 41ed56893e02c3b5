"""Tests for the command-line interface."""

from __future__ import annotations

import io

import pytest

from repro.cli import main


def run_cli(argv) -> tuple[int, str]:
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestParseCommand:
    def test_accepted_sentence(self):
        code, text = run_cli(["parse", "the", "dog", "runs"])
        assert code == 0
        assert "locally consistent: True" in text
        assert "parses (1)" in text
        assert "SUBJ-3" in text

    def test_quoted_sentence_is_split(self):
        code, text = run_cli(["parse", "the dog runs"])
        assert code == 0
        assert "parses (1)" in text

    def test_strict_exit_code_on_rejection(self):
        code, _ = run_cli(["parse", "dog", "the", "runs", "--strict"])
        assert code == 1

    def test_non_strict_rejection_exits_zero(self):
        code, text = run_cli(["parse", "dog", "the", "runs"])
        assert code == 0
        assert "locally consistent: False" in text

    def test_network_flag(self):
        _, text = run_cli(["parse", "the", "dog", "runs", "--network"])
        assert "governor" in text and "[1]" in text

    def test_stats_flag(self):
        _, text = run_cli(["parse", "the", "dog", "runs", "--stats"])
        assert "pair checks" in text and "wall time" in text

    def test_stats_include_memory_columns(self):
        _, text = run_cli(["parse", "the", "dog", "runs", "--stats"])
        assert "bytes/network" in text
        assert "template cache bytes" in text

    def test_maspar_engine_stats_include_simulated_time(self):
        _, text = run_cli(
            ["parse", "The program runs", "-g", "program", "-e", "maspar", "--stats"]
        )
        assert "simulated MP-1 time" in text
        assert "processors" in text

    @pytest.mark.parametrize("grammar,sentence,accepted", [
        ("anbn", ["a", "a", "b", "b"], True),
        ("anbn", ["a", "b", "b"], False),
        ("copy", ["a", "b", "a", "b"], True),
        ("dyck", ["(", "[", "]", ")"], True),
    ])
    def test_builtin_grammars(self, grammar, sentence, accepted):
        _, text = run_cli(["parse", *sentence, "-g", grammar])
        assert f"locally consistent:" in text
        assert (f"parses (0)" not in text) == accepted

    def test_grammar_file(self, tmp_path):
        from repro.grammar import dump_grammar
        from repro.grammar.builtin import program_grammar

        path = tmp_path / "toy.cdg"
        path.write_text(dump_grammar(program_grammar()))
        code, text = run_cli(["parse", "the", "program", "runs", "-g", str(path)])
        assert code == 0
        assert "parses (1)" in text

    def test_unknown_grammar_errors(self):
        code, _ = run_cli(["parse", "x", "-g", "nope"])
        assert code == 2

    def test_max_parses(self):
        _, text = run_cli(
            ["parse", "the dog runs in the park", "--max-parses", "1"]
        )
        assert "parses (1+" in text


class TestConllAndExplain:
    def test_conll_output(self):
        _, text = run_cli(["parse", "the dog runs", "--conll"])
        assert "1\tthe\tdet\t2\tDET" in text
        assert "3\truns\tverb\t0\tROOT" in text

    def test_explain_shows_eliminations(self):
        code, text = run_cli(["explain", "the saw runs"])
        assert code == 0
        assert "eliminated" in text
        assert "saw[2].governor" in text
        assert "locally consistent: True" in text

    def test_explain_all_phases(self):
        _, quiet = run_cli(["explain", "the dog runs"])
        _, loud = run_cli(["explain", "the dog runs", "--all-phases"])
        assert len(loud) > len(quiet)

    def test_explain_toy_grammar(self):
        _, text = run_cli(["explain", "The program runs", "-g", "program"])
        assert "[unary:verbs-are-ungoverned-roots] eliminated 8:" in text


class TestVersionAndEngineValidation:
    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert f"repro {__version__}" in capsys.readouterr().out

    def test_unknown_engine_lists_registered_engines(self, capsys):
        code, _ = run_cli(["parse", "the dog runs", "-e", "warp-drive"])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown engine 'warp-drive'" in err
        # The message must enumerate what *is* registered.
        for name in ("serial", "vector", "pram", "maspar", "mesh"):
            assert name in err

    def test_runtime_registered_engine_is_accepted(self):
        """Validation is against the live registry, not a frozen list."""
        from repro import register_engine
        from repro.engines.vector import VectorEngine

        register_engine("cli-test-engine", VectorEngine)
        try:
            code, text = run_cli(["parse", "the dog runs", "-e", "cli-test-engine"])
            assert code == 0 and "parses (1)" in text
        finally:
            from repro.engines import registry

            registry._REGISTRY.pop("cli-test-engine", None)


class TestArgumentValidation:
    @pytest.mark.parametrize(
        "argv",
        [
            ["serve-bench", "--shapes", "0"],
            ["serve-bench", "-w", "0"],
            ["serve-bench", "--batch-size", "0"],
            ["serve-bench", "--linger-ms", "-1"],
            ["serve-bench", "--linger-ms", "nan"],
            ["cluster", "shard", "--workers", "0"],
            ["cluster", "shard", "--max-batch-size", "0"],
            ["cluster", "shard", "--max-linger", "-0.5"],
            ["cluster", "up", "--workers", "0"],
            ["cluster", "up", "--workers", "two"],
            ["cluster", "bench"],  # retired: the e2e cluster-open workload times the cluster
        ],
        ids=lambda argv: "_".join(argv),
    )
    def test_usage_error(self, argv, capsys):
        """Refused by argparse before any service, shard or fleet starts."""
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "usage:" in capsys.readouterr().err


class TestServeBench:
    def test_serve_bench_prints_metrics_snapshot(self):
        code, text = run_cli(
            ["serve-bench", "-n", "12", "-w", "2", "--shapes", "2", "--linger-ms", "1"]
        )
        assert code == 0
        assert "12 requests" in text and "req/s" in text
        assert "Service metrics" in text
        assert "submitted" in text and "queue_wait_seconds" in text
        assert "template cache over 2 worker(s)" in text

    def test_serve_bench_prints_memory_line(self):
        code, text = run_cli(
            ["serve-bench", "-n", "8", "-w", "1", "--shapes", "1", "--linger-ms", "1"]
        )
        assert code == 0
        assert "bytes/network" in text
        assert "shape(s) profiled" in text


class TestOtherCommands:
    def test_grammars_lists_all(self):
        code, text = run_cli(["grammars"])
        assert code == 0
        for name in ("program", "english", "anbn", "copy", "dyck"):
            assert name in text

    def test_timing_table(self):
        code, text = run_cli(["timing", "--max-n", "4"])
        assert code == 0
        assert "virtual PEs" in text
        assert "150.00 ms" in text  # the calibrated n=3 anchor

    def test_figures_replay(self):
        code, text = run_cli(["figures"])
        assert code == 0
        for figure in ("Figure 1", "Figure 3", "Figure 6", "Figure 7"):
            assert figure in text
        assert "SUBJ-3" in text
