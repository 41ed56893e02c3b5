"""COV — grammar coverage and ambiguity statistics (extension table).

The paper's spoken-language programme rests on CNs "compactly stor[ing]
multiple parses"; this bench quantifies that over generated corpora for
both English grammars: acceptance rate on grammatical input, rejection
rate on scrambled input, ambiguity rate and parse counts, and how early
the constraint sequence settles (the paper's "often determined after
only a portion of the constraints").
"""

from __future__ import annotations

import random
import statistics

import pytest

from repro import ParserSession, count_parses
from repro.analysis import profile_parse
from repro.grammar.builtin import english_extended_grammar, english_grammar
from repro.workloads import random_sentence, scrambled_sentence

CORPUS_SIZE = 40


def corpus_stats(grammar, sentences):
    accepted = 0
    parse_counts = []
    settled = []
    for words in sentences:
        result = ParserSession(grammar, engine="vector").parse(words)
        parses = count_parses(result.network, limit=100)
        if parses:
            accepted += 1
            parse_counts.append(parses)
            profile = profile_parse(grammar, words)
            settled.append(profile.settled_after() / len(profile.records))
    return accepted, parse_counts, settled


@pytest.mark.benchmark(group="coverage")
def test_corpus_coverage(benchmark, report):
    rng = random.Random(2024)
    grammatical = [random_sentence(rng) for _ in range(CORPUS_SIZE)]
    scrambled = [scrambled_sentence(rng) for _ in range(CORPUS_SIZE)]

    def run():
        rows = []
        for grammar in (english_grammar(), english_extended_grammar()):
            ok, parse_counts, settled = corpus_stats(grammar, grammatical)
            bad, _, _ = corpus_stats(grammar, scrambled)
            ambiguous = sum(1 for c in parse_counts if c > 1)
            rows.append(
                [
                    grammar.name,
                    f"{ok}/{CORPUS_SIZE}",
                    f"{CORPUS_SIZE - bad}/{CORPUS_SIZE}",
                    f"{ambiguous}/{max(1, len(parse_counts))}",
                    f"{statistics.mean(parse_counts):.2f}",
                    max(parse_counts),
                    f"{statistics.mean(settled):.0%}",
                ]
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        "COV: corpus coverage and ambiguity (generated corpora, seed 2024)",
        [
            "grammar",
            "grammatical accepted",
            "scrambled rejected",
            "ambiguous",
            "mean parses",
            "max parses",
            "settles after",
        ],
        rows,
        notes="'settles after' = fraction of the constraint sequence that still\n"
              "eliminated something — the paper's early-settling observation.",
    )

    for row in rows:
        accepted = int(row[1].split("/")[0])
        rejected = int(row[2].split("/")[0])
        assert accepted == CORPUS_SIZE, f"{row[0]} rejected grammatical input"
        # Scrambles can occasionally come out grammatical; most must not.
        assert rejected > CORPUS_SIZE * 0.7, f"{row[0]} accepted too many scrambles"
