"""PARSEC — Parallel ARchitecture SEntence Constrainer.

A production-quality reproduction of Helzerman & Harper, *Log Time
Parsing on the MasPar MP-1* (ICPP 1992): Constraint Dependency Grammar
(CDG) parsing, its parallelization, and simulators for the machines the
paper runs on (a CRCW P-RAM and the MasPar MP-1 SIMD array).

Quickstart::

    from repro import ParserSession, extract_parses
    from repro.grammar.builtin import program_grammar

    session = ParserSession(program_grammar(), engine="vector")
    result = session.parse("The program runs")
    for parse in extract_parses(result.network):
        print(parse.describe(session.grammar.symbols))

A :class:`ParserSession` compiles the grammar once and caches network
templates per sentence shape, so batches (``session.parse_many``)
amortize everything but propagation itself; a one-off parse is
``ParserSession(grammar).parse(words)``.

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured record.
"""

from repro.constraints import Constraint, SymbolTable
from repro.engines import (
    EngineStats,
    ParserEngine,
    ParseResult,
    PRAMEngine,
    SerialEngine,
    VectorEngine,
    all_engines,
    available_engines,
    create_engine,
    register_engine,
)
from repro.errors import (
    ConcurrentSessionUse,
    ConstraintError,
    ExtractionError,
    GrammarError,
    LexiconError,
    MachineError,
    NetworkError,
    ReproError,
    SexprSyntaxError,
    StreamError,
)
from repro.cluster import (
    ClusterClient,
    ClusterError,
    ClusterLauncher,
    ParseServer,
    ShardRouter,
)
from repro.grammar import CDGGrammar, GrammarBuilder, Sentence, load_grammar, load_grammar_file
from repro.mesh.engine import MeshEngine
from repro.network import ConstraintNetwork, RoleValue
from repro.parallel import ParallelSession, SharedTemplateStore
from repro.parsec.parser import MasParEngine
from repro.pipeline import (
    CompiledGrammar,
    NetworkTemplate,
    ParserSession,
    StreamingParse,
    compile_grammar,
)
from repro.search import PrecedenceGraph, accepts, count_parses, extract_parses
from repro.serve import (
    DeadlineExceeded,
    ParseService,
    ServeError,
    ServiceMetrics,
    ServiceOverloaded,
    ServiceUnavailable,
)

__version__ = "1.10.0"

# Opt-in runtime invariant checking (REPRO_SANITIZE=1); see
# repro.analysis.sanitizer.  A no-op unless the variable is set.
from repro.analysis.sanitizer import maybe_enable_from_env as _maybe_sanitize

_maybe_sanitize()

__all__ = [
    "__version__",
    # grammar
    "CDGGrammar",
    "GrammarBuilder",
    "Sentence",
    "load_grammar",
    "load_grammar_file",
    "Constraint",
    "SymbolTable",
    # network & parsing
    "ConstraintNetwork",
    "RoleValue",
    "ParserEngine",
    "ParseResult",
    "EngineStats",
    "SerialEngine",
    "VectorEngine",
    "PRAMEngine",
    "MasParEngine",
    "MeshEngine",
    "all_engines",
    "available_engines",
    "create_engine",
    "register_engine",
    # pipeline
    "ParserSession",
    "StreamingParse",
    "CompiledGrammar",
    "compile_grammar",
    "NetworkTemplate",
    # process-parallel data plane
    "ParallelSession",
    "SharedTemplateStore",
    "PrecedenceGraph",
    "extract_parses",
    "count_parses",
    "accepts",
    # serving
    "ParseService",
    "ServiceMetrics",
    "ServeError",
    "ServiceOverloaded",
    "DeadlineExceeded",
    "ServiceUnavailable",
    "ConcurrentSessionUse",
    # networked cluster
    "ClusterClient",
    "ClusterError",
    "ClusterLauncher",
    "ParseServer",
    "ShardRouter",
    # errors
    "ReproError",
    "SexprSyntaxError",
    "ConstraintError",
    "GrammarError",
    "LexiconError",
    "NetworkError",
    "MachineError",
    "ExtractionError",
    "StreamError",
]
