"""CFG substrate: the baseline formalism compared against in Figure 8."""

from repro.cfg.builtin import (
    anbn_cfg,
    balanced_brackets_cfg,
    english_cfg,
    palindrome_cfg,
    typed_brackets_cfg,
)
from repro.cfg.cellular import MeshResult, mesh_cyk
from repro.cfg.cnf import to_cnf
from repro.cfg.cyk import CYKResult, cyk_accepts, cyk_parse
from repro.cfg.earley import earley_accepts
from repro.cfg.generator import random_corpus, random_derivation
from repro.cfg.grammar import CFG, Production

__all__ = [
    "CFG",
    "Production",
    "to_cnf",
    "cyk_parse",
    "cyk_accepts",
    "CYKResult",
    "earley_accepts",
    "mesh_cyk",
    "MeshResult",
    "english_cfg",
    "anbn_cfg",
    "balanced_brackets_cfg",
    "typed_brackets_cfg",
    "palindrome_cfg",
    "random_derivation",
    "random_corpus",
]
