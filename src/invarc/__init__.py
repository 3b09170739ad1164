"""invarc: variable-value invariant detection for a C subset.

Pipeline: parse and classify the source, inline and normalize to simple
assignments, compute the pollution closure of unmodelable constructs,
havoc-abstract the polluted part, encode the rest to SMT-LIB 2, and ask
an external solver which variables provably keep their value between
program points.
"""

__version__ = "0.1.0"

from .frontend import parse_translation_unit
from .frontend.classify import classify_constructs
from .normalize import to_simple_assignments
from .pollution import DependencyGraph, analyze_pollution, propagate
from .abstraction import abstract_program
from .encoder import encode_program
from .invariants import detect_invariants
from .solver import SolverConfig, discover_solver, run_solver
from .pipeline import build_pipeline

__all__ = [
    "__version__",
    "build_pipeline",
    "parse_translation_unit",
    "classify_constructs",
    "to_simple_assignments",
    "DependencyGraph",
    "analyze_pollution",
    "propagate",
    "abstract_program",
    "encode_program",
    "detect_invariants",
    "SolverConfig",
    "discover_solver",
    "run_solver",
]
