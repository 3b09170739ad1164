"""Make the benchmark's modules, the analyzer and the oracle suites'
generators importable for the benchmark's own tests."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src"),
                str(HERE.parent / "tests")]
