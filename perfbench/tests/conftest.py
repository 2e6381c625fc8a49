import sys
from pathlib import Path

# the benchmark's modules are plain scripts; the program lives under src/
_BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_BENCH))
sys.path.insert(0, str(_BENCH.parent / "src"))
