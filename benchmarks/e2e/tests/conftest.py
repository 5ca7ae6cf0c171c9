"""Tests of the e2e benchmark; run by explicit path, not part of tier-1:

    PYTHONPATH=src python -m pytest benchmarks/e2e/tests -q
"""

import sys
from pathlib import Path

E2E = Path(__file__).resolve().parents[1]
if str(E2E) not in sys.path:
    sys.path.insert(0, str(E2E))
