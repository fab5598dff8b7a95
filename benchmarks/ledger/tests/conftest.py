"""Path set-up: the ledger's modules are flat files beside ``run.py``."""

import os
import sys

LEDGER = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(os.path.dirname(LEDGER))

for path in (os.path.join(ROOT, "src"), LEDGER):
    if path not in sys.path:
        sys.path.insert(0, path)
