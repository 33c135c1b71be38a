import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
for path in (BENCH, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)
