"""Set-up time of one fresh interpreter: the fixed cost before the first shot.

Prints the seconds taken to import ``photonsub.cli``, resolve the built-in
config and build the argument parser.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

start = time.perf_counter()
from photonsub.cli import build_parser  # noqa: E402
from photonsub.config import load_config  # noqa: E402

load_config(None, {})
build_parser()
print(time.perf_counter() - start)
