"""Reference for set-up time: seconds a fresh interpreter takes to import numpy.

numpy's import is most of photonsub's set-up and runs no photonsub code, so
it measures how fast the machine imports right now.
"""

import time

start = time.perf_counter()
import numpy  # noqa: E402,F401

print(time.perf_counter() - start)
