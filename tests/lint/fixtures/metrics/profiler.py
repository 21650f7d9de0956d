"""DET001 + OBS001 positive: a wall-time timer under metrics/ is flagged.

No file in the metrics package may read the host clock, whatever its
name: each ``perf_counter`` read below trips both rules. Host wall time
is measured outside ``src/``, by the benchmark's span tracer.
"""

import time


def timed(callback):
    def wrapper(*args):
        start = time.perf_counter()
        try:
            return callback(*args)
        finally:
            _record(time.perf_counter() - start)

    return wrapper


def _record(elapsed):
    del elapsed
