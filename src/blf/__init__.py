"""Long-context encoder pretraining with replaced-token detection, from scratch.

Importing blf sets the process's glibc malloc policy once, so that a training
step reuses the memory the step before it freed instead of faulting fresh
pages in again:

- `M_MMAP_THRESHOLD` = 32 MiB: a block below it comes from the heap, not from
  its own mapping that `free` unmaps. 32 MiB is the cap of glibc's own moving
  threshold.
- `M_TRIM_THRESHOLD` = 1 GiB: `free` returns the heap top to the OS only
  once more than 1 GiB of it is unused.

Setting either value turns glibc's moving thresholds off, so both are set:
the trim threshold alone leaves the mmap threshold at 128 KiB, and the mmap
threshold alone still trims the heap after every step. Freed memory is kept
rather than returned, so the resident size stays at its peak. Where the C
library has no `mallopt` (macOS, Windows), nothing is set.
"""

import ctypes

__version__ = "0.1.0"

_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_memory() -> None:
    # no handle to the C library (OSError; TypeError on Windows), or no mallopt in it
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 1 << 30)


_keep_freed_memory()
