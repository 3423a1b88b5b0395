"""Keep glibc's heap from shrinking and regrowing around every scene.

The map pipeline allocates and frees megabytes of float32 stacks per
scene: a 100x150 default scene holds two rendered stacks and the two
read back from MLNT (6.8 MB) plus the decoder's temporaries, about
7.4 MB in all. glibc's sliding thresholds start at 128 KB and follow
the largest freed mmap chunk, here the 2.28 MB limb stack, so arrays up
to that size come from the heap and the heap is trimmed whenever its
free top reaches twice that, 4.6 MB. Whether a scene's 7.4 MB is then
handed back to the kernel depends only on where small long-lived blocks
(numpy's small-array cache, list buffers) happen to sit: when one sits
above the scene's arrays the pages are reused, and when none does every
scene first touches about 1,900 fresh pages, costing about 2 ms on a
2-core x86-64 host. Which of the two a process settles into changes
with the order of earlier allocations, so the same loop ran at either
speed from one run to the next.

``steady_heap`` fixes both thresholds at the values glibc's own sliding
rule reaches at its ceiling: chunks below 32 MB come from the heap, and
the heap keeps up to 64 MB of free top. Arrays above 32 MB, such as
the network's largest activations and its weight payload, are still
mapped and unmapped on their own. Other C libraries are left alone.

A forward frees tens of megabytes of heap-sized activations as its deep
layers finish, more than the scene loops reuse, and the 64 MB trim
threshold lets the heap keep them. ``release`` hands all of the heap's
free pages back (glibc's ``malloc_trim(0)``); the network calls it once
at the end of each forward, so the next forward's first activations do
not land on top of the last one's freed heap.
"""

import ctypes
import os

_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD = 32 << 20   # glibc's DEFAULT_MMAP_THRESHOLD_MAX on 64-bit
TRIM_THRESHOLD = 2 * MMAP_THRESHOLD


def is_glibc():
    """Whether the process runs on glibc, as the C library itself says."""
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (AttributeError, ValueError, OSError):
        return False


def steady_heap():
    """Fix glibc's mmap and trim thresholds; returns whether both were set."""
    if not is_glibc():
        return False
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return (mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1
            and mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD) == 1)


def release():
    """Return the heap's free pages to the system; returns whether any
    were returned (False on other C libraries, where it does nothing)."""
    if not is_glibc():
        return False
    malloc_trim = ctypes.CDLL(None).malloc_trim
    malloc_trim.argtypes = (ctypes.c_size_t,)
    malloc_trim.restype = ctypes.c_int
    return malloc_trim(0) == 1
