import subprocess
import sys

import pytest

from mlnpose import _heap

glibc = pytest.mark.skipif(not _heap.is_glibc(), reason="the heap thresholds are glibc's")

# One default scene's stacks: two rendered and two read back, 6.8 MB,
# allocated, written and freed together, ten times over. Prints the
# minor page faults of the last eight rounds.
_SCENE_LOOP = """
import resource
import numpy as np
{prelude}
sizes = (19 * 15000, 38 * 15000) * 2
def scene():
    stacks = [np.empty(n, np.float32) for n in sizes]
    for s in stacks:
        s.fill(1.0)
scene()
scene()
f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(8):
    scene()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0)
"""


# 48 MB of 1 MB arrays, written and freed: below both thresholds, so the
# heap keeps them. Prints VmRSS before and after ``release``, in kB.
_FREED_HEAP = """
import re
import numpy as np
import mlnpose
from mlnpose import _heap
def rss_kb():
    with open("/proc/self/status") as f:
        return int(re.search(r"VmRSS:\\s+(\\d+) kB", f.read()).group(1))
arrays = [np.ones(1 << 18, np.float32) for _ in range(48)]
del arrays
before = rss_kb()
_heap.release()
print(before, rss_kb())
"""


def scene_loop_faults(prelude):
    out = subprocess.run([sys.executable, "-c", _SCENE_LOOP.format(prelude=prelude)],
                         capture_output=True, text=True, check=True)
    return int(out.stdout)


@glibc
def test_steady_heap_sets_both_thresholds():
    assert _heap.steady_heap()


@glibc
def test_scene_stacks_reuse_their_pages():
    # 6.8 MB a round is 1,660 pages. With glibc's sliding thresholds the
    # heap is trimmed after every round and each round faults them all
    # in again; with the thresholds fixed on import the pages are reused.
    assert scene_loop_faults("import mlnpose") < 8 * 50
    assert scene_loop_faults("") > 8 * 1000


@glibc
def test_release_hands_back_freed_heap():
    out = subprocess.run([sys.executable, "-c", _FREED_HEAP],
                         capture_output=True, text=True, check=True)
    before, after = map(int, out.stdout.split())
    assert before - after >= 40 * 1024


def test_release_is_a_no_op_off_glibc(monkeypatch):
    monkeypatch.setattr(_heap, "is_glibc", lambda: False)
    assert _heap.release() is False
