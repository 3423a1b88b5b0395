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
