"""The run leaves no process behind: children and the resource tracker."""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1]

SCRIPT = textwrap.dedent(
    """
    import json, multiprocessing, os, subprocess, sys, time
    from multiprocessing import resource_tracker, shared_memory
    from wsdbench.processes import child_pids, stop_children

    ring = shared_memory.SharedMemory(create=True, size=4096)
    worker = multiprocessing.get_context("fork").Process(
        target=time.sleep, args=(60,), daemon=True
    )
    worker.start()
    plain = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
    tracker = resource_tracker._resource_tracker._pid
    before = sorted(child_pids())
    ring.close()
    ring.unlink()
    stop_children()
    after = child_pids()
    tracker_alive = os.path.exists(f"/proc/{tracker}")
    print(json.dumps({
        "before": before,
        "expected": sorted([worker.pid, plain.pid, tracker]),
        "after": after,
        "tracker_alive": tracker_alive,
    }))
    """
)


def test_stop_children_ends_and_reaps_every_child():
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        cwd=PERFBENCH,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    report = json.loads(out.stdout.strip().splitlines()[-1])
    assert report["before"] == report["expected"]
    assert report["after"] == []
    assert not report["tracker_alive"]
