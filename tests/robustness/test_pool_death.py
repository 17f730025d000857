"""A pool worker that dies holding a shared lock must not wedge the phase.

``os._exit`` (the ``exit@N`` fault, and any SIGKILL or OOM kill) skips
every cleanup, so a worker that dies while holding a cross-process lock
leaves it held forever. The phase executor must never need such a lock
again: the supervised pool has to reap the broken pool, rerun the lost
chunk on fresh workers, and finish with the exact records.

The race is forced, not waited for: the dying worker first takes the
write lock of every queue it shares with its peers — the pool's result
queue and any queue handed to the pool initializer — and only then
exits. A subprocess timeout bounds the test, so a regression shows up
as a failure instead of a hung suite.
"""

import os
import signal
import subprocess
import sys

import pytest

import repro

_SCRIPT = """\
import multiprocessing
import os
import sys

import repro.faults
from repro.core.policies import make_policy
from repro.experiments.base import ExperimentContext, collect_records
from repro.experiments.runner import CampaignStats, SupervisionPolicy
from repro.faults import parse_fault_plan
from repro.telemetry import ProgressBoard, Telemetry

SAMPLES = 6


def shared_write_locks():
    frame = sys._getframe()
    while frame.f_code.co_name != "_process_worker":
        frame = frame.f_back
    shared = [frame.f_locals["result_queue"],
              *(frame.f_locals["initargs"] or ())]
    return [q._wlock for q in shared if getattr(q, "_wlock", None)]


class DyingOs:
    \"\"\"``os`` for the fault module, whose ``_exit`` first grabs every
    write lock the worker shares with its peers.\"\"\"

    def __getattr__(self, name):
        return getattr(os, name)

    @staticmethod
    def _exit(status):
        for lock in shared_write_locks():
            lock.acquire()
        os._exit(status)


def collect(ctx):
    _, records = collect_records(ctx, make_policy("baseline", 1), SAMPLES,
                                 counts_only=True)
    return [(r.ciphertext, r.total_time, r.total_accesses)
            for r in records]


if __name__ == "__main__":
    # fork: pool workers must inherit the patched fault module.
    multiprocessing.set_start_method("fork", force=True)
    golden = collect(ExperimentContext(root_seed=515, samples=SAMPLES))
    repro.faults.os = DyingOs()
    campaign = CampaignStats()
    ctx = ExperimentContext(
        root_seed=515, samples=SAMPLES, jobs=2,
        telemetry=Telemetry(board=ProgressBoard()),
        supervision=SupervisionPolicy(backoff_base=0.0),
        faults=parse_fault_plan("exit@5"), campaign=campaign)
    assert collect(ctx) == golden
    assert campaign.pool_restarts >= 1
    print("drained")
"""


def test_worker_dying_with_shared_locks_held_cannot_wedge(tmp_path):
    script = tmp_path / "dying_worker.py"
    script.write_text(_SCRIPT)
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    # A session of its own, so a wedged run's orphaned pool workers can
    # be killed together with it.
    proc = subprocess.Popen([sys.executable, str(script)], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("the phase wedged behind a dead worker's lock")
    assert proc.returncode == 0, err
    assert out.strip() == "drained"
