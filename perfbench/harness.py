"""Child-process runner and latency statistics for the CLI benchmark.

Every request is a fresh interpreter.  ``run_child`` starts it with
``posix_spawn`` and blocks in ``os.wait4``, so the caller sits idle while
the request runs and gets the child's peak RSS from the kernel.  An
interval timer enforces the time limit: SIGTERM at the limit, SIGKILL
after a short grace period.

Linux counts the spawning process's own peak RSS into the child's
``ru_maxrss`` (it is carried across ``exec``).  The benchmark process is
larger than a small CLI request, so it does not spawn requests itself: a
``Spawner`` runs this file as a separate minimal interpreter (about 10 MB,
below any request) that starts each child and reports back.  This module
therefore imports nothing heavy at the top.
"""

import json
import math
import os
import signal
import sys
import time

# After SIGTERM a traced child unwinds and writes its spans; an untraced
# one dies at once.  Anything still alive after this is killed outright.
KILL_GRACE_S = 2.0

TAIL_BEYOND = 10

# The host's speed drifts by a third or more over tens of seconds, so the
# benchmark times a fixed CPU-bound child that does not touch latmod after
# every request.  Each reported time is scaled by REFERENCE_S over that
# child's mean time in the run: the time the run would have taken on a
# host where the reference child takes REFERENCE_S (about what it takes
# on a quiet 2-vCPU x86-64 container).
REFERENCE_ARGV = [sys.executable, "-c", "x = 0\nfor i in range(150000):\n    x = (x * 31 + i) % 1000003\n"]
REFERENCE_S = 0.06


def child_env(root, workdir):
    """Environment for every child: the checkout's sources on the path and
    byte-code caching on, as for an installed CLI, with the caches kept in
    the work directory rather than in ``src/``.  Compiling the package
    from source in every child would add 0.2-0.3 s to each request."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONPYCACHEPREFIX"] = os.path.join(workdir, "pycache")
    return env


def run_child(argv, limit_s, cwd, env, stdout_path=None):
    """Run ``argv`` to completion or until ``limit_s`` passes; must be
    called from the main thread.

    Returns a dict with ``latency_s`` (from just before the spawn to the
    reap, so interpreter start-up counts), ``returncode``, ``timed_out``
    and ``maxrss_kb``.  Output goes to ``stdout_path`` (or is discarded)
    rather than a pipe, so nothing has to be drained while waiting.
    """
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, stdout_path or os.devnull, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, os.devnull, os.O_WRONLY, 0),
    ]
    state = {"pid": None, "signals": 0}

    def on_alarm(signum, frame):
        state["signals"] += 1
        if state["signals"] == 1:
            os.kill(state["pid"], signal.SIGTERM)
            signal.setitimer(signal.ITIMER_REAL, KILL_GRACE_S)
        else:
            os.kill(state["pid"], signal.SIGKILL)

    previous = signal.signal(signal.SIGALRM, on_alarm)
    old_cwd = os.getcwd()
    try:
        os.chdir(cwd)
        t0 = time.perf_counter()
        state["pid"] = os.posix_spawn(argv[0], argv, env, file_actions=actions)
        signal.setitimer(signal.ITIMER_REAL, limit_s)
        _, status, usage = os.wait4(state["pid"], 0)
        latency = time.perf_counter() - t0
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        os.chdir(old_cwd)
    return {
        "latency_s": latency,
        "returncode": os.waitstatus_to_exitcode(status),
        "timed_out": state["signals"] > 0,
        "maxrss_kb": usage.ru_maxrss,
    }


class Spawner:
    """A minimal interpreter that runs ``run_child`` on request."""

    def __init__(self):
        import subprocess

        self._proc = subprocess.Popen(
            [sys.executable, "-I", "-S", os.path.abspath(__file__)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def run(self, argv, limit_s, cwd, env, stdout_path=None):
        self._proc.stdin.write(json.dumps([argv, limit_s, cwd, env, stdout_path]) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("spawner exited")
        return json.loads(line)

    def close(self):
        self._proc.stdin.close()
        self._proc.stdout.close()
        self._proc.wait()


def _serve():
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run_child(*json.loads(line))) + "\n")
        sys.stdout.flush()


def cli_argv(args):
    return [sys.executable, "-m", "latmod.cli"] + list(args)


def _ranked(samples):
    """Latencies ordered so that every failed request ranks above every
    finished one: a failure misses any latency target."""
    return [lat for _, lat in sorted((bool(failed), lat) for failed, lat in samples)]


def p50(samples):
    """Median latency of ``(failed, latency_s)`` samples."""
    ranked = _ranked(samples)
    n = len(ranked)
    mid = n // 2
    return ranked[mid] if n % 2 else (ranked[mid - 1] + ranked[mid]) / 2


def tail(samples):
    """Latency at the highest whole percentile that leaves at least
    ``TAIL_BEYOND`` samples above it (nearest rank), over ``(failed,
    latency_s)`` samples.  Returns ``(latency_s, percentile, count)``."""
    ranked = _ranked(samples)
    n = len(ranked)
    if n <= TAIL_BEYOND:
        raise ValueError("need more than %d samples for a tail" % TAIL_BEYOND)
    pct = (100 * (n - TAIL_BEYOND)) // n
    rank = max(1, math.ceil(pct * n / 100))
    return ranked[rank - 1], pct, n


if __name__ == "__main__":
    _serve()
