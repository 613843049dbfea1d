"""Process hygiene and measurement from outside: process groups, peak
memory, leaked shared-memory segments and the host-speed probe.

Linux only: everything here reads ``/proc`` and ``/dev/shm``.
"""

from __future__ import annotations

import glob
import os
import signal
import subprocess
import threading
import time


def spawn(cmd: list[str], env: dict, **kwargs) -> subprocess.Popen:
    """Start *cmd* as the leader of a new session and process group."""
    return subprocess.Popen(cmd, env=env, start_new_session=True, **kwargs)


def group_members(pgid: int) -> list[int]:
    """Live (non-zombie) processes whose process group is *pgid*."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as fh:
                stat = fh.read()
        except OSError:
            continue
        # Fields after the parenthesised command name: state ppid pgrp ...
        fields = stat[stat.rfind(b")") + 2:].split()
        if len(fields) > 2 and int(fields[2]) == pgid and fields[0] != b"Z":
            members.append(int(entry))
    return members


def reap_group(pgid: int, grace_s: float = 3.0) -> bool:
    """Wait up to *grace_s* for group *pgid* to empty; kill what is left.

    Returns ``True`` when the group emptied on its own, ``False`` when
    members had to be killed — the op that owned the group left a live
    process behind.
    """
    deadline = time.monotonic() + grace_s
    while group_members(pgid):
        if time.monotonic() > deadline:
            kill_group(pgid)
            end = time.monotonic() + 5.0
            while group_members(pgid) and time.monotonic() < end:
                time.sleep(0.05)
            return False
        time.sleep(0.02)
    return True


def kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def stop_group(proc: subprocess.Popen, timeout_s: float = 10.0) -> None:
    """Kill the whole group of *proc* and wait for its leader."""
    kill_group(proc.pid)
    try:
        proc.wait(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        pass
    reap_group(proc.pid, grace_s=timeout_s)


def wait_peak(proc: subprocess.Popen, timeout_s: float) -> tuple[int, float]:
    """Wait for *proc*; return its exit code and peak RSS in MB.

    The peak is the kernel's high-water mark of the process and its
    waited-for descendants (``wait4`` rusage), so a peak lasting a few
    milliseconds is not missed the way a sampler would miss it.  The
    group is killed if the leader runs past *timeout_s*.
    """
    watchdog = threading.Timer(timeout_s, kill_group, args=(proc.pid,))
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def shm_segments() -> set[str]:
    """The program's data-plane shared-memory segments now present."""
    return set(glob.glob("/dev/shm/repro_dp_*"))


def peak_rss_mb(pgid: int) -> float:
    """Summed peak RSS (``VmHWM``, the kernel's high-water mark) of the
    live processes of group *pgid*, in MB."""
    total_kb = 0
    for pid in group_members(pgid):
        try:
            with open(f"/proc/{pid}/status", "rb") as fh:
                for line in fh:
                    if line.startswith(b"VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


def host_probe() -> float:
    """Seconds for a fixed pure-Python loop: a host-speed reading that the
    program under test cannot move."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_500_000):
        acc = (acc + i * i) % 1_000_003
    elapsed = time.perf_counter() - t0
    if acc < 0:  # keeps the loop's result live
        raise AssertionError
    return elapsed


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of all CPUs since boot, from ``/proc/stat``."""
    with open("/proc/stat") as fh:
        fields = [int(v) for v in fh.readline().split()[1:]]
    # user nice system idle iowait irq softirq steal [guest guest_nice]
    return fields[7], sum(fields[:8])
