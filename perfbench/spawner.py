"""Spawn the benchmark's children one at a time, from a process kept small.

A child's max-RSS as os.wait4 reports it includes the memory high-water mark
of the process that spawned it, because the pre-exec image counts.  So
``run.py`` does not spawn children itself: it starts this script once, as
``python -S spawner.py``, and sends it one request per line on stdin:

    {"argv": [...], "sink": PATH or null, "stderr": PATH}

For each, this script runs argv with stdin from /dev/null, stderr to the
given file, and stdout drained in 1 MiB reads into an incremental hash (and
into the sink file when one is named), so the reader never throttles the
child; a child that outlives CHILD_TIMEOUT_S is killed.  It replies with
one JSON line per request and exits at end of input.  Times are
time.perf_counter_ns() readings, the clock child processes share.
"""

import json
import os
import signal
import sys
import time
from _blake2 import blake2b  # hashlib would also load OpenSSL, about 4 MB

CHUNK = 1 << 20
# A child still writing after this long is killed, so that one hung
# invocation fails the run instead of stalling it.
CHILD_TIMEOUT_S = 100


def run(argv, sink_path, stderr_path, buffer):
    view = memoryview(buffer)
    read_fd, write_fd = os.pipe()
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_DUP2, write_fd, 1),
        (os.POSIX_SPAWN_OPEN, 2, stderr_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    hasher = blake2b()
    first_byte_ns = None
    lines = nbytes = 0
    sink = open(sink_path, "wb") if sink_path else None
    try:
        start_ns = time.perf_counter_ns()
        pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
        os.close(write_fd)
        signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
        signal.alarm(CHILD_TIMEOUT_S)
        while True:
            size = os.readv(read_fd, [view])
            if not size:
                break
            if first_byte_ns is None:
                first_byte_ns = time.perf_counter_ns()
            chunk = view[:size]
            hasher.update(chunk)
            nbytes += size
            lines += buffer.count(b"\n", 0, size)
            if sink is not None:
                sink.write(chunk)
        signal.alarm(0)
        _, status, usage = os.wait4(pid, 0)
        end_ns = time.perf_counter_ns()
    finally:
        os.close(read_fd)
        if sink is not None:
            sink.close()
    return {
        "start_ns": start_ns,
        "end_ns": end_ns,
        "first_byte_ns": first_byte_ns,
        "rss_kb": usage.ru_maxrss,
        "returncode": os.waitstatus_to_exitcode(status),
        "digest": hasher.hexdigest(),
        "lines": lines,
        "nbytes": nbytes,
    }


def main():
    buffer = bytearray(CHUNK)
    for line in sys.stdin:
        request = json.loads(line)
        reply = run(request["argv"], request["sink"], request["stderr"], buffer)
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
