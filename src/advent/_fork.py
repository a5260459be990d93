"""One map over forked workers, for ingest's parse, the CSV writer and the
head's draw producer: task 0 runs here and every other task in a child of
a bare ``os.fork``, which sends its result through a pipe.  A child that
ends before its result is read raises ChildProcessError with its exit
status, and every child is killed and reaped before the map is left."""

import os
import signal
import traceback
from contextlib import contextmanager

__all__ = ["cores", "part_count", "fork_map"]


def cores() -> int:
    """The cores this process may run on; 1 where it cannot fork."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def part_count(size: int, min_size: int, cores: int) -> int:
    """One part per core, each of `min_size` units of `size` at least."""
    return max(1, min(cores, size // min_size))


class Worker:
    """A forked child and the read end of its pipe."""

    def __init__(self, read_fd: int):
        self.pid, self.pipe = None, open(read_fd, "rb", buffering=0)

    def receive(self, out) -> None:
        """Fill the writable buffer `out` from the pipe."""
        view = memoryview(out).cast("B")
        while view:
            if not (got := self.pipe.readinto(view)):
                status = os.waitstatus_to_exitcode(self.reap(kill=False))
                raise ChildProcessError(f"a forked worker ended with exit status {status} "
                                        "before it sent its result")
            view = view[got:]

    def reap(self, kill: bool = True) -> int:
        """Kill the child if asked, close the pipe, and wait for the child
        once.  Killed first, a child blocked on a write never sees the pipe
        break, so it prints no traceback."""
        pid, self.pid = self.pid, None
        if pid and kill:
            os.kill(pid, signal.SIGKILL)
        self.pipe.close()
        return os.waitpid(pid, 0)[1] if pid else 0


@contextmanager
def fork_map(work, tasks: list, send):
    """``with fork_map(work, tasks, send) as (first, workers)``: `first` is
    ``work(tasks[0])``, run here once every child is forked, and child k of
    `workers` runs ``send(work(tasks[k]), pipe)``."""
    workers = []
    try:
        for task in tasks[1:]:
            read_fd, write_fd = os.pipe()
            workers.append(worker := Worker(read_fd))
            with open(write_fd, "wb") as pipe:
                worker.pid = os.fork()
                if worker.pid == 0:
                    try:
                        os.close(read_fd)
                        send(work(task), pipe)
                        pipe.close()
                        os._exit(0)
                    except Exception:
                        traceback.print_exc()
                    finally:
                        os._exit(1)
        yield work(tasks[0]), workers
    finally:
        for worker in workers:
            worker.reap()
