"""The process pool that runs a search's jobs.

run_jobs runs job 0 in this process first, so its answer is in before any
process is forked.  With P = min(workers, len(jobs) - 1) above one and
os.fork present, it then forks P - 1 helpers, once each, the h-th running
jobs[2 + h::P - 1] in turn, and runs job 1 itself; otherwise it runs every
job itself.  Each helper job has a pipe of its own, read to EOF as its
answer arrives, so a slow helper holds back no other and a cut answer is
an EOFError.  The module imports nothing from the search.
"""

from __future__ import annotations

import marshal
import os
import signal
from typing import Any, BinaryIO, Callable, Dict, List, Sequence, Tuple


def _start(jobs: Sequence[Any], todo: range, chunk: Callable[[Any], Any],
           oom: str) -> Dict[BinaryIO, Tuple[int, int]]:
    """Fork a helper that writes each of jobs[todo] in turn, chunk's
    marshalled output or a one-line error, to a result pipe of its own, and
    leaves by os._exit only: no stdio buffer, --out file or atexit hook
    runs twice.  The pipes' read ends, each to the helper's pid and job."""
    fds: List[int] = []  # result_r, result_w of each job in turn
    try:
        for _ in todo:
            fds += os.pipe()
        pid = os.fork()
    except OSError as exc:
        for fd in fds:
            os.close(fd)
        raise RuntimeError(f"cannot start a search worker: {exc}") from None
    if pid == 0:
        try:
            for signum in (signal.SIGINT, signal.SIGTERM):  # end it at once
                signal.signal(signum, signal.SIG_DFL)
            for i, fd in zip(todo, fds[1::2]):
                try:
                    answer = marshal.dumps(chunk(jobs[i]))
                except Exception as exc:  # MemoryError included
                    answer = marshal.dumps(
                        oom if isinstance(exc, MemoryError)
                        else f"search worker failed: {exc!r}")
                with open(fd, "wb") as out:  # completes a cut-short write
                    out.write(answer)
        finally:
            os._exit(0)
    for write_end in fds[1::2]:  # closed before the next fork
        os.close(write_end)
    return {open(read_end, "rb"): (pid, i)
            for read_end, i in zip(fds[::2], todo)}


def run_jobs(jobs: Sequence[Any], chunk: Callable[[Any], Any], workers: int,
             done: Callable[[int, Any], None], oom: str) -> None:
    """Call done(i, chunk(jobs[i])) in this process once for every job, as
    the outputs come in (module docstring); an output must marshal and be
    no str.  A MemoryError, in chunk or done, here or in a helper, is
    RuntimeError(oom); a helper that cannot start, fails or ends early is
    a one-line RuntimeError too.  Any end kills and reaps the helpers left."""
    helpers = min(workers, len(jobs) - 1) - 1 if hasattr(os, "fork") else 0
    pool: Dict[BinaryIO, Tuple[int, int]] = {}  # result pipe: pid, job index
    try:
        for i in range(2 if helpers > 0 else len(jobs)):
            if i == 1:  # job 0 is in: start the helpers, then run job 1
                for h in range(helpers):
                    pool.update(_start(jobs, range(2 + h, len(jobs), helpers),
                                       chunk, oom))
            done(i, chunk(jobs[i]))
        while pool:
            import select  # loaded only where a helper answers
            pipe = select.select(list(pool), [], [])[0][0]
            with pipe:
                out = marshal.loads(pipe.read())
            pid, i = pool.pop(pipe)
            if pid not in {p for p, _ in pool.values()}:  # its last answer
                os.waitpid(pid, 0)
            if isinstance(out, str):  # the helper's one-line error
                raise RuntimeError(out)
            done(i, out)
    except MemoryError:
        raise RuntimeError(oom) from None
    except EOFError:
        raise RuntimeError("a search worker ended early") from None
    finally:
        for pipe in pool:
            pipe.close()
        for pid in {pid for pid, _ in pool.values()}:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
