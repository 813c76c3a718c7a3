"""The package's one fork: run a function in a child, collect its answer."""

import os
import pickle
from contextlib import contextmanager

from .errors import MflabError


@contextmanager
def forked(fn, *args):
    """Run fn(*args) in a forked child while the with-block runs.  The block
    gets a function that waits for the child and returns fn's value or
    raises fn's exception; a child with no whole answer gives an MflabError
    naming its exit status.  The child is reaped on every exit path.  Not a
    thread: numpy work on small arrays holds the GIL."""
    read_fd, write_fd = os.pipe()
    if (pid := os.fork()) == 0:
        code = 2
        try:
            os.close(read_fd)
            try:
                ok, value = True, fn(*args)
            except BaseException as err:
                ok, value = False, err
            with open(write_fd, "wb") as pipe:
                pickle.dump((ok, value), pipe)
            code = int(not ok)
        finally:
            os._exit(code)
    os.close(write_fd)
    pipe, status = open(read_fd, "rb"), []

    def result():
        reply = pipe.read()
        status.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
        try:
            ok, value = pickle.loads(reply)
        except (EOFError, pickle.UnpicklingError):  # empty or cut short
            raise MflabError(f"{fn.__name__} in a forked child exited with "
                             f"status {status[0]}") from None
        if not ok:
            raise value
        return value

    try:
        yield result
    finally:
        pipe.close()
        if not status:
            os.waitpid(pid, 0)
