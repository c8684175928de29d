"""Process entry point of ``python -m conjsim`` and of the ``conjsim`` console script.

A job runs without the cyclic garbage collector: ``run`` turns it off before
it imports ``cli`` and ``main`` loads numpy.  The objects a job makes while it
loads live until ``os._exit`` ends the process, so the collector's passes over
what numpy and conjsim create (35–46 per job, 6–8 ms) could free nothing.
The cyclic garbage a job makes while it works is bounded: with the collector
off, a job's peak RSS grew by 0.1–0.4 MB, even for ``props`` at 3000 trials
and a ``zpremeasure`` qkd job at 3e6 rounds writing a CSV transcript.  Importing
``conjsim`` and calling ``cli.main`` in-process leave the collector as they
found it.

A job ends as soon as ``cli.main`` returns its exit code: the standard streams
are flushed and ``os._exit`` ends the process without the interpreter's
teardown, which would spend about 28 ms finalizing numpy and every loaded
module.  No ``atexit`` handler runs, so ``main`` closes every output it writes.
An argparse ``SystemExit`` (usage errors, ``--help``) ends the same way with its
code, so a stderr that fails the interpreter's last flush cannot turn exit 2
into 120.  An exception that escapes ``main`` takes the ordinary exit.
"""

import gc
import os
import sys
from typing import NoReturn


def run() -> NoReturn:
    gc.disable()
    from .cli import main

    try:
        code = main()
    except SystemExit as stop:          # argparse has written its usage text or help
        code = stop.code
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:           # None when the file descriptor was closed at start
            try:
                stream.flush()
            except OSError:              # main flushed its report and named a closed reader
                pass
    os._exit(code)


if __name__ == "__main__":
    run()
