"""Run one ``repro-obfuscade`` command in this process, as the console
script does, and leave a small JSON record of it for the benchmark.

Usage::

    python3 perfbench/launch.py RECORD.json -- sweep --jobs 2 ...

The record holds the exit code and the ``time.monotonic()`` stamps of
every ``Obfuscator.protect_tensile_bar`` call and of the service's
construction, which is how the benchmark splits set-up time into import
and model protection without touching the program.  ``time.monotonic``
reads the system-wide monotonic clock on Linux, so the stamps compare
directly with the benchmark's own clock.

With ``PERFBENCH_TRACE_DIR`` set, the layer spans of :mod:`spans` are
installed as well and written to that directory when the process (and
each forked pool worker) exits.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

import spans  # sibling module: perfbench/ is sys.path[0]


def _stamp_calls(owner, attr, sink):
    """Append ``[start, end]`` of every call of ``owner.attr`` to ``sink``."""
    original = getattr(owner, attr)

    @functools.wraps(original)
    def stamped(*args, **kwargs):
        row = [time.monotonic(), None]
        sink.append(row)
        try:
            return original(*args, **kwargs)
        finally:
            row[1] = time.monotonic()

    setattr(owner, attr, stamped)


def main() -> int:
    record_path = sys.argv[1]
    argv = sys.argv[sys.argv.index("--") + 1:]
    record = {"protect": [], "service_init": [], "rc": None, "missing": []}
    traced = bool(os.environ.get(spans.TRACE_DIR_ENV))
    if traced:
        record["missing"] = spans.install()
    from repro.obfuscade.obfuscator import Obfuscator

    _stamp_calls(Obfuscator, "protect_tensile_bar", record["protect"])
    if argv and argv[0] == "serve":
        from repro.service.core import ObfuscadeService

        _stamp_calls(ObfuscadeService, "__init__", record["service_init"])
    rc = 1
    try:
        from repro.cli import main as cli_main

        rc = cli_main(argv)
    finally:
        record["rc"] = rc
        if traced:
            spans.flush()
        tmp = record_path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(record, fh)
        os.replace(tmp, record_path)
    return rc


if __name__ == "__main__":
    sys.exit(main())
