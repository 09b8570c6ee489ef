"""Traced CLI process: ``python3 cli_trace.py DUMP ARGS...``.

Behaves like ``python -m convexhyper.cli ARGS...`` (same stdout and exit
code) with the outside-in tracer installed, and writes its spans plus the
import and command times to DUMP.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracer import Tracer, install_library_hooks, install_qhull_hook  # noqa: E402


def main():
    dump_path, args = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install_qhull_hook(tracer)
    from convexhyper import cli

    import_s = time.perf_counter() - START
    install_library_hooks(tracer)
    tracer.enabled = True
    tracer.op = 0
    t0 = time.perf_counter()
    code = 0
    try:
        cli.main(args=args, prog_name="convexhyper", standalone_mode=True)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    command_s = time.perf_counter() - t0
    tracer.enabled = False
    sys.stdout.flush()
    with open(dump_path, "w") as fh:
        json.dump(dict(tracer.dump(), import_s=import_s, command_s=command_s), fh,
                  separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main())
