"""Run one wavebath command line with spans recorded.

Traced passes of the `cli` workload start each command through this
file instead of ``python -m wavebath.cli``, so the spans of the command
process are recorded too:

    python3 perfbench/tracecli.py SPANS.json [wavebath arguments ...]

The import of ``wavebath.cli`` gets its own span, ``cli.import``. The
command gets the span ``cli.main``, tagged with its exit code and marked
failed when that code is not 0: the command line reports failure by
its exit code, not by raising. The spans are written to SPANS.json when
the command returns, and the exit code is the command's.
"""

import sys

from tracing import Tracer


def exit_code(exc):
    """The process exit code a SystemExit stands for."""
    if exc.code is None:
        return 0
    return exc.code if isinstance(exc.code, int) else 1


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    with tracer.span("cli.import"):
        import wavebath.cli
    command = wavebath.cli.main      # its span is opened here, not wrapped
    tracer.install()
    tracer.open("cli.main")
    code = 1                         # stays 1 if the command raises
    try:
        code = command(argv) or 0
    except SystemExit as exc:        # argparse errors exit this way
        code = exit_code(exc)
    finally:
        tracer.close(code != 0, exit=code)
        tracer.uninstall()
        tracer.write(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
