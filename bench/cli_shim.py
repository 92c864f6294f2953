"""Traced stand-in for `python -m ramseykit.cli`, used by the traced passes
of the `cli` workload.

    python3 bench/cli_shim.py SPANS.json <ramseykit arguments...>

It wraps the library's public functions and `cli.run`, runs the command
exactly as the console entry point does (same stdout, same exit status, and
an uncaught exception still ends in a traceback), and writes the spans to
SPANS.json on the way out.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import spans  # noqa: E402

import ramseykit.cli as cli  # noqa: E402


def main() -> None:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    tracer.job = "cli"
    spans.install(tracer, with_cli=True)
    try:
        code = cli.run(argv)
    finally:
        sys.stdout.flush()
        tracer.dump(out)
    sys.exit(code)


if __name__ == "__main__":
    main()
