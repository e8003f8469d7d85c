"""Traced ``repro serve``: install the layer wrappers, then run the CLI.

    python perfbench/serve_launcher.py SPANS_OUT serve EDGES [options]

Runs ``repro.cli.main(["serve", ...])`` unchanged after
:func:`tracing.install_serve`, and writes the recorded spans to
``SPANS_OUT`` when the server exits (SIGINT is its documented shutdown).
"""

from __future__ import annotations

import sys

import tracing


def main(argv: list[str]) -> int:
    spans_out, cli_args = argv[0], argv[1:]
    rec = tracing.Recorder()
    tracing.install_serve(rec)
    from repro.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        rec.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
