"""``python -m qcover.cli`` with the tracer installed, for traced CLI calls.

Usage: cli_traced.py SPANS_OUT ARGS...  Runs ``qcover.cli.main(ARGS)`` under
a root span ``cli.main``, writes the spans, counts and failure layer to
SPANS_OUT as JSON, also when main raises, and exits with main's code.
"""

import json
import sys
from pathlib import Path

import qcover.cli
from tracer import Tracer


def main() -> int:
    tracer = Tracer()
    tracer.install()
    try:
        return tracer.run(0, qcover.cli.main, sys.argv[2:], name="cli.main")
    finally:
        Path(sys.argv[1]).write_text(json.dumps(tracer.export()), encoding="utf-8")


if __name__ == "__main__":
    raise SystemExit(main())
