"""Traced stand-in for ``python -m nearfocus.cli``.

    python launcher.py SPANS_PATH MEMORY <nearfocus CLI arguments...>

Times ``import nearfocus`` as the span ``cli.import``, installs the layer
wrappers, runs ``nearfocus.cli.main`` on the remaining arguments (under
``tracemalloc`` when MEMORY is 1) and writes the spans to SPANS_PATH as one
JSON list before exiting with main's status.
Set PYTHONPATH so that ``nearfocus`` resolves to the checkout under test.
"""

import json
import sys
import tracemalloc
from pathlib import Path

import tracing


def main() -> int:
    spans_path = Path(sys.argv[1])
    recorder = tracing.Recorder()
    recorder.op = 0
    with recorder.span("cli.import"):
        import nearfocus.cli
    tracing.install(recorder)
    if sys.argv[2] == "1":
        tracemalloc.start()
    try:
        return nearfocus.cli.main(sys.argv[3:])
    finally:
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        spans_path.write_text(json.dumps(recorder.spans))


if __name__ == "__main__":
    sys.exit(main())
