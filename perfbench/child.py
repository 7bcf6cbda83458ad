"""Run one solvhull CLI command with the per-layer tracer installed.

    python3 perfbench/child.py TRACE_OUT COMMAND [CLI ARGS...]

Behaves like ``python -m solvhull COMMAND [CLI ARGS...]`` (same output,
same exit code) and writes the tracer's totals as JSON to TRACE_OUT.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import layers  # noqa: E402


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = layers.Tracer()
    tracer.install()
    cli = sys.modules["solvhull.cli"]
    try:
        return cli.main(argv)
    finally:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(tracer.snapshot(), fh)


if __name__ == "__main__":
    sys.exit(main())
