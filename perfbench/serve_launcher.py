"""Traced server: install the span wrappers, then run ``gprs-repro serve``.

    python3 perfbench/serve_launcher.py SPANS.json [serve flags...]

The spans are kept in memory and written to ``SPANS.json`` once the server
has drained and returned (``POST /shutdown`` or SIGTERM).
"""

from __future__ import annotations

import json
import sys

import repro.cli

import tracing


def main(spans_path: str, serve_args: list[str]) -> int:
    recorder = tracing.SpanRecorder()
    tracing.install(recorder)
    try:
        return repro.cli.main(["serve", *serve_args])
    finally:
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump(recorder.export(), handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
