"""Run ``repro serve`` with the serve layers traced.

Usage: ``python3 perfbench/traced_server.py SPANS.json serve [args...]``
(``src`` on ``PYTHONPATH``).  The server runs exactly as
``python -m repro serve [args...]`` would; when it has drained and
stopped, the layer table and the traced window go to ``SPANS.json``.
The pool worker restores the originals when it forks, so only the
server process is traced.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from layers import install_serve_layers  # noqa: E402
from spans import Tracer  # noqa: E402


def main(argv) -> int:
    from repro import cli

    out, serve_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.follow_forks(None)
    install_serve_layers(tracer)
    tracer.start_window()
    try:
        code = cli.main(serve_args)
    finally:
        window_s, covered_s = tracer.window()
        tracer.restore()
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "window_s": window_s,
                "covered_s": covered_s,
                "layers": {name: s.to_dict() for name, s in tracer.layers.items()},
            },
            handle,
        )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
