"""Start-up cost: each entry point imports only what it runs.

Every test runs a fresh interpreter, because this process has long
since imported whatever the other suites use.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def run_fresh(code: str) -> str:
    """Run ``code`` in a new interpreter with ``src`` importable; its stdout."""
    path = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_import_repro_loads_no_subpackage():
    out = run_fresh(
        """
        import sys, repro
        print(sorted(m for m in sys.modules if m.startswith("repro.")))
        """
    )
    assert out == "[]\n"


def test_serving_imports_only_the_request_path():
    out = run_fresh(
        """
        import sys
        from repro.cli import build_parser

        build_parser()
        import repro.serve
        import repro.experiment.scenarios

        # The analysis extra, packages no request reaches, and the linter.
        unused = ("networkx", "repro.city", "repro.econ",
                  "repro.obsolescence", "repro.devtools.simlint")
        print(sorted(m for m in unused if m in sys.modules))
        before = set(sys.modules)
        body = b'{"scenario": "owned-only", "seed": 3, "years": 1.0}'
        repro.serve.parse_request_json(body, "run").digest()
        print(sorted(set(sys.modules) - before))
        """
    )
    assert out == "[]\n[]\n"


def test_a_listening_server_answers_without_importing():
    """``repro serve`` announces ``listening`` only once the request
    path is loaded: its first answer imports no ``repro`` module."""
    out = run_fresh(
        r"""
        import asyncio, sys
        from repro.serve import http

        async def one_request(self):
            loaded = set(sys.modules)
            reader, writer = await asyncio.open_connection(self.host, self.port)
            body = b'{"scenario": "owned-only", "years": 0.05, "report_days": 7}'
            writer.write(
                b"POST /v1/run HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % len(body)
                + body
            )
            head = (await reader.readuntil(b"\r\n\r\n")).decode().lower()
            length = int(head.split("content-length: ")[1].split()[0])
            await reader.readexactly(length)
            writer.close()
            await self.stop()
            new = set(sys.modules) - loaded
            print("answered", head.split()[1], sorted(m for m in new if m.startswith("repro")))

        # Serve one request from inside the loop instead of waiting for SIGTERM.
        http.HttpServer.serve_until_stopped = one_request
        from repro.cli import main

        sys.exit(main(["serve", "--port", "0", "--workers", "1"]))
        """
    )
    lines = out.splitlines()
    assert lines[0].startswith("repro serve: listening on http://")
    assert "answered 200 []" in lines


def test_run_needs_no_networkx():
    out = run_fresh(
        """
        import sys

        sys.modules["networkx"] = None  # an install without the analysis extra
        from repro.cli import main

        print("exit", main(["run", "owned-only", "--years", "1"]))
        """
    )
    assert out.splitlines()[-1] == "exit 0"
