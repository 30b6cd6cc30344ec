"""Start ``ensemfdet serve`` the way a user does, optionally traced.

Usage (from ``run.py``)::

    python3 perfbench/serve_boot.py <trace-file|-> serve <cli flags...>

Everything after the first argument goes to ``repro.cli.main`` unchanged.
With a trace file, the layer wrappers of :mod:`tracing` are installed
before the CLI starts but stay disabled: ``SIGUSR1`` enables them,
``SIGUSR2`` disables them, and the spans are written to the trace file
when the server exits. With ``-``, nothing is wrapped.
"""

from __future__ import annotations

import json
import signal
import sys

from common import use_bench_env


def main(argv: list[str]) -> int:
    trace_path, cli_args = argv[0], argv[1:]
    use_bench_env()
    tracer = None
    if trace_path != "-":
        import tracing

        tracer = tracing.install(tracing.Tracer())
        signal.signal(signal.SIGUSR1, lambda *_: setattr(tracer, "enabled", True))
        signal.signal(signal.SIGUSR2, lambda *_: setattr(tracer, "enabled", False))

    from repro.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        if tracer is not None:
            tracer.enabled = False
            with open(trace_path, "w") as handle:
                json.dump(tracer.dump(), handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
