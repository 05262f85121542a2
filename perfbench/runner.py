"""One ``repro solve`` process, started fresh by the benchmark for every solve.

    python3 perfbench/runner.py [--trace-out FILE] solve SHARD_DIR [solve flags]

Runs ``repro.cli.main`` with the given arguments, exactly as
``python -m repro`` would. With ``--trace-out`` it first makes a
:class:`layers.Tracer`, times ``import repro.cli`` under it, installs the
layer wrappers and, once the solve returns, writes the layer metrics of
this process to ``FILE`` as JSON. Without it nothing is wrapped, so the
untraced solves time the program as a user runs it.
"""

from __future__ import annotations

import json
import sys


def main(argv: list) -> int:
    if argv[:1] != ["--trace-out"]:
        import repro.cli

        return repro.cli.main(argv)

    trace_out, argv = argv[1], argv[2:]
    from layers import Tracer

    tracer = Tracer()
    with tracer.span("import"):
        import repro.cli
    tracer.install()
    code = repro.cli.main(argv)
    metrics = tracer.finish()
    with open(trace_out, "w") as handle:
        json.dump(metrics, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
