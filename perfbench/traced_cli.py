"""``fracparity`` CLI with the layer tracing of :mod:`tracing` installed.

Usage: ``traced_cli.py SUMMARY_JSON ARGS...`` runs ``fracparity ARGS...``
and writes the folded span totals to ``SUMMARY_JSON``. The traced run of
the ``fixture_cli`` workload starts it in place of ``python -m
fracparity.cli``.
"""

import json
import sys

import tracing

if __name__ == "__main__":
    tracer = tracing.Tracer()
    tracer.install()
    from fracparity import cli

    code = cli.main(sys.argv[2:])
    with open(sys.argv[1], "w") as fh:
        json.dump(tracer.fold(), fh)
    sys.exit(code)
