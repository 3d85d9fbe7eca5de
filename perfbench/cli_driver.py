"""Traced stand-in for ``python -m monoidkit.cli``.

Usage: cli_driver.py OUT_JSON ARG...

Times the import of ``monoidkit.cli`` apart from the command itself, runs
``cli.main`` under the tracer with the same stdout and exit code as the
real entry point, and writes its spans and their summary to OUT_JSON.
"""

import json
import sys
import time

from tracing import Tracer


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    from monoidkit import cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(argv, standalone=False)
        sys.stdout.flush()
    finally:
        tracer.uninstall()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, "raw": tracer.summary(),
                   "names": tracer.names, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
