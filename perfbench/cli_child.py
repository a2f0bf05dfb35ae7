"""One traced CLI command, run as its own process.

    python3 perfbench/cli_child.py SPANS_JSON -- <localcluster arguments>

Times the import of the CLI, installs the tracer's wrappers, runs
``cli.main`` under a root ``cli.main`` span, and writes the import time
and every span to SPANS_JSON. The command's own output goes to stdout as
usual; the exit code is the command's.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import asdict
from pathlib import Path


def main() -> int:
    spans_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: cli_child.py SPANS_JSON -- ARGS...")
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from tracer import Tracer, install

    t0 = time.perf_counter()
    from localcluster import cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    install(tracer)
    try:
        with tracer.span("cli.main"):
            code = cli.main(argv)
    finally:
        tracer.uninstall()
    with open(spans_path, "w", encoding="utf-8") as out:
        json.dump({"import_s": import_s, "spans": [asdict(s) for s in tracer.spans]}, out)
    return code


if __name__ == "__main__":
    sys.exit(main())
