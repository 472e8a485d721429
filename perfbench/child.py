"""Traced `ghlpc` CLI process: python child.py SPANS_OUT ARGS...

Imports ``ghlpc.cli`` under an import span, installs the benchmark's
wrappers, runs ``ghlpc.cli.main(ARGS)`` and writes the recorded spans and
counters to SPANS_OUT as JSON, also when the command fails.
"""

import json
import sys
from pathlib import Path

import tracer  # found next to this script


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    rec = tracer.Recorder()
    try:
        idx = rec.open("import.ghlpc.cli")
        import ghlpc.cli
        rec.close(idx)
        for target in tracer.install(rec)[1]:
            rec.count("missing:" + target)
        return ghlpc.cli.main(argv)
    finally:
        Path(out).write_text(json.dumps(rec.dump()))


if __name__ == "__main__":
    sys.exit(main())
