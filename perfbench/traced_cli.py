"""Run one superschur CLI command with its layers traced.

    PYTHONPATH=src python3 perfbench/traced_cli.py SPANS.json char --m 3 ...

The command's output and exit code are the CLI's own.  The spans and the
growth of the program's caches are written to SPANS.json when it ends.
"""

import json
import sys

from superschur import cli
from tracer import Tracer, cache_delta, cache_state, traced


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    before = cache_state()
    tracer = Tracer()
    with traced(tracer):
        code = cli.main(argv)
    sys.stdout.flush()
    with open(spans_path, "w") as fh:
        json.dump({"spans": tracer.spans,
                   "caches": cache_delta(before, cache_state())}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
