"""Run one magmaexp command line with spans, for traced cli-cold ops.

    python clitrace.py SPAN_FILE ARG...

behaves like `python -m magmaexp ARG...` (same output, same exit code) and
also writes SPAN_FILE: the spans of the command, the import time of the
package and the cache counts, as JSON.  `magmaexp` must be importable.
"""

import json
import sys
from time import perf_counter

start = perf_counter()
import magmaexp.cli  # noqa: E402

import_s = perf_counter() - start

from tracer import Tracer, cache_counts  # noqa: E402

tracer = Tracer()
tracer.install()
tracer.op_id = 0
tracer.active = True
code = 1
try:
    code = magmaexp.cli.main(sys.argv[2:])
except SystemExit as exc:  # argparse rejects the arguments
    code = exc.code
finally:
    tracer.active = False
    sys.stdout.flush()
    counts = {"cli.import_s": import_s, **tracer.counts, **cache_counts()}
    spans = [[tracer.names[n], s, e, p]
             for n, s, e, p in zip(tracer.name_id, tracer.start, tracer.end, tracer.parent)]
    with open(sys.argv[1], "w") as f:
        json.dump({"spans": spans, "counts": counts}, f)
sys.exit(code)
