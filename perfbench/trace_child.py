"""Run one `finrep.cli` command with the tracer installed.

    python perfbench/trace_child.py SPANS.json <finrep cli arguments...>

Standard output, standard error and the exit code are those of the
untraced `python -m finrep.cli`; the span totals and the import time of
`finrep.cli` go to SPANS.json.
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import finrep.cli
    import_s = time.perf_counter() - t0

    from tracer import Tracer

    tracer = Tracer().install()
    try:
        code = finrep.cli.main(argv)
    finally:
        tracer.uninstall()
        snap = tracer.snapshot()
        snap["import_s"] = import_s
        Path(spans_path).write_text(json.dumps(snap))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
