"""Process that runs the match_queries client loop.

    python match_child.py INPUT.json OUTPUT.json SECONDS

INPUT holds ``refs`` and ``queries`` as lists of four ``.17g`` strings. The
process imports rootforms, prepares the references and, if there are
queries, runs the closed loop for SECONDS, with the calibration kernel timed
between chunks of queries; it writes the loop's results to OUTPUT. With no
queries it measures only start-up and preparation.
"""

import json
import sys

import calibrate
import query_loop


def main(argv) -> int:
    src, dst, seconds = argv[1], argv[2], float(argv[3])
    with open(src, encoding="utf-8") as fh:
        spec = json.load(fh)
    api = query_loop.package_api()
    refs = [tuple(float(v) for v in r) for r in spec["refs"]]
    queries = [tuple(float(v) for v in q) for q in spec["queries"]]
    prepared = query_loop.prepare(api, refs)
    out = {}
    if queries:
        out = query_loop.run(api, prepared, queries, seconds, calibrate=calibrate.kernel_time)
    with open(dst, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
