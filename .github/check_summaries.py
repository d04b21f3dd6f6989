"""Check a benchmark run's JSON summaries: exit non-zero unless the output
holds exactly the expected number of workload summaries, each ``correct``
with 0 ``failed`` operations.  ``perfbench/run.py`` exits 0 when an output
check fails, so CI reads its summaries with this.

    python3 .github/check_summaries.py OUTPUT_FILE EXPECTED_COUNT
"""

import json
import sys


def main(path: str, expected: str) -> None:
    with open(path) as lines:
        runs = [json.loads(line) for line in lines if line.startswith("{")]
    bad = [r for r in runs if not r["correct"] or r["failed"] != 0]
    if len(runs) != int(expected) or bad:
        sys.exit(f"{len(bad)} of {len(runs)} workload summaries not correct or with failed operations")


if __name__ == "__main__":
    main(*sys.argv[1:])
