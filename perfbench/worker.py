"""One worker process of a benchmark run; ``run.py`` starts several in turn.

The job comes as JSON on standard input.  The worker imports shadowspec and
parses the workload's configs before anything else, then reads the clock:
from its start to that reading is the set-up every command-line call pays.
Only then does it import the benchmark's own modules and make its timed
passes.  Its result is the last line of its standard output, as JSON.
"""

import json
import sys
import time


def main() -> None:
    job = json.load(sys.stdin)
    sys.path[:0] = [job["src"], job["root"]]
    import shadowspec
    for text in job["setup_texts"]:
        shadowspec.parse_config(text)
    ready = time.perf_counter()

    from perfbench.run import work
    result = work(shadowspec, job)
    result["ready"] = ready
    print(json.dumps(result))


if __name__ == "__main__":
    main()
