"""Write golden.json: the outputs of the first items of every workload at the default seed.

Run from the repository root, only on a commit whose outputs are known good:

    python3 perfbench/freeze_golden.py

run.py compares items of the default seed against this file, so a change
that alters a plan, frontier, summary, SVG or sweep byte, or moves a gmm
value beyond the stated tolerance, fails the benchmark.
"""

import itertools
import json
import sys

import run

ITEMS = 64


def main() -> int:
    workloads = run.import_program()
    golden = {}
    for wl in workloads.WORKLOADS.values():
        out = run.OUT / wl.name
        out.mkdir(parents=True, exist_ok=True)
        records = []
        for cfg in itertools.islice(wl.configs(workloads.DEFAULT_SEED, out), ITEMS):
            result = wl.call(cfg)
            problems = wl.check(cfg, result, out)
            if problems:
                raise SystemExit(f"{wl.name}: item {len(records)} fails its checks: {problems}")
            records.append(workloads.output_record(wl, out))
        golden[wl.name] = records
        print(f"{wl.name}: froze {len(records)} items", flush=True)
    workloads.GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
