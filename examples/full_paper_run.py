#!/usr/bin/env python
"""Full paper run: regenerate every table and figure into one report file.

Equivalent to ``python -m repro.harness all`` plus claim validation and
CSV export, bundled for a one-command artifact-evaluation style run.

Run:  python examples/full_paper_run.py [report.txt]

The common run grid is prefetched in parallel over ``REPRO_JOBS`` worker
processes (default: CPU count), and every run persists in the on-disk
result cache — a warm re-run of this script is near-instant.
"""

import sys
import time

from repro.harness import (EXPERIMENTS, SuiteRunner, export_all,
                           render_claims, validate_claims)


def main():
    out_path = sys.argv[1] if len(sys.argv) > 1 else "paper_report.txt"
    sections = []
    t0 = time.time()
    with SuiteRunner() as runner:
        print("prefetching the (benchmark x backend) run grid ...")
        runner.prefetch(
            backends=("baseline", "rfh", "rfv", "regless", "regless-nc")
        )
        print(f"[{time.time() - t0:7.1f}s] grid ready")

        for target in sorted(EXPERIMENTS):
            print(f"[{time.time() - t0:7.1f}s] regenerating {target} ...")
            sections.append(EXPERIMENTS[target].text(runner))

        print(f"[{time.time() - t0:7.1f}s] validating claims ...")
        claims = validate_claims(runner)
        sections.append(render_claims(claims))

        print(f"[{time.time() - t0:7.1f}s] exporting CSVs ...")
        paths = export_all("results", runner)

    report = "\n\n".join(sections)
    with open(out_path, "w") as fh:
        fh.write(report + "\n")

    print(f"\nwrote {out_path} and {len(paths)} CSV files under results/")
    ok = sum(c.ok for c in claims)
    print(f"claims: {ok}/{len(claims)} hold")
    return 0 if ok == len(claims) else 1


if __name__ == "__main__":
    sys.exit(main())
