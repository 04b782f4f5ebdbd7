"""Record the reference outputs the benchmark checks every run against.

    python3 perfbench/record_reference.py

Writes perfbench/reference.json from the library in this checkout:

* ``rows``: the CSV row of every point of the twin899 and hall283-jobs2
  grids, so any seed's subset can be checked row by row;
* ``small-jobs2``: the SHA-256 of the CSV of all small campaigns, one per
  seed variant (the bound sweep takes the variant as its seed);
* ``cli-files``: the SHA-256 of the outputs of the cli series, one per
  seed variant.

Run it only when the library's reports are meant to change; the recorded
outputs are what later versions must reproduce.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
import tempfile

from run import HERE, ROOT, import_workloads, use_checkout_source


def main() -> int:
    use_checkout_source()
    wl = import_workloads()
    rows = {}
    for workload in ("twin899", "hall283-jobs2"):
        inputs = wl.campaign_inputs(workload, 0)
        rows.update(wl.encode_rows(wl.harness.run_campaigns(list(inputs.specs), jobs=2)))
    small, series = [], []
    tmp = tempfile.mkdtemp(prefix="record-", dir=ROOT)
    try:
        for v in range(wl.VARIANTS):
            specs = wl.campaign_inputs("small-jobs2", v).batch(0)
            csv = wl.harness.emit_report(wl.harness.run_campaigns(specs), "csv")
            small.append(hashlib.sha256(csv.encode()).hexdigest())
            records, _ = wl.run_series(wl.cli_series(v), tmp)
            if any(rc != 0 for _, rc, *_ in records):
                sys.exit(f"error: a cli command failed in variant {v}")
            series.append(wl.series_digest(records, tmp))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    with open(HERE / "reference.json", "w", encoding="utf-8") as fh:
        json.dump({"rows": rows, "small-jobs2": small, "cli-files": series}, fh,
                  indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
