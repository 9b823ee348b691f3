"""Record the seed-0 torque and power values the correctness gate compares against.

    PYTHONPATH=src python3 bench/record_reference.py

Run once, on the commit whose values become the reference.  Re-recording to
make a changed output pass hides the change; a program change that moves
these values by more than the gate's tolerance must be explained instead.
"""

import json
from pathlib import Path

import numpy as np

import checks
import workloads


def main():
    inputs = workloads.inputs_for_seed(0)
    out_dir = Path(".bench_out") / "reference"
    out_dir.mkdir(parents=True, exist_ok=True)
    reference = {}
    for workload in ("peak-grid", "force-sweep"):
        output = workloads.run_study(workload, inputs, out_dir)
        _, values = checks.read_csv(output.csv_paths[0])
        reference[workload] = values[:, -4:].tolist()
    semicircle = workloads.run_study("semicircle-verify", inputs, out_dir).semicircle
    rows = checks.semicircle_reference_rows(len(semicircle["t"]))
    reference["semicircle-verify"] = np.hstack([semicircle["tau"][rows], semicircle["power"][rows]]).tolist()
    blocks = (f' "{name}": [\n  ' + ",\n  ".join(json.dumps(row) for row in rows) + "\n ]"
              for name, rows in reference.items())
    checks.REFERENCE_PATH.write_text("{\n" + ",\n".join(blocks) + "\n}\n")
    print(f"wrote {checks.REFERENCE_PATH}")


if __name__ == "__main__":
    main()
