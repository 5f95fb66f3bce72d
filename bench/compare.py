"""Compare two benchmark results: ``python3 bench/compare.py A.json B.json``.

``A`` is the baseline (the parent commit), ``B`` the change; both are the
``--out`` files of ``bench/run.py`` made with the same settings.  One row
per (workload, end-to-end metric) gives both medians with their
interquartile ranges and a verdict against the bound in ``BENCHMARK.json``:

* ``unresolved`` -- the repetition-to-repetition spread (IQR over median)
  of either side is wider than the bound, so the bound cannot be judged;
  unless, with at least three repetitions a side, every repetition of B
  beats every one of A, which reads ``better``;
* ``worse``      -- B's median is worse than A's by more than the bound;
* ``better``     -- B's median is better than A's by more than the bound;
* ``within``     -- otherwise.  A smaller gain is claimed from ten pairs of
  runs, as ``bench/README.md`` describes, not from one comparison.

``error_rate`` rows read ``worse`` when B fails more cell-runs than A.
Deterministic per-layer counts (calls, events, commands, fsyncs, the
admission ratio) must be identical; every one that differs is listed.
Exits 1 when any row is ``worse``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
COUNT_SUFFIXES = ("calls_per_op", "events_per_op", "commands_per_op",
                  "fsyncs_per_op", "useful_ratio")


def verdict(a: Dict, b: Dict, bound: float, lower_is_better: bool) -> str:
    sign = -1.0 if lower_is_better else 1.0
    gain = sign * (b["median"] - a["median"]) / a["median"]
    spread = max((s["q3"] - s["q1"]) / s["median"] for s in (a, b))
    if spread > bound:
        every_run_better = min(a["n"], b["n"]) >= 3 and all(
            sign * (vb - va) > 0 for va in a["values"] for vb in b["values"])
        return "better" if every_run_better else "unresolved"
    if gain < -bound:
        return "worse"
    if gain > bound:
        return "better"
    return "within"


def compare(a: Dict, b: Dict, spec: Dict) -> List[str]:
    """Rows of the comparison; the last element of each row is a verdict."""
    rows = []
    for workload in a["workloads"]:
        if workload not in b["workloads"]:
            continue
        wa, wb = a["workloads"][workload], b["workloads"][workload]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            sa = wa.get("end_to_end", {}).get(name)
            sb = wb.get("end_to_end", {}).get(name)
            if sa is None or sb is None:
                rows.append([workload, name, "-", "-", "-", "-", "missing"])
                continue
            rows.append([
                workload, name,
                f"{sa['median']:.6g}", f"{sa['q3'] - sa['q1']:.3g}",
                f"{sb['median']:.6g}", f"{sb['q3'] - sb['q1']:.3g}",
                verdict(sa, sb, metric["bound"], metric["better"] == "lower"),
            ])
        ea, eb = wa["error_rate"], wb["error_rate"]
        rows.append([workload, "error_rate", f"{ea:.3g}", "-", f"{eb:.3g}",
                     "-", "worse" if eb > ea else "within"])
    return rows


def count_differences(a: Dict, b: Dict) -> List[str]:
    diffs = []
    for workload, wa in a["workloads"].items():
        layers_b = b["workloads"].get(workload, {}).get("per_layer", {})
        for name, value in wa.get("per_layer", {}).items():
            if name.endswith(COUNT_SUFFIXES) and layers_b.get(name) != value:
                diffs.append(f"{workload} {name}: {value!r} -> "
                             f"{layers_b.get(name)!r}")
    return diffs


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        return 2
    a, b = (json.loads(Path(path).read_text()) for path in argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    header = ["workload", "metric", "A median", "A IQR", "B median",
              "B IQR", "verdict"]
    rows = compare(a, b, spec)
    widths = [max(len(str(row[i])) for row in [header] + rows)
              for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(str(cell).ljust(width)
                        for cell, width in zip(row, widths)).rstrip())
    diffs = count_differences(a, b)
    print(f"deterministic counts: "
          f"{'identical' if not diffs else f'{len(diffs)} differ'}")
    for diff in diffs:
        print(f"  {diff}")
    return 1 if any(row[-1] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
