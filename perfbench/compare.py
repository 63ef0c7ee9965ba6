"""Label every (metric, workload) pair of two sets of saved results.

Each side is a directory of ``.perfbench_out``-style records (or one
record file).  Untraced records are grouped by workload; per metric, the
median and the quartile spread (IQR as a share of the median, from
``statistics.quantiles(n=4)``) of each side are compared against the
metric's bound in ``BENCHMARK.json``:

* ``unresolved`` - either side spreads wider than the bound, unless every
  new run beats every old run (then ``better``);
* ``worse``      - the new median is worse by more than the bound;
* ``better``     - the new median is better by more than the spread;
* ``unchanged``  - otherwise.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path


def _records(path: str) -> dict[str, list[dict]]:
    p = Path(path)
    files = sorted(p.glob("*.json")) if p.is_dir() else [p]
    out: dict[str, list[dict]] = {}
    for f in files:
        try:
            rec = json.loads(f.read_text())
        except (ValueError, OSError):
            continue
        meta = rec.get("meta") if isinstance(rec, dict) else None
        if not meta or meta.get("trace"):
            continue
        out.setdefault(meta["workload"], []).append(rec)
    return out


def _spread(values: list[float]) -> float:
    if len(values) < 2:
        return float("inf")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def label(old: list[float], new: list[float], bound: float, lower: bool) -> str:
    """The verdict for one metric on one workload."""
    sign = 1.0 if lower else -1.0
    m_old, m_new = statistics.median(old), statistics.median(new)
    worse_by = sign * (m_new - m_old) / abs(m_old)
    spread = max(_spread(old), _spread(new))
    if spread > bound:
        best_old = min(old) if lower else max(old)
        worst_new = max(new) if lower else min(new)
        if sign * (worst_new - best_old) < 0:
            return "better"
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if -worse_by > spread:
        return "better"
    return "unchanged"


def compare(old_path: str, new_path: str, spec_path) -> int:
    spec = json.loads(Path(spec_path).read_text())
    old, new = _records(old_path), _records(new_path)
    worse = 0
    for workload in sorted(set(old) & set(new)):
        for m in spec["end_to_end"]:
            name = m["name"]
            a = [r["metrics"][name]["value"] for r in old[workload] if name in r["metrics"]]
            b = [r["metrics"][name]["value"] for r in new[workload] if name in r["metrics"]]
            if not a or not b:
                continue
            verdict = label(a, b, m["bound"], m["better"] == "lower")
            worse += verdict == "worse"
            print(
                f"{workload:16s} {name:16s} {verdict:10s} "
                f"old {statistics.median(a):.4g} new {statistics.median(b):.4g} "
                f"{m['unit']} (n={len(a)}/{len(b)}, bound {m['bound']})"
            )
    return 1 if worse else 0
