"""Per-layer summary of traced benchmark runs.

    python3 bench/summary.py [SPANS_FILE ...]

Reads the span files that traced runs wrote (by default every
bench/results/*.spans), works out self and inclusive times from the raw
spans with ``spans.tables``, as the traced run itself does, and prints for
each workload the per-layer metrics by name (times and counts per op), the
self time and calls of every span name, and the tracing overhead when an
untraced run of the same workload and seed is in bench/results.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402


def summarize(path: Path) -> str:
    header, *arrays = spans.read(path)
    self_s, incl_s, calls = spans.tables(header["names"], *arrays)
    ops = header["ops"]
    lines = [f"== {header['workload']} seed {header['seed']}: {ops} ops in "
             f"{header['rounds']} rounds, {header['spans']} spans"]
    metrics = spans.layer_metrics(self_s, incl_s, calls, header["counts"], ops)
    for metric, m in metrics.items():
        lines.append(f"  {metric:26s} {m['value']:14.6g} {m['unit']}")
    lines.append(f"  {'span':34s} {'calls/op':>10s} {'self ms/op':>11s}")
    for (span, in_ops), total in sorted(self_s.items()):
        if in_ops:
            lines.append(f"  {span:34s} {calls[(span, True)] / ops:10.4g} "
                         f"{total / ops * 1e3:11.4g}")
    untraced = path.with_name(path.name.replace(".spans", "-trace0.json"))
    if untraced.is_file():
        p50 = json.loads(untraced.read_text())["metrics"]["op_p50_ms"]["value"]
        traced = header["op_p50_ms"]
        lines.append(f"  tracing overhead: op_p50_ms {traced:.4g} traced, "
                     f"{p50:.4g} untraced ({(traced / p50 - 1) * 100:+.1f}%)")
    for err in header.get("errors", []):
        lines.append(f"  check failed: {err}")
    return "\n".join(lines)


def main(argv=None) -> int:
    paths = [Path(p) for p in (argv if argv is not None else sys.argv[1:])]
    if not paths:
        paths = sorted((HERE / "results").glob("*.spans"))
    if not paths:
        print("no span files; run bench/run.py with --trace 1 first", file=sys.stderr)
        return 1
    for path in paths:
        print(summarize(path))
    return 0


if __name__ == "__main__":
    sys.exit(main())
