"""Summarize benchmark result records as Markdown tables, or JSON.

    python3 benchmarks/summarize.py benchmarks/results/*.json [--json]

End-to-end metrics get the sample count, median, quartiles and the
quartile spread as a share of the median (`statistics.quantiles(n=4)`).
Traced runs give the median of each per-layer metric and of each layer's
share of the traced wall time (self time; `unaccounted` is the part no
span covers).
"""

import json
import statistics
import sys
from pathlib import Path


def _stats(values):
    values = sorted(values)
    med = statistics.median(values)
    if len(values) < 2:
        return {"n": len(values), "median": med}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def summarize(records) -> dict:
    out = {"fingerprint": records[0]["fingerprint"] if records else None, "workloads": {}}
    for rec in records:
        wl = out["workloads"].setdefault(rec["workload"], {"end_to_end": {}, "per_layer": {},
                                                           "layer_share_pct": {}, "runs": 0,
                                                           "failed_ops": []})
        wl["runs"] += 1
        wl["failed_ops"].append(rec["failed_ops"])
        kind = "per_layer" if rec["trace"] else "end_to_end"
        for name, metric in rec["result"]["metrics"].items():
            wl[kind].setdefault(name, {"unit": metric["unit"], "values": []})["values"].append(
                metric["value"])
        for layer, share in rec["detail"].get("layer_self_share_pct", {}).items():
            wl["layer_share_pct"].setdefault(layer, []).append(share)
    for wl in out["workloads"].values():
        wl["failed_ops"] = max(wl["failed_ops"])
        for kind in ("end_to_end", "per_layer"):
            for metric in wl[kind].values():
                metric.update(_stats(metric.pop("values")))
        wl["layer_share_pct"] = {k: statistics.median(v) for k, v in wl["layer_share_pct"].items()}
    return out


def markdown(summary) -> str:
    lines = ["## End-to-end (tracing off)", "",
             "| workload | metric | unit | n | median | q1 | q3 | spread |",
             "|---|---|---|---|---|---|---|---|"]
    for name, wl in summary["workloads"].items():
        for metric, s in wl["end_to_end"].items():
            lines.append(f"| {name} | {metric} | {s['unit']} | {s['n']} | {s['median']:.5g} "
                         f"| {s.get('q1', float('nan')):.5g} | {s.get('q3', float('nan')):.5g} "
                         f"| {s.get('spread', float('nan')):.3f} |")
    names = list(summary["workloads"])
    lines += ["", "## Per-layer (traced run, median over runs)", "",
              "| metric | unit | " + " | ".join(names) + " |",
              "|---|---|" + "---|" * len(names)]
    metrics = {}
    for wl in summary["workloads"].values():
        for metric, s in wl["per_layer"].items():
            metrics.setdefault(metric, s["unit"])
    for metric, unit in metrics.items():
        cells = [summary["workloads"][n]["per_layer"].get(metric, {}).get("median") for n in names]
        lines.append(f"| {metric} | {unit} | "
                     + " | ".join("-" if c is None else f"{c:.4g}" for c in cells) + " |")
    layers = []
    for wl in summary["workloads"].values():
        layers += [k for k in wl["layer_share_pct"] if k not in layers]
    lines += ["", "## Share of traced wall time by layer (self time, %)", "",
              "| layer | " + " | ".join(names) + " |", "|---|" + "---|" * len(names)]
    for layer in layers:
        cells = [summary["workloads"][n]["layer_share_pct"].get(layer) for n in names]
        lines.append(f"| {layer} | "
                     + " | ".join("-" if c is None else f"{c:.1f}" for c in cells) + " |")
    lines += ["", "failed_ops (worst run): "
              + ", ".join(f"{n} {wl['failed_ops']:g}" for n, wl in summary["workloads"].items())]
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    paths = [p for p in sys.argv[1:] if p != "--json"]
    summary = summarize([json.loads(Path(p).read_text()) for p in sorted(paths)])
    print(json.dumps(summary, indent=2) if "--json" in sys.argv else markdown(summary))
