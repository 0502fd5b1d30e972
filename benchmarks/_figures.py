"""The writer the benchmark scripts share for their BENCH_*.json files."""

import json


def save_runs(path, runs):
    """Merge runs, {label: entry}, into the "runs" of the JSON file at path,
    keeping the other labels' entries, and rewrite the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        doc = {"runs": {}}
    doc["runs"].update(runs)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
