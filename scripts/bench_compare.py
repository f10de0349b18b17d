#!/usr/bin/env python3
"""Compares two pipebench results, parent and change, against BENCHMARK.json.

Usage (from the repository root):

    scripts/bench_compare.py PARENT CHANGE [--benchmark BENCHMARK.json]
    scripts/bench_compare.py --self-test

PARENT and CHANGE are each a pipebench result: either the JSON text of the
result line itself, or a file holding a run's stdout (the last line that
carries "metrics" is used). For every end-to-end metric the script prints
both values, the relative change, and whether the change is worse than the
metric's bound in its "better" direction. Per-layer metrics (traced runs)
are printed with their relative change only; they have no bound.

BENCHMARK.json is only read. Exit codes: 0 every bounded metric within its
bound, 1 at least one is worse than its bound, 2 usage or input error.
"""

import argparse
import json
import math
import os
import sys
import tempfile


def load_result(arg):
    """The result dict from JSON text or from a file of pipebench stdout."""
    text = arg
    if not arg.lstrip().startswith("{"):
        with open(arg) as f:
            text = f.read()
    for line in reversed(text.strip().splitlines()):
        line = line.strip()
        if not line.startswith("{"):
            continue
        record = json.loads(line)
        if "metrics" in record:
            return record
    raise ValueError("no pipebench result line (with \"metrics\") in %r"
                     % arg[:80])


def worse_fraction(parent, change, better):
    """How much worse `change` is than `parent`, as a fraction of parent.

    Negative means better. A zero parent yields 0 when nothing moved and
    an infinite change otherwise."""
    delta = change - parent if better == "lower" else parent - change
    if parent == 0:
        return 0.0 if delta == 0 else math.copysign(math.inf, delta)
    return delta / abs(parent)


def compare(parent, change, spec):
    """Returns (report lines, names worse than their bound)."""
    lines = []
    worse = []
    pm = parent["metrics"]
    cm = change["metrics"]
    header = "%-28s %14s %14s %9s %7s  %s" % (
        "metric", "parent", "change", "worse_by", "bound", "verdict")
    lines.append(header)
    for kind in ("end_to_end", "per_layer"):
        for m in spec.get(kind, []):
            name = m["name"]
            if name not in pm and name not in cm:
                continue
            if name not in pm or name not in cm:
                raise ValueError("metric %s is in only one record" % name)
            p = float(pm[name]["value"])
            c = float(cm[name]["value"])
            frac = worse_fraction(p, c, m["better"])
            bound = m.get("bound")
            if bound is None:
                verdict = "-"
                bound_text = "-"
            else:
                verdict = "WORSE" if frac > bound else "ok"
                bound_text = "%.0f%%" % (100 * bound)
                if verdict == "WORSE":
                    worse.append(name)
            lines.append("%-28s %14.6g %14.6g %8.1f%% %7s  %s" % (
                name, p, c, 100 * frac, bound_text, verdict))
    return lines, worse


def self_test():
    spec = {
        "end_to_end": [
            {"name": "query_s", "better": "lower", "bound": 0.25},
            {"name": "cut_qps", "better": "higher", "bound": 0.25},
            {"name": "ok_rate", "better": "higher", "bound": 0.01},
        ],
        "per_layer": [{"name": "stream.ingest_s", "better": "lower"}],
    }

    def record(query_s, cut_qps, ok_rate):
        return {"attempted": 1, "correct": 1, "failed": 0, "metrics": {
            "query_s": {"value": query_s, "unit": "s"},
            "cut_qps": {"value": cut_qps, "unit": "1/s"},
            "ok_rate": {"value": ok_rate, "unit": "fraction"},
        }}

    parent = record(1.0, 100.0, 1.0)
    checks = [
        (record(1.2, 80.0, 1.0), []),              # both inside 25%
        (record(0.5, 400.0, 1.0), []),             # large gains never fail
        (record(1.3, 100.0, 1.0), ["query_s"]),    # lower-is-better, 30%
        (record(1.0, 70.0, 1.0), ["cut_qps"]),     # higher-is-better, 30%
        (record(1.0, 100.0, 0.98), ["ok_rate"]),   # tight bound
    ]
    for change, want in checks:
        _, worse = compare(parent, change, spec)
        assert worse == want, (change, worse, want)
    # A result line given as text, and a run's stdout with records before it.
    text = json.dumps(parent)
    assert load_result(text) == parent
    stdout = '{"record": "host"}\n{"record": "samples"}\n' + text + "\n"
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.txt")
        with open(path, "w") as f:
            f.write(stdout)
        assert load_result(path) == parent
    # Per-layer metrics carry no bound and never fail.
    traced_p = {"metrics": {"stream.ingest_s": {"value": 0.5}}}
    traced_c = {"metrics": {"stream.ingest_s": {"value": 5.0}}}
    lines, worse = compare(traced_p, traced_c, spec)
    assert worse == [] and "900.0%" in lines[1], lines
    # Zero parents: unchanged is 0, any move is infinite.
    assert worse_fraction(0.0, 0.0, "lower") == 0.0
    assert worse_fraction(0.0, 1.0, "lower") == math.inf
    assert worse_fraction(0.0, 1.0, "higher") == -math.inf
    # A metric present in only one record is an input error.
    try:
        compare(parent, {"metrics": {}}, spec)
    except ValueError:
        pass
    else:
        raise AssertionError("one-sided metric accepted")
    # The repository's own BENCHMARK.json parses and bounds every
    # end-to-end metric.
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        real = json.load(f)
    for m in real["end_to_end"]:
        assert m["better"] in ("lower", "higher") and m["bound"] >= 0, m
    print("bench_compare: self-test passed")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", nargs="?")
    parser.add_argument("change", nargs="?")
    parser.add_argument("--benchmark", default="BENCHMARK.json")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.parent is None or args.change is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        with open(args.benchmark) as f:
            spec = json.load(f)
        lines, worse = compare(load_result(args.parent),
                               load_result(args.change), spec)
    except (OSError, ValueError, KeyError) as e:
        print("bench_compare: %s" % e, file=sys.stderr)
        return 2
    print("\n".join(lines))
    if worse:
        print("worse than bound: %s" % ", ".join(worse))
        return 1
    print("every bounded metric within its bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
