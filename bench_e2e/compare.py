"""``compare``: two result sets -> unchanged / regressed / unresolved per metric.

A result set is a JSON-lines file written with ``--out`` (one record per
run; use ``--repeat 10``). For every end-to-end metric x workload this prints
both medians, the run-to-run spread (interquartile distance over the median,
``statistics.quantiles(values, n=4)``) and a verdict against the metric's
bound:

* ``regressed``  — B's median is worse than A's by more than the bound;
* ``unresolved`` — the spread of either set is wider than the bound, so the
  medians cannot be told apart (unless every run of B beats every run of A);
* ``unchanged``  — otherwise (B may also be better; gains are not claimed here).

With one file it prints medians and spreads only. Per-layer metrics have no
bound; ``--layers`` lists their medians and relative change without a verdict.
"""

from __future__ import annotations

import argparse
import json
from collections import defaultdict
from statistics import median, quantiles

__all__ = ["load", "spread", "verdict", "main"]


def load(path: str) -> dict[str, dict[str, list[float]]]:
    """workload -> metric -> values, one per run that passed its checks."""
    out: dict[str, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    with open(path) as fh:
        for line in fh:
            if not line.strip():
                continue
            record = json.loads(line)
            if record["problems"]:
                continue
            for name, value in record["metrics"].items():
                out[record["workload"]][name].append(value)
    return out


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median (0 for < 2 runs)."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = quantiles(values, n=4)
    mid = median(values)
    return (q3 - q1) / abs(mid) if mid else 0.0


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    med_a, med_b = median(a), median(b)
    worse_by = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    if max(spread(a), spread(b)) > bound:
        all_better = max(sign * v for v in b) < min(sign * v for v in a)
        return "unchanged" if all_better else "unresolved"
    return "regressed" if worse_by > bound else "unchanged"


def main(argv: list[str]) -> int:
    from bench_e2e.spec import END_TO_END, PER_LAYER

    parser = argparse.ArgumentParser(prog="bench_e2e.run compare", description=__doc__)
    parser.add_argument("a", help="result set of the parent commit")
    parser.add_argument("b", nargs="?", help="result set of the change")
    parser.add_argument("--layers", action="store_true", help="also list per-layer medians")
    ns = parser.parse_args(argv)

    set_a = load(ns.a)
    set_b = load(ns.b) if ns.b else None
    bad = 0
    for workload in set_a:
        print(f"== {workload}")
        header = f"{'metric':<36}{'unit':<7}{'bound':>6}{'n':>4}{'median A':>13}{'spread A':>10}"
        if set_b is not None:
            header += f"{'n':>4}{'median B':>13}{'spread B':>10}{'change':>9}  verdict"
        print(header)
        rows = [(n, u, b, bound) for n, (u, b, bound) in END_TO_END.items()]
        if ns.layers:
            rows += [(n, u, b, None) for n, (u, b) in PER_LAYER.items()]
        for name, unit, better, bound in rows:
            a = set_a[workload].get(name)
            if not a:
                continue
            line = (
                f"{name:<36}{unit:<7}{'' if bound is None else format(bound, '.2f'):>6}"
                f"{len(a):>4}{median(a):>13.5g}{spread(a):>10.3f}"
            )
            b = set_b[workload].get(name) if set_b is not None else None
            if b:
                change = (median(b) - median(a)) / abs(median(a)) if median(a) else 0.0
                result = "-" if bound is None else verdict(a, b, better, bound)
                bad += result in ("regressed", "unresolved")
                line += f"{len(b):>4}{median(b):>13.5g}{spread(b):>10.3f}{change:>+9.1%}  {result}"
            print(line)
    if set_b is not None:
        print("no regression and nothing unresolved" if not bad
              else f"{bad} metric(s) regressed or unresolved")
    return 1 if bad else 0
