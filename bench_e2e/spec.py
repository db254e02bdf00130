"""Metric names, units, directions and bounds: read from ``BENCHMARK.json``.

The file the driver reads is the only place they are written down.
"""

from __future__ import annotations

import json
from pathlib import Path

__all__ = ["END_TO_END", "PER_LAYER", "RUN_SECONDS", "WORKLOAD_NAMES"]

_DOC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

#: ``Workload.steps`` is sized so that the reference phase plus the measured
#: phase take about this long, on average, on the 2-core reference host.
RUN_SECONDS: int = _DOC["run_seconds"]
WORKLOAD_NAMES: list[str] = [w["name"] for w in _DOC["workloads"]]
#: name -> (unit, better, bound); measured with spans off.
END_TO_END: dict[str, tuple[str, str, float]] = {
    m["name"]: (m["unit"], m["better"], m["bound"]) for m in _DOC["end_to_end"]
}
#: name -> (unit, better); from the traced run. Order is the printing order.
PER_LAYER: dict[str, tuple[str, str]] = {
    m["name"]: (m["unit"], m["better"]) for m in _DOC["per_layer"]
}
