"""The names the end-to-end benchmark wraps must keep resolving.

``bench_e2e/layers.py`` attributes time to layers by patching product
attributes from outside (``vars(StagingServer)[attr]`` for every server
span, plus client, core and kernel entry points). A rename or deletion in
``src/`` makes its traced run raise ``KeyError`` / ``AttributeError``; these
checks surface that in tier-1 instead of in a benchmark run.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.descriptors import ObjectDescriptor
from repro.runtime.checkpoint import CheckpointStore
from repro.staging.server import StagingServer

from bench_e2e import harness, layers, tracing, workloads


def test_every_server_span_names_a_staging_server_method():
    missing = [attr for attr in layers._SERVER_SPANS if attr not in vars(StagingServer)]
    assert missing == []


def test_install_wraps_a_small_inproc_stack_and_restores_it():
    before = dict(vars(StagingServer))
    wl = dataclasses.replace(
        workloads.WORKLOADS["case1-inproc"], shape=(8, 8, 4), variables=("u",)
    )
    assert wl.transport == "inproc"
    staging = harness.build_stack(wl, "uncoordinated")
    rec = tracing.SpanRecorder()
    try:
        layers.install(rec, staging, CheckpointStore())
        try:
            staging.register(workloads.PRODUCER)
            staging.register(workloads.CONSUMER)
            desc = ObjectDescriptor("u", 0, wl.domain.bbox)
            data = np.arange(desc.bbox.volume, dtype=np.float64).reshape(desc.bbox.shape)
            staging.put(workloads.PRODUCER, desc, data, 0)
            got = staging.get_blocking(workloads.CONSUMER, desc, 0)
            np.testing.assert_array_equal(got.data, data)
        finally:
            rec.restore()
    finally:
        staging.close()
    names = {span[2] for span in rec.spans}
    assert {"staging.server.put", "staging.server.get"} <= names
    assert dict(vars(StagingServer)) == before
