"""Workflow-level end-to-end benchmark with per-layer attribution.

See ``bench_e2e/README.md``. Nothing here is imported by ``repro`` or by the
tier-1 tests; the package only calls public constructors of the runtime.
"""
