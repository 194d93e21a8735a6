"""The repo's benchmark: five workloads, host-time end-to-end metrics,
a per-layer profile fold. Start at ``perf/README.md``."""
