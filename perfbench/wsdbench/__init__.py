"""The benchmark's workloads, tracing and metric bookkeeping (see ../README.md)."""
