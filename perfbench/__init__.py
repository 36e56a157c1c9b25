"""Triage benchmark: workloads, a closed-loop harness and a span tracer."""
