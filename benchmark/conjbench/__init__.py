"""Benchmark harness for the conjsim command line: workloads, oracle, timing and tracing."""
