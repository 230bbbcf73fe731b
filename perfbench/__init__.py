"""Benchmark for setfusion: three training workloads, end-to-end metrics
from untraced runs and per-layer metrics from a separate traced run.

Run it with `python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`; see perfbench/README.md.
"""
