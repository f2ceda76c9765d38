"""Layered serving benchmark of the CDMPP reproduction.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; ``perfbench/README.md`` describes
the workloads, the metrics and which layer should move which metric.
"""
