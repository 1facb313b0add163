"""The repository benchmark: seeded workloads, output checks, layer spans.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload and prints its metrics; see
``perfbench/README.md`` for the workloads and what each metric should
move.
"""
