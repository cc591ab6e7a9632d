"""The repository benchmark: four seeded workloads against the public
``Query`` API, with an untraced end-to-end run and a traced per-layer
breakdown.  Run ``python3 perfbench/run.py --help`` from the repository
root; ``perfbench/METRICS.md`` lists every metric."""
