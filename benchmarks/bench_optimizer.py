"""Plan optimization ablation (paper §5 future work).

The select-past-project rewrite, π[A](σ[p](M)) vs σ[p](π[A](M)),
measured against its naive plan on the 1000-patient workload with
result equality asserted.  In this implementation projection *shares*
the untouched dimensions instead of copying them, so the two orders
cost the same; the bench documents the (absence of) difference rather
than claiming a win.  σ chains are not fused: σ[p ∧ q] shares one
witness value per dimension where σ[q](σ[p](M)) picks one per node, so
the two answer differently (``tests/engine/test_optimizer.py``).
"""

import time

from repro.algebra import characterized_by
from repro.engine import Base, ProjectNode, SelectNode, evaluate, optimize
from repro.report import render_table


def _assert_same(a, b):
    assert a.facts == b.facts
    for name in a.dimension_names:
        assert set(a.relation(name).pairs()) == \
            set(b.relation(name).pairs())


def test_optimizer_rewrites_ablation(benchmark, clinical_1k):
    mo = clinical_1k.mo
    p1 = characterized_by("Diagnosis", clinical_1k.icd.groups[0])

    outside = SelectNode(ProjectNode(Base(mo), ("Diagnosis", "Age")), p1)
    pushed = optimize(outside)
    assert isinstance(pushed, ProjectNode)
    _assert_same(evaluate(outside), evaluate(pushed))
    t0 = time.perf_counter()
    evaluate(outside)
    t_outside = time.perf_counter() - t0
    t0 = time.perf_counter()
    evaluate(pushed)
    t_pushed = time.perf_counter() - t0

    benchmark(evaluate, pushed)

    rows = [
        ["σ after π", f"{t_outside * 1e3:.1f}"],
        ["σ pushed below π", f"{t_pushed * 1e3:.1f}"],
    ]
    print()
    print(render_table(
        ["plan", "time (ms)"], rows,
        title=f"Optimizer rewrites on {len(mo.facts)} patients"))
    print("\nSelect-past-project is cost-neutral here because π shares "
          "untouched dimensions instead of copying them.  Both plans "
          "return identical MOs.")
