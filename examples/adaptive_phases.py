#!/usr/bin/env python3
"""Adaptive power coordination: one COORD allocation per phase.

Closes the loop the paper's Section 6.2 points at: multi-phase codes want
different allocations per phase.  This example runs a multi-phase NPB
code under a static COORD allocation, re-coordinates per phase and
compares throughput.

Run: ``python examples/adaptive_phases.py [workload] [budget]``
(multi-phase workloads: bt, sp, lu, ft, mg)
"""

import sys

from repro.core.adaptive import adaptive_vs_static
from repro.hardware.platforms import ivybridge_node
from repro.workloads import cpu_workload


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "bt"
    budget = float(sys.argv[2]) if len(sys.argv) > 2 else 200.0
    node = ivybridge_node()
    workload = cpu_workload(name)
    if len(workload.phases) < 2:
        print(f"{name} is single-phase; try bt, sp, lu, ft or mg")
        return

    print(f"Workload: {workload} ({len(workload.phases)} phases), "
          f"budget {budget:.0f} W\n")

    cmp = adaptive_vs_static(node.cpu, node.dram, workload, budget)
    print(f"static COORD:    {cmp.static_perf:10.4g} {workload.metric_unit}")
    print(f"per-phase COORD: {cmp.adaptive_perf:10.4g} {workload.metric_unit}")
    print(f"adaptation gain: {(cmp.speedup - 1) * 100:+.1f}%")
    print("\nper-phase allocations:")
    for phase, alloc in zip(workload.phases, cmp.schedule.allocations):
        print(f"  {phase.name:>14s}: P_cpu={alloc.proc_w:6.1f} W, "
              f"P_mem={alloc.mem_w:6.1f} W")


if __name__ == "__main__":
    main()
