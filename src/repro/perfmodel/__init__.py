"""Execution model: roofline-with-stalls simulation under power caps.

Given a workload's per-phase characterization and a node's power caps, the
executor resolves a small fixed point between:

* the operating point the capping hardware selects (which depends on the
  power the workload *actually* draws), and
* the power the workload actually draws (which depends on how much it
  stalls, i.e. on the operating point of the *other* domain).

That coupling — not any hand-coded category table — is what produces the
paper's six CPU scenario categories and three GPU categories.
"""

from repro.perfmodel.phase import Phase, scale_phases, total_bytes, total_flops
from repro.perfmodel.metrics import ExecutionResult, PhaseResult
from repro.perfmodel.batch import execute_gpu_batch, execute_host_batch
from repro.perfmodel.executor import execute_on_gpu, execute_on_host
from repro.perfmodel.hetero import execute_on_biglittle
from repro.perfmodel.power_trace import PowerTrace, sample_power_trace

__all__ = [
    "ExecutionResult",
    "Phase",
    "PhaseResult",
    "PowerTrace",
    "execute_gpu_batch",
    "execute_host_batch",
    "execute_on_biglittle",
    "execute_on_gpu",
    "execute_on_host",
    "sample_power_trace",
    "scale_phases",
    "total_bytes",
    "total_flops",
]
