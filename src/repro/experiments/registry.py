"""Registry mapping paper artifact ids onto experiment runners."""

from __future__ import annotations

from collections.abc import Callable

from repro.core.parallel import SweepEngine
from repro.errors import ReproError
from repro.experiments import (
    ablation,
    biglittle,
    cluster_study,
    extensions,
    fig1,
    fig2,
    fig3,
    fig4,
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    table1,
)
from repro.experiments.report import ExperimentReport

__all__ = ["EXPERIMENTS", "list_experiments", "run_experiment"]

#: Artifact id → runner.  Each runner accepts ``fast`` to trade sweep
#: resolution for runtime (used by the test suite; benchmarks run full).
EXPERIMENTS: dict[str, Callable[..., ExperimentReport]] = {
    "fig1": fig1.run,
    "fig2": fig2.run,
    "fig3": fig3.run,
    "fig4": fig4.run,
    "fig5": fig5.run,
    "fig6": fig6.run,
    "fig7": fig7.run,
    "fig8": fig8.run,
    "fig9": fig9.run,
    "table1": table1.run,
    "ablation": ablation.run,
    "extensions": extensions.run,
    "biglittle": biglittle.run,
    "cluster": cluster_study.run,
}


def list_experiments() -> tuple[str, ...]:
    """All registered artifact ids, in paper order."""
    return tuple(EXPERIMENTS)


def run_experiment(
    experiment_id: str,
    fast: bool = False,
    *,
    engine: SweepEngine | None = None,
    mode: str | None = None,
    cache_dir: str | None = None,
) -> ExperimentReport:
    """Run one experiment by artifact id.

    ``engine`` routes the experiment's sweeps through an explicit
    :class:`SweepEngine` (memo cache); ``mode`` (``"full"``/``"adaptive"``)
    and ``cache_dir`` (persistent disk cache root) are shorthands that
    build one.  With none of them, sweeps fall back to the process-wide
    default engine, which honours the ``REPRO_SWEEP`` and
    ``REPRO_CACHE_DIR`` environment variables.
    """
    try:
        runner = EXPERIMENTS[experiment_id]
    except KeyError:
        raise ReproError(
            f"unknown experiment {experiment_id!r}; available: {sorted(EXPERIMENTS)}"
        ) from None
    if engine is None and (mode is not None or cache_dir is not None):
        engine = SweepEngine(mode=mode, cache_dir=cache_dir)
    report = runner(fast=fast, engine=engine)
    if engine is not None:
        engine.flush()
    return report
