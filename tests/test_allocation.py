"""Power allocations and allocation grids."""

import numpy as np
import pytest

from repro.core.allocation import (
    PowerAllocation,
    allocation_grid,
    bounded_allocation,
)
from repro.errors import PowerBoundError, SweepError, UnitError
from repro.util.units import watts


class TestPowerAllocation:
    def test_total(self):
        assert PowerAllocation(100.0, 50.0).total_w == 150.0

    def test_negative_rejected(self):
        with pytest.raises(UnitError):
            PowerAllocation(-1.0, 50.0)

    def test_within_budget(self):
        a = PowerAllocation(100.0, 50.0)
        assert a.within(150.0)
        assert a.within(160.0)
        assert not a.within(149.0)

    def test_shift_toward_memory(self):
        a = PowerAllocation(100.0, 50.0).shifted(24.0)
        assert a.proc_w == 76.0
        assert a.mem_w == 74.0
        assert a.total_w == 150.0

    def test_shift_toward_processor(self):
        a = PowerAllocation(100.0, 50.0).shifted(-24.0)
        assert a.proc_w == 124.0 and a.mem_w == 26.0

    def test_over_shift_rejected(self):
        with pytest.raises(UnitError):
            PowerAllocation(100.0, 50.0).shifted(-60.0)

    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), float("-inf"), -1.0, -5e-324, "abc", None]
    )
    @pytest.mark.parametrize("field", ["proc_w", "mem_w"])
    def test_invalid_field_raises_what_watts_raises(self, field, bad):
        with pytest.raises(Exception) as expected:
            watts(bad, field)
        with pytest.raises(expected.type) as got:
            PowerAllocation(**{"proc_w": 100.0, "mem_w": 40.0, field: bad})
        assert str(got.value) == str(expected.value)

    def test_proc_w_is_checked_first(self):
        with pytest.raises(UnitError, match="proc_w"):
            PowerAllocation(float("nan"), "abc")

    def test_other_numbers_still_accepted(self):
        assert PowerAllocation(100, np.float64(40.0)).total_w == 140.0
        assert PowerAllocation(-0.0, 0.0).total_w == 0.0

    def test_str(self):
        assert "P_mem=50.0" in str(PowerAllocation(100.0, 50.0))


class TestAllocationGrid:
    def test_budget_preserved(self):
        grid = allocation_grid(200.0, mem_min_w=20.0, step_w=10.0)
        assert all(a.total_w == pytest.approx(200.0) for a in grid)

    def test_step_respected(self):
        grid = allocation_grid(200.0, mem_min_w=20.0, step_w=10.0)
        mems = [a.mem_w for a in grid]
        assert mems == sorted(mems)
        diffs = {round(b - a, 9) for a, b in zip(mems, mems[1:])}
        assert diffs == {10.0}

    def test_proc_floor_respected(self):
        grid = allocation_grid(200.0, mem_min_w=20.0, proc_min_w=50.0, step_w=10.0)
        assert all(a.proc_w >= 50.0 - 1e-9 for a in grid)

    def test_explicit_mem_max(self):
        grid = allocation_grid(200.0, mem_min_w=20.0, mem_max_w=60.0, step_w=10.0)
        assert max(a.mem_w for a in grid) == pytest.approx(60.0)

    def test_empty_grid_raises(self):
        with pytest.raises(SweepError):
            allocation_grid(50.0, mem_min_w=60.0)

    def test_zero_step_raises(self):
        with pytest.raises(SweepError):
            allocation_grid(200.0, mem_min_w=20.0, step_w=0.0)

    def test_infeasible_floors_raise(self):
        with pytest.raises(SweepError):
            allocation_grid(60.0, mem_min_w=40.0, proc_min_w=40.0)


class TestBoundedAllocation:
    def test_within_budget(self):
        a = bounded_allocation(100.0, 50.0, 150.0)
        assert isinstance(a, PowerAllocation)
        assert a.proc_w == 100.0
        assert a.mem_w == 50.0

    def test_exactly_at_budget(self):
        a = bounded_allocation(100.0, 50.0, 150.0)
        assert a.total_w == pytest.approx(150.0)

    def test_overdraw_raises(self):
        with pytest.raises(PowerBoundError, match="overdraws"):
            bounded_allocation(100.0, 51.0, 150.0)

    def test_tolerance_absorbs_float_noise(self):
        bounded_allocation(100.0, 50.0 + 1e-12, 150.0)

    def test_explicit_tolerance(self):
        bounded_allocation(100.0, 50.05, 150.0, tolerance_w=0.1)
        with pytest.raises(PowerBoundError):
            bounded_allocation(100.0, 50.2, 150.0, tolerance_w=0.1)

    def test_invalid_budget_rejected(self):
        with pytest.raises(UnitError):
            bounded_allocation(100.0, 50.0, float("nan"))

    def test_negative_components_rejected(self):
        with pytest.raises(UnitError):
            bounded_allocation(-1.0, 50.0, 150.0)
