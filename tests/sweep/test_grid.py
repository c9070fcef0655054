"""Cells and grids are pure, picklable, uniquely-identified values."""

from __future__ import annotations

import pickle

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.sweep import GRIDS, build_grid
from repro.sweep.grid import (
    SweepCell,
    delay_model_from_spec,
    make_params,
)


class TestCellIdentity:
    def test_cell_id_encodes_every_axis(self) -> None:
        cell = SweepCell(
            "e5",
            "random",
            n=10,
            seed=3,
            delay="exp:1.0",
            timeout_t=2.0,
            duration=60.0,
            params=make_params(max_targets=2, mean_think=2.0, service_delay=0.5),
        )
        assert cell.cell_id == (
            "e5/random/n=10/seed=3/delay=exp:1.0/T=2/dur=60"
            "/max_targets=2/mean_think=2/service_delay=0.5"
        )

    def test_immediate_initiation_is_named_not_numeric(self) -> None:
        cell = SweepCell("e5", "random", n=10, seed=0, timeout_t=None)
        assert "/T=immediate" in cell.cell_id
        zero = SweepCell("e5", "random", n=10, seed=0, timeout_t=0.0)
        assert "/T=0" in zero.cell_id
        assert cell.cell_id != zero.cell_id

    def test_cells_are_hashable_and_picklable(self) -> None:
        cell = SweepCell("e1", "cycle", n=8, seed=1, params=make_params(rounds=3))
        assert pickle.loads(pickle.dumps(cell)) == cell
        assert len({cell, cell}) == 1

    def test_params_are_order_canonical(self) -> None:
        a = make_params(b=2.0, a=1.0)
        b = make_params(a=1.0, b=2.0)
        assert a == b == (("a", 1.0), ("b", 2.0))

    def test_param_lookup(self) -> None:
        cell = SweepCell("e3", "dense", n=16, seed=0, params=make_params(fan_out=3))
        assert cell.param("fan_out") == 3
        assert cell.param("absent", 7.0) == 7.0
        with pytest.raises(ConfigurationError):
            cell.param("absent")


class TestDelaySpecs:
    def test_known_specs_materialise(self) -> None:
        from repro.sim.network import ExponentialDelay, FixedDelay, UniformDelay

        assert delay_model_from_spec("none") is None
        assert isinstance(delay_model_from_spec("exp:1.5"), ExponentialDelay)
        assert isinstance(delay_model_from_spec("fixed:2.0"), FixedDelay)
        uniform = delay_model_from_spec("uniform:0.1:3.0")
        assert isinstance(uniform, UniformDelay)
        assert (uniform.low, uniform.high) == (0.1, 3.0)

    @pytest.mark.parametrize("spec", ["gauss:1.0", "exp:", "uniform:1.0", "exp:abc"])
    def test_malformed_specs_raise(self, spec: str) -> None:
        with pytest.raises(ConfigurationError):
            delay_model_from_spec(spec)

    @pytest.mark.parametrize(
        "spec", ["fixed:nan", "fixed:inf", "uniform:0:inf", "exp:nan", "exp:inf"]
    )
    def test_non_finite_specs_raise_when_built(self, spec: str) -> None:
        # rejected by the delay model's constructor, not at its first sample
        with pytest.raises(SimulationError, match=spec.rpartition(":")[2]):
            delay_model_from_spec(spec)


class TestShippedGrids:
    def test_one_grid_per_experiment(self) -> None:
        assert GRIDS == (
            "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10",
        )

    @pytest.mark.parametrize("name", GRIDS)
    def test_grid_builds_nonempty_with_unique_cell_ids(self, name: str) -> None:
        for quick in (True, False):
            grid = build_grid(name, quick=quick)
            assert len(grid) > 0
            ids = [cell.cell_id for cell in grid.cells]
            assert len(set(ids)) == len(ids)
            assert all(cell.grid == name for cell in grid.cells)

    @pytest.mark.parametrize("name", GRIDS)
    def test_quick_grid_is_a_strict_subset_axis_count(self, name: str) -> None:
        assert len(build_grid(name, quick=True)) < len(build_grid(name, quick=False))

    def test_unknown_grid_raises(self) -> None:
        with pytest.raises(ConfigurationError):
            build_grid("e99")

    def test_e5_grid_covers_the_paper_t_sweep(self) -> None:
        from repro.experiments.e5_t_tradeoff import SEEDS, T_SWEEP

        grid = build_grid("e5")
        assert len(grid) == len(T_SWEEP) * len(SEEDS)
        timeouts = {cell.timeout_t for cell in grid.cells}
        assert timeouts == set(T_SWEEP)
