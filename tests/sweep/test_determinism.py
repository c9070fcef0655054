"""The sweep engine's determinism contract.

The merged document must be a pure function of the grid: same cells in,
same bytes out, regardless of worker count, scheduling order, or which
cells error.  These tests exercise the real multiprocessing path (small
grids, so the pool overhead stays in tens of milliseconds).
"""

from __future__ import annotations

import pytest

from repro.sweep import build_grid, canonical_json, merge_results, run_cell, run_sweep
from repro.sweep.grid import SweepCell, make_params


def merged_bytes(cells, workers: int) -> bytes:
    results = run_sweep(cells, workers=workers)
    return canonical_json(merge_results("test", results)).encode("utf-8")


class TestWorkerCountIndependence:
    def test_e3_quick_workers_1_vs_4_byte_identical(self) -> None:
        grid = build_grid("e3", quick=True)
        assert merged_bytes(grid.cells, 1) == merged_bytes(grid.cells, 4)

    def test_e1_quick_workers_1_vs_2_byte_identical(self) -> None:
        grid = build_grid("e1", quick=True)
        assert merged_bytes(grid.cells, 1) == merged_bytes(grid.cells, 2)

    def test_repeated_runs_are_stable(self) -> None:
        grid = build_grid("e6", quick=True)
        assert merged_bytes(grid.cells, 1) == merged_bytes(grid.cells, 1)

    def test_cell_order_in_grid_is_irrelevant(self) -> None:
        grid = build_grid("e3", quick=True)
        reversed_cells = tuple(reversed(grid.cells))
        assert merged_bytes(grid.cells, 1) == merged_bytes(reversed_cells, 1)


class TestErrorCells:
    def broken_cell(self) -> SweepCell:
        # n=0 fails BasicSystem's n_vertices >= 1 validation inside the worker.
        return SweepCell("test", "cycle", n=0, seed=0)

    def test_crashing_cell_becomes_error_status(self) -> None:
        result = run_cell(self.broken_cell())
        assert result["status"] == "error"
        assert "ConfigurationError" in result["error"]

    def test_unknown_scenario_becomes_error_status(self) -> None:
        result = run_cell(SweepCell("test", "no-such-scenario", n=3, seed=0))
        assert result["status"] == "error"
        assert "no-such-scenario" in result["error"]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_error_cell_does_not_abort_the_sweep(self, workers: int) -> None:
        good = SweepCell("test", "cycle", n=3, seed=0)
        cells = (good, self.broken_cell(), good.with_seed(1))
        results = run_sweep(cells, workers=workers)
        assert len(results) == 3
        by_status = sorted(result["status"] for result in results)
        assert by_status == ["error", "ok", "ok"]

    def test_error_cells_merge_deterministically(self) -> None:
        cells = (SweepCell("test", "cycle", n=3, seed=0), self.broken_cell())
        assert merged_bytes(cells, 1) == merged_bytes(cells, 2)
        merged = merge_results("test", run_sweep(cells, workers=1))
        assert merged["summary"] == {
            "cells": 2,
            "ok": 1,
            "errors": 1,
            "deadlocks": 1,
            "events": merged["summary"]["events"],
            "probes": merged["summary"]["probes"],
            "unsound": 0,
        }

    def test_workers_must_be_positive(self) -> None:
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            run_sweep((), workers=0)


class TestResultShape:
    def test_ok_cell_carries_the_deterministic_fields(self) -> None:
        result = run_cell(SweepCell("test", "cycle", n=4, seed=0, delay="exp:1.0"))
        assert result["status"] == "ok"
        assert result["outcome"] == "deadlock"
        assert result["events"] > 0
        assert result["probes"] > 0
        assert result["unsound"] == 0
        assert result["wall_seconds"] > 0

    def test_wall_seconds_never_reaches_the_merged_document(self) -> None:
        cells = (SweepCell("test", "cycle", n=3, seed=0),)
        merged = merge_results("test", run_sweep(cells, workers=1))
        assert all("wall_seconds" not in cell for cell in merged["cells"])

    def test_timing_sidecar_carries_wall_clock(self) -> None:
        from repro.sweep.merge import timing_sidecar

        cells = (SweepCell("test", "cycle", n=3, seed=0),)
        results = run_sweep(cells, workers=1)
        sidecar = timing_sidecar("test", results)
        (cell_timing,) = sidecar["cells"].values()
        assert cell_timing["wall_seconds"] > 0
        assert cell_timing["events_per_sec"] > 0
        assert sidecar["total"]["events"] == results[0]["events"]


def test_with_seed_helper() -> None:
    cell = SweepCell("test", "cycle", n=3, seed=0, params=make_params(rounds=2))
    replaced = cell.with_seed(7)
    assert replaced.seed == 7
    assert replaced.params == cell.params
    assert cell.seed == 0


class TestDdbCells:
    def test_quick_e7_cell_reports_the_rings_section_4_numbers(self) -> None:
        from repro.analysis.stats import mean
        from repro.experiments.e7_q_optimization import ring_system

        cell = build_grid("e7", quick=True).cells[0]
        result = run_cell(cell)
        system = ring_system(
            n_sites=cell.n,
            extra_local=int(cell.param("extra_local")),
            optimized=bool(cell.param("optimized")),
            seed=cell.seed,
        )
        system.run_to_quiescence()
        assert result["status"] == "ok"
        assert result["max_probes_per_computation"] == max(
            system.probes_per_computation.values()
        )
        assert result["max_probes_per_computation"] > 0
        assert result["detection_latency_mean"] == mean(system.detection_latencies)
