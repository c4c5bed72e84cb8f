#!/usr/bin/env python3
"""Unit tests for the bench gate script (`check_bench.py`).

Every CI bench gate stands on this script behaving as documented, so its
own failure modes are tested here and the suite runs in CI (via
`python3 -m unittest discover -s scripts`) before any gate is trusted.
The zero-row self-test used to live inline in ci.yml; it is the first
case below.

Run locally with:

    python3 -m unittest discover -s scripts -v
"""

import json
import os
import tempfile
import unittest

import check_bench


def row(bench_id, per_sec):
    return {
        "id": bench_id,
        "mean_ns": 1000.0,
        "min_ns": 900.0,
        "throughput": {"unit": "bytes", "per_iter": 1, "per_sec": per_sec},
    }


class CheckBenchCase(unittest.TestCase):
    """Shared plumbing: write bench JSON docs to temp files, invoke main."""

    def setUp(self):
        self._dir = tempfile.TemporaryDirectory()
        self.addCleanup(self._dir.cleanup)

    def bench_file(self, name, rows):
        path = os.path.join(self._dir.name, name)
        with open(path, "w") as f:
            json.dump({"bench": "test", "format": 1, "results": rows}, f)
        return path

    def run_gate(self, new_rows, base_rows, *flags):
        new = self.bench_file("new.json", new_rows)
        base = self.bench_file("base.json", base_rows)
        return check_bench.main([new, base, *flags])


class ZeroRowsIsHardFailure(CheckBenchCase):
    """A --filter matching no baseline id must fail, never pass vacuously.

    This is the property the gates live or die by: a typo'd flag or a
    renamed bench id must break the build, or a gate could silently check
    nothing forever.
    """

    def test_filter_matching_nothing_fails(self):
        rows = [row("g/compiled_x/1", 200.0), row("g/interpreted_x/1", 100.0)]
        self.assertEqual(
            self.run_gate(rows, rows, "--filter", "this_id_matches_nothing"),
            1,
        )

    def test_empty_baseline_fails(self):
        rows = [row("g/compiled_x/1", 200.0)]
        self.assertEqual(self.run_gate(rows, [], "--filter", "compiled"), 1)

    def test_gated_row_missing_from_fresh_run_fails(self):
        base = [row("g/compiled_x/1", 200.0)]
        self.assertEqual(self.run_gate([], base, "--filter", "compiled"), 1)


class SiblingPairing(CheckBenchCase):
    """The gated metric is the within-run gated/sibling speedup, so runner
    hardware cancels out of the baseline comparison."""

    def test_slower_hardware_same_ratio_passes(self):
        base = [row("g/compiled_x/1", 200.0), row("g/interpreted_x/1", 100.0)]
        # Absolute throughput halved, speedup identical: not a regression.
        new = [row("g/compiled_x/1", 100.0), row("g/interpreted_x/1", 50.0)]
        self.assertEqual(self.run_gate(new, base, "--filter", "compiled"), 0)

    def test_ratio_collapse_fails_even_if_absolute_holds(self):
        base = [row("g/compiled_x/1", 200.0), row("g/interpreted_x/1", 100.0)]
        # Compiled as fast as ever, but the speedup fell 2.0x -> 1.0x.
        new = [row("g/compiled_x/1", 200.0), row("g/interpreted_x/1", 200.0)]
        self.assertEqual(self.run_gate(new, base, "--filter", "compiled"), 1)

    def test_custom_sibling_pair(self):
        base = [row("g/batched_d/1", 300.0), row("g/sequential_d/1", 100.0)]
        new = [row("g/batched_d/1", 30.0), row("g/sequential_d/1", 10.0)]
        self.assertEqual(
            self.run_gate(
                new, base,
                "--filter", "batched",
                "--sibling", "batched=sequential",
            ),
            0,
        )

    def test_row_without_sibling_falls_back_to_absolute(self):
        base = [row("g/compiled_solo/1", 200.0)]
        new = [row("g/compiled_solo/1", 100.0)]
        self.assertEqual(self.run_gate(new, base, "--filter", "compiled"), 1)

    def test_sibling_missing_from_fresh_run_fails(self):
        # The baseline pairs the gated row with its sibling; a fresh run
        # without the sibling must not fall back to an absolute check that
        # skips the ratio floor.
        base = [row("g/load_x/1", 600.0), row("g/compile_x/1", 100.0)]
        new = [row("g/load_x/1", 600.0)]
        self.assertEqual(
            self.run_gate(
                new, base,
                "--filter", "load",
                "--sibling", "load=compile",
                "--min-speedup", "5",
            ),
            1,
        )

    def test_trailing_slash_filter_excludes_suffixed_ids(self):
        # `bytes_compiled/` gates only the SWAR rows; the `_simd` rows have
        # their own gate with a higher floor. A fresh run missing the simd
        # rows (a default-features run) must still pass this filter.
        base = [
            row("e/bytes_compiled/1", 150.0),
            row("e/bytes_interpreted/1", 140.0),
            row("e/bytes_compiled_simd/1", 200.0),
            row("e/bytes_interpreted_simd/1", 190.0),
        ]
        new = [
            row("e/bytes_compiled/1", 150.0),
            row("e/bytes_interpreted/1", 140.0),
        ]
        self.assertEqual(
            self.run_gate(new, base, "--filter", "bytes_compiled/"), 0
        )
        # Sanity: without the slash the simd rows are gated and missing.
        self.assertEqual(
            self.run_gate(new, base, "--filter", "bytes_compiled"), 1
        )


class AbsoluteFloors(CheckBenchCase):
    """--min-speedup and --min-throughput are acceptance bars on the fresh
    run, independent of what the baseline recorded."""

    def test_min_speedup_fails_below_floor(self):
        # Baseline-relative check passes (same ratio both runs), but the
        # ratio never reached the required multiple.
        rows = [row("g/load_x/1", 300.0), row("g/compile_x/1", 100.0)]
        self.assertEqual(
            self.run_gate(
                rows, rows,
                "--filter", "load",
                "--sibling", "load=compile",
                "--min-speedup", "5",
            ),
            1,
        )

    def test_min_speedup_passes_at_floor(self):
        rows = [row("g/load_x/1", 500.0), row("g/compile_x/1", 100.0)]
        self.assertEqual(
            self.run_gate(
                rows, rows,
                "--filter", "load",
                "--sibling", "load=compile",
                "--min-speedup", "5",
            ),
            0,
        )

    def test_min_throughput_fails_below_floor(self):
        rows = [row("e/bytes_compiled/1", 90e6)]
        self.assertEqual(
            self.run_gate(
                rows, rows,
                "--filter", "bytes_compiled",
                "--min-throughput", "100000000",
            ),
            1,
        )

    def test_min_throughput_passes_above_floor(self):
        rows = [row("e/bytes_compiled/1", 150e6)]
        self.assertEqual(
            self.run_gate(
                rows, rows,
                "--filter", "bytes_compiled",
                "--min-throughput", "100000000",
            ),
            0,
        )


if __name__ == "__main__":
    unittest.main()
