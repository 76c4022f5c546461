#!/usr/bin/env python3
"""Self-test of the bench regression gate in tools/run_benches.py.

Each case pins a baseline trajectory and a current one, built from small
synthetic rows, and the verdict the gate must reach.  The metric
declarations come from the pinned files in bench/baseline/, i.e. from the
writer's own declaration table, so the cases exercise the real policies.

Run: python3 tools/test_run_benches.py   (ctest: test_run_benches)
"""

import contextlib
import io
import json
import pathlib
import sys
import tempfile
import unittest

TOOLS = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(TOOLS))
import run_benches  # noqa: E402

DECLARED = {}
for _path in sorted((TOOLS.parent / "bench" / "baseline").glob("BENCH_*.json")):
    DECLARED.update(json.loads(_path.read_text())["metrics"])

MS = 1e6  # wall_ns per millisecond

# (name, baseline rows, current rows, gate passes).  A row is the metrics
# dict of the record keyed ("row <i>", "flat", 1).
CASES = [
    ("exact counter unchanged", [{"csp_nodes": 5}], [{"csp_nodes": 5}], True),
    ("exact counter drift", [{"csp_nodes": 5}], [{"csp_nodes": 6}], False),
    ("exact counter absent vs 0", [{}], [{"crashes": 0}], True),
    ("exact counter 0 vs absent", [{"crashes": 0}], [{}], True),
    ("exact counter appears", [{}], [{"csp_nodes": 3}], False),
    ("exact counter vanishes", [{"crashes": 101}], [{}], False),
    ("catalogue views drift", [{"views": 48}], [{"views": 49}], False),
    ("round count drift", [{"rounds": 7}], [{"rounds": 8}], False),
    ("instance size drift", [{"n": 20000, "m": 48151}], [{"n": 20000, "m": 48150}], False),
    ("close within 1e-9", [{"orbit_reduction": 4.8}], [{"orbit_reduction": 4.8 * (1 + 1e-12)}],
     True),
    ("close drift beyond 1e-9", [{"orbit_reduction": 4.8}],
     [{"orbit_reduction": 4.8 * (1 + 1e-8)}], False),
    ("close metric appears", [{}], [{"orbits": 1, "orbit_reduction": 3.0}], False),
    ("banded within 3x", [{"wall_ns": 60 * MS}], [{"wall_ns": 170 * MS}], True),
    ("banded beyond 3x above the floor", [{"wall_ns": 60 * MS}], [{"wall_ns": 190 * MS}],
     False),
    ("banded beyond 3x under the floor", [{"wall_ns": 40 * MS}], [{"wall_ns": 130 * MS}], True),
    ("banded in ms beyond 3x above the floor", [{"tenant_p99_ms": 60}], [{"tenant_p99_ms": 190}],
     False),
    ("fairness skipped under the p50 floor",
     [{"tenant_p50_ms": 40, "fairness_ratio": 1.0}],
     [{"tenant_p50_ms": 40, "fairness_ratio": 5.0}], True),
    ("fairness gated above the p50 floor",
     [{"tenant_p50_ms": 60, "fairness_ratio": 1.0}],
     [{"tenant_p50_ms": 60, "fairness_ratio": 5.0}], False),
    ("fairness appears above the p50 floor", [{"tenant_p50_ms": 60}],
     [{"tenant_p50_ms": 60, "fairness_ratio": 1.1}], False),
    ("ungated metric may move", [{"restore_ms": 1.0}], [{"restore_ms": 100.0}], True),
    ("baseline row missing from run", [{"n": 10}, {"n": 20}], [{"n": 10}], False),
    ("extra row in run", [{"n": 10}], [{"n": 10}, {"n": 20}], True),
    ("undeclared metric", [{"n": 10}], [{"n": 10, "wall_ms": 1.0}], False),
    ("NaN value", [{"wall_ns": 1.0}], [{"wall_ns": float("nan")}], False),
    ("negative count", [{"repairs": 3}], [{"repairs": -3}], False),
    ("negative ungated value", [{"restore_ms": 1.0}], [{"restore_ms": -1.0}], False),
    ("orbits without a reduction", [{}], [{"orbits": 3, "orbit_reduction": 0.5}], False),
]


def trajectory(rows: list) -> dict:
    """A BENCH file in the writer's format: rows keyed by position, and a
    metrics block declaring the declared names the rows use."""
    used = {name for row in rows for name in row}
    return {
        "schema": run_benches.SCHEMA,
        "experiment": "e9",
        "metrics": {name: decl for name, decl in DECLARED.items() if name in used},
        "records": [{"instance": f"row {i}", "engine": "flat", "threads": 1, "metrics": row}
                    for i, row in enumerate(rows)],
    }


def gate_passes(baseline_rows: list, current_rows: list) -> bool:
    with tempfile.TemporaryDirectory() as tmp:
        base_dir = pathlib.Path(tmp) / "baseline"
        base_dir.mkdir()
        current = pathlib.Path(tmp) / "BENCH_e9.json"
        (base_dir / current.name).write_text(json.dumps(trajectory(baseline_rows)))
        current.write_text(json.dumps(trajectory(current_rows)))
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                run_benches.compare_with_baseline(current, base_dir)
        except SystemExit:
            return False
        return True


class GateTest(unittest.TestCase):
    def test_declarations_cover_the_cases(self):
        for _, base, cur, _ in CASES:
            for name in {n for row in base + cur for n in row} - {"wall_ms"}:
                self.assertIn(name, DECLARED)

    def test_cases(self):
        for name, base, cur, passes in CASES:
            with self.subTest(name):
                self.assertEqual(gate_passes(base, cur), passes)

    def test_pinned_baselines_pass_against_themselves(self):
        for path in sorted((TOOLS.parent / "bench" / "baseline").glob("BENCH_*.json")):
            with self.subTest(path.name), contextlib.redirect_stdout(io.StringIO()):
                self.assertGreater(run_benches.compare_with_baseline(path, path.parent), 0)


if __name__ == "__main__":
    unittest.main()
