#!/usr/bin/env python3
"""Run every bench binary and validate the BENCH_*.json trajectory files.

The experiment set is enumerated explicitly, mirroring kExperiments in
bench/bench_json.hpp; a new bench binary must be added to both lists,
which this script cross-checks against the binaries it actually finds.

Usage:
  tools/run_benches.py --bin-dir build [--out-dir build/bench-json] [--smoke]
  tools/run_benches.py --compare FILE [FILE ...] --baseline bench/baseline

--smoke passes --smoke to each binary (tables + JSON only, no
google-benchmark loops); without it the full benchmark suites run too.

--baseline DIR turns on the regression gate: every produced (or, with
--compare, explicitly listed) trajectory is diffed against the pinned
BENCH_*.json of the same name in DIR, matching records by the
(instance, engine, threads) triple.  Each file declares its metrics with
a gate policy (see bench/bench_json.hpp); the gate applies that policy to
every metric of every baseline row:

  exact   current == baseline, an absent value reading as 0
  close   relative drift at most 1e-9
  banded  current at most 3x baseline, checked only when the baseline
          value of the declared floor metric is at least 50 ms
  none    never gated

A baseline row missing from the run fails the gate.
"""

import argparse
import json
import math
import pathlib
import subprocess
import sys

SCHEMA = "dmm-bench-9"

# Keep in sync with kExperiments in bench/bench_json.hpp.
EXPERIMENTS = [
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9",
    "e10", "e11", "e12", "e13", "e14", "e15", "e16", "e17",
]

CLOSE_TOLERANCE = 1e-9
BAND = 3.0
FLOOR_MS = 50.0
MS_PER_UNIT = {"ns": 1e-6, "ms": 1.0}  # units a banded floor may be declared in
GATES = ("exact", "close", "banded", "none")


def fail(message: str):
    raise SystemExit(f"error: {message}")


def load(path: pathlib.Path) -> dict:
    """Reads one trajectory file and checks the format every reader relies
    on: the schema, well-formed declarations, and finite, non-negative
    values of declared metrics only."""
    with path.open() as fh:
        data = json.load(fh)
    if data.get("schema") != SCHEMA:
        fail(f"{path}: bad schema {data.get('schema')!r}")
    declared = data.get("metrics")
    if not isinstance(declared, dict):
        fail(f"{path}: no metrics block")
    for name, decl in declared.items():
        if decl.get("gate") not in GATES or not decl.get("unit"):
            fail(f"{path}: malformed declaration of {name!r}: {decl}")
        if decl["gate"] == "banded" and not isinstance(decl.get("floor"), str):
            fail(f"{path}: banded metric {name!r} declares no floor")
        if name in (d.get("floor") for d in declared.values()) \
                and decl["unit"] not in MS_PER_UNIT:
            fail(f"{path}: floor metric {name!r} has unit {decl['unit']!r}")
    records = data.get("records")
    if not isinstance(records, list) or not records:
        fail(f"{path}: no records")
    for record in records:
        if not (isinstance(record.get("instance"), str) and isinstance(record.get("engine"), str)
                and isinstance(record.get("threads"), int)
                and isinstance(record.get("metrics"), dict)):
            fail(f"{path}: malformed record: {record}")
        for name, value in record["metrics"].items():
            if name not in declared:
                fail(f"{path}: undeclared metric {name!r}: {record}")
            if isinstance(value, bool) or not isinstance(value, (int, float)) \
                    or not math.isfinite(value) or value < 0:
                fail(f"{path}: {name} must be a finite non-negative number: {record}")
        metrics = record["metrics"]
        if metrics.get("orbits", 0) > 0 and metrics.get("orbit_reduction", 0) < 1:
            fail(f"{path}: orbit record with a reduction below 1x: {record}")
    return data


def gate_row(name: str, current: dict, baseline: dict, declared: dict) -> list:
    """Applies each declared metric's gate policy to one row pair."""
    errors = []
    for metric, decl in declared.items():
        cur = current.get(metric, 0)
        base = baseline.get(metric, 0)
        gate = decl["gate"]
        if gate == "exact" and cur != base:
            errors.append(f"{name}: {metric} changed {base} -> {cur}")
        elif gate == "close" and abs(cur - base) > CLOSE_TOLERANCE * abs(base):
            errors.append(f"{name}: {metric} changed {base} -> {cur}")
        elif gate == "banded" and cur > base * BAND:
            floor = decl["floor"]
            if floor in baseline and \
                    baseline[floor] * MS_PER_UNIT[declared[floor]["unit"]] >= FLOOR_MS:
                errors.append(f"{name}: {metric} regressed {base:g} -> {cur:g} "
                              f"{decl['unit']} (> {BAND:g}x)")
    return errors


def compare_with_baseline(path: pathlib.Path, baseline_dir: pathlib.Path) -> int:
    """Diffs one trajectory against its pinned baseline; returns the number
    of records actually compared.  Baseline-less files pass (a new bench
    needs a later change to pin it); baseline rows whose key vanished fail
    (silently dropping a gated row is exactly what the gate is for)."""
    base_path = baseline_dir / path.name
    if not base_path.exists():
        print(f"baseline: {path.name}: no pinned baseline, skipping")
        return 0
    current_file = load(path)
    baseline_file = load(base_path)
    # A metric the baseline declares but the run no longer emits is still
    # gated (under the baseline's declaration), so dropping it fails.
    declared = {**baseline_file["metrics"], **current_file["metrics"]}

    def keyed(records):
        # (instance, engine, threads): e14 emits one row per engine and per
        # worker count for the same instance label.
        return {(r["instance"], r["engine"], r["threads"]): r["metrics"] for r in records}

    current = keyed(current_file["records"])
    errors = []
    compared = 0
    for key, base_row in keyed(baseline_file["records"]).items():
        label = f"{path.name}: {key[0]!r} [{key[1]} t{key[2]}]"
        row = current.get(key)
        if row is None:
            errors.append(f"{label}: baseline row missing from run")
            continue
        errors.extend(gate_row(label, row, base_row, declared))
        compared += 1
    if errors:
        fail("bench regression gate failed:\n  " + "\n  ".join(errors))
    print(f"baseline: {path.name}: {compared} record(s) within tolerance")
    return compared


def find_binary(bin_dir: pathlib.Path, experiment: str) -> pathlib.Path:
    matches = sorted(bin_dir.glob(f"bench_{experiment}_*"))
    matches = [m for m in matches if m.is_file() and m.stat().st_mode & 0o111]
    if len(matches) != 1:
        fail(f"expected exactly one bench_{experiment}_* binary in {bin_dir}, "
             f"found {len(matches)}")
    return matches[0]


def validate_scale_row(path: pathlib.Path) -> None:
    """--scale: e14 must carry the n = 10^7 flat-engine row, with the
    memory-model metrics populated and init no longer the dominant phase."""
    records = load(path)["records"]
    rows = [r for r in records if r["metrics"].get("n") == 10_000_000]
    if not rows:
        fail(f"{path}: --scale run but no n=10^7 record")
    for row in rows:
        metrics = row["metrics"]
        if row["engine"] != "flat":
            fail(f"{path}: scale row must use the flat engine: {row}")
        if metrics.get("init_ms", 0) <= 0 or metrics.get("rss_bytes", 0) <= 0:
            fail(f"{path}: scale row missing memory stats: {row}")
        wall_ms = metrics["wall_ns"] / 1e6
        if metrics["init_ms"] * 2 > wall_ms:
            fail(f"{path}: init dominates the scale row ({metrics['init_ms']:.1f} ms of "
                 f"{wall_ms:.1f} ms) — the pooled program arena regressed")
    first = rows[0]["metrics"]
    print(f"scale: e14 n=10^7 row ok ({first['init_ms']:.1f} ms init, "
          f"{first['wall_ns'] / 1e6:.1f} ms wall)")

    # The skewed scale rows: the 10^6-node hub cluster must be run flat at
    # t=1 and t=8.  The t1/t8 ratio is reported, not gated — it is a
    # property of the runner's core count, not of the code.
    skewed = {r["threads"]: r for r in records
              if r["instance"].startswith("hub_cluster") and r["metrics"].get("n", 0) >= 1_000_000}
    if not skewed:
        fail(f"{path}: --scale run but no skewed hub_cluster record")
    for threads in (1, 8):
        if threads not in skewed:
            fail(f"{path}: skewed scale row missing threads={threads}")
        if skewed[threads]["engine"] != "flat":
            fail(f"{path}: skewed scale row must be flat: {skewed[threads]}")
    ratio = skewed[1]["metrics"]["wall_ns"] / skewed[8]["metrics"]["wall_ns"]
    print(f"scale: e14 skewed n=10^6 rows ok (flat t1/t8 = {ratio:.2f}x, "
          f"hardware-dependent)")


def validate_orderly_scale_row(path: pathlib.Path) -> None:
    """--scale: e17 must carry the budgeted orderly k=5,rho=3 smoke — the
    rep-generation run past the old raw-view guard."""
    rows = [r["metrics"] for r in load(path)["records"] if "orderly reps" in r["instance"]]
    if not rows:
        fail(f"{path}: --scale run but no orderly reps record")
    for row in rows:
        reps = row.get("reps_generated", 0)
        if reps <= 0 or reps != row.get("orbits", 0):
            fail(f"{path}: orderly scale row generated no reps: {row}")
        if row.get("views", 0) < reps:
            fail(f"{path}: orderly scale row member count bad: {row}")
    print(f"scale: e17 orderly row ok ({rows[0]['reps_generated']} reps covering "
          f"{rows[0]['views']} raw views in {rows[0]['wall_ns'] / 1e6:.1f} ms)")


def validate(path: pathlib.Path, experiment: str) -> int:
    data = load(path)
    if data.get("experiment") != experiment:
        fail(f"{path}: experiment mismatch {data.get('experiment')!r}")
    return len(data["records"])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bin-dir", type=pathlib.Path)
    parser.add_argument("--out-dir", type=pathlib.Path, default=pathlib.Path("bench-json"))
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument(
        "--scale",
        action="store_true",
        help="bench_scale: add the opt-in scale rows (e14's n = 10^7 greedy "
        "smoke, e17's budgeted orderly k=5,rho=3 rep generation) and "
        "validate them (nightly CI leg)",
    )
    parser.add_argument(
        "--baseline",
        type=pathlib.Path,
        help="pinned-baseline directory; every trajectory produced (or listed "
        "via --compare) is diffed against the same-named file there",
    )
    parser.add_argument(
        "--compare",
        nargs="+",
        type=pathlib.Path,
        help="skip running: just diff these BENCH_*.json files against "
        "--baseline (which becomes required)",
    )
    args = parser.parse_args()

    if args.compare:
        if args.baseline is None:
            parser.error("--compare requires --baseline")
        compared = sum(compare_with_baseline(path, args.baseline) for path in args.compare)
        print(f"ok: {len(args.compare)} file(s), {compared} record(s) gated")
        return 0

    if args.bin_dir is None:
        parser.error("--bin-dir is required unless --compare is given")
    args.out_dir.mkdir(parents=True, exist_ok=True)
    total = 0
    for experiment in EXPERIMENTS:
        binary = find_binary(args.bin_dir, experiment)
        cmd = [str(binary), "--json-dir", str(args.out_dir)]
        if args.smoke:
            cmd.append("--smoke")
        if args.scale:
            cmd.append("--scale")  # every harness accepts it; only e14 and e17 react
        print(f"== {binary.name} {'(smoke)' if args.smoke else ''}", flush=True)
        subprocess.run(cmd, check=True)
        total += validate(args.out_dir / f"BENCH_{experiment}.json", experiment)

    if args.scale:
        validate_scale_row(args.out_dir / "BENCH_e14.json")
        validate_orderly_scale_row(args.out_dir / "BENCH_e17.json")
    if args.baseline is not None:
        for experiment in EXPERIMENTS:
            compare_with_baseline(args.out_dir / f"BENCH_{experiment}.json", args.baseline)
    print(f"ok: {len(EXPERIMENTS)} experiments, {total} records in {args.out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
