#!/usr/bin/env python3
"""CI guard for the deterministic benchmark metrics.

Compares a freshly generated bench JSON against the committed baseline
(bench/baselines/) on the *deterministic* fields only — never wall-clock.
The file schema is autodetected from the rows:

SFI campaign rows (BENCH_sfi_campaign.json) carry cost counters —
simulation passes, cycles simulated, op evaluations, op-block evaluations
and flip-flop block ticks — which depend only on the campaign configuration
and the pass schedule, never on host load, thread timing or SIMD
throughput. A counter that grew beyond the tolerance is a real cost
regression (a scheduling or replay change made the engine do more work),
not noise, so the guard can be strict where a wall-clock gate could not be.
proven_injections, collapsed_injections and the pass_histogram string
(passes per lane shape) must match exactly. mean_fdr must match exactly:
every engine configuration is bit-identical to the flat reference by
contract. The link_sweep_* fields are reported, never gated: the engine's
hold-link sweep runs at the host's native lane width, so its cost differs
between hosts.

Transfer rows (BENCH_transfer.json) carry model-quality metrics. The
training pipeline is deterministic for a fixed injection count, so
train_rows and target_ffs must match exactly, and r2/spearman/mae must
match at a fixed decimal precision (default 6; host-ISA reduction-order
differences live far below that).

Rows are keyed by their full configuration tuple. A baseline key missing
from the current run fails the check: a row the bench stopped producing
must be deleted from the baseline, not skipped silently. The one exception
is a baseline row whose lane_width is wider than every lane_width in the
current run — CI runners without AVX-512 resolve k512 requests to 256
lanes, so they cannot produce a 512-lane baseline's rows; those are skipped
with a note. Current rows missing from the baseline are noted. Zero
matching keys is an error (it means the key schema drifted and the guard is
vacuous).

Usage: check_bench_regression.py BASELINE.json CURRENT.json
           [--tolerance F] [--precision N]
Exit status: 0 = no regression, 1 = regression or vacuous comparison.
"""

import argparse
import json
import sys

# Per-schema field roles. `detect` is a field present in every row of that
# schema and in no other; `key` identifies a row; `counters` are guarded
# against growth (tolerance applies); `exact` must match exactly; `fixed`
# are floats compared at --precision decimals.
SCHEMAS = {
    "sfi_campaign": {
        "detect": "circuit",
        "key": (
            "circuit",
            "mode",
            "threads",
            "checkpoint_interval",
            "injections_per_ff",
            "lane_width",
            "blocks_per_pass",
        ),
        "counters": (
            "passes",
            "cycles_simulated",
            "ops_evaluated",
            "op_block_evals",
            "ff_block_ticks",
        ),
        # Upsets answered without a lane of their own: set by the observable
        # cone, the hold links and the injection schedule alone. The pass
        # histogram is the schedule's shape: a change that keeps the pass
        # total but moves passes between shapes is a schedule change, not
        # noise.
        "exact": ("proven_injections", "collapsed_injections", "pass_histogram"),
        "fixed": (),
        # mean_fdr is bit-identity by engine contract: compare at 9 decimals
        # (the serialized precision), flagged as identity breakage.
        "identity": ("mean_fdr",),
    },
    "transfer": {
        "detect": "target",
        "key": ("target", "train_set", "model", "adapted", "injections_per_ff"),
        "counters": (),
        "exact": ("train_rows", "target_ffs"),
        "fixed": ("r2", "spearman", "mae"),
        "identity": (),
    },
}


def detect_schema(rows, path):
    for name, schema in SCHEMAS.items():
        if all(schema["detect"] in row for row in rows):
            return name
    sys.exit(f"error: {path}: rows match no known bench schema")


def load_rows(path):
    with open(path, encoding="utf-8") as f:
        rows = json.load(f)
    if not isinstance(rows, list) or not rows:
        sys.exit(f"error: {path}: expected a non-empty JSON array of bench rows")
    schema_name = detect_schema(rows, path)
    schema = SCHEMAS[schema_name]
    keyed = {}
    for row in rows:
        key = tuple(row.get(field) for field in schema["key"])
        # Duplicate keys appear when two requested widths resolve to the
        # same native width; their deterministic counters must agree.
        if key in keyed:
            for field in schema["counters"]:
                if keyed[key].get(field) != row.get(field):
                    sys.exit(
                        f"error: {path}: duplicate key {key} with "
                        f"conflicting '{field}' counters"
                    )
        keyed[key] = row
    return schema_name, keyed


def describe(schema, key):
    return ", ".join(f"{field}={value}" for field, value in zip(schema["key"], key))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", help="committed baseline JSON (bench/baselines/)")
    parser.add_argument("current", help="freshly generated JSON to check")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.0,
        help="allowed fractional counter growth (default 0: exact)",
    )
    parser.add_argument(
        "--precision",
        type=int,
        default=6,
        help="decimals for fixed-precision float comparison (default 6)",
    )
    args = parser.parse_args()

    base_schema_name, baseline = load_rows(args.baseline)
    cur_schema_name, current = load_rows(args.current)
    if base_schema_name != cur_schema_name:
        print(
            f"error: schema mismatch: baseline is '{base_schema_name}', "
            f"current is '{cur_schema_name}'"
        )
        return 1
    schema = SCHEMAS[base_schema_name]
    print(f"schema: {base_schema_name}")

    def fixed(value, decimals):
        return f"{value:.{decimals}f}"

    # Rows wider than the current host's widest lane block cannot be
    # produced here; every other baseline row must be.
    widest_current = max(
        (row["lane_width"] for row in current.values() if "lane_width" in row),
        default=None,
    )

    matched = 0
    regressions = []
    improvements = []
    for key, base_row in baseline.items():
        cur_row = current.get(key)
        if cur_row is None:
            width = base_row.get("lane_width")
            too_wide = (
                width is not None
                and widest_current is not None
                and width > widest_current
            )
            if too_wide:
                print(
                    f"skip (lane_width {width} is wider than this run's "
                    f"{widest_current}): {describe(schema, key)}"
                )
            else:
                regressions.append(
                    f"baseline row missing from the current run [{describe(schema, key)}]"
                )
            continue
        matched += 1
        where = describe(schema, key)
        for field in schema["counters"]:
            base_value = base_row[field]
            cur_value = cur_row[field]
            if cur_value > base_value * (1.0 + args.tolerance):
                regressions.append(f"{field} {base_value} -> {cur_value} [{where}]")
            elif cur_value < base_value:
                improvements.append(f"{field} {base_value} -> {cur_value} [{where}]")
        for field in schema["exact"]:
            if base_row.get(field) != cur_row.get(field):
                regressions.append(
                    f"{field} {base_row.get(field)} -> {cur_row.get(field)} "
                    f"(deterministic field changed) [{where}]"
                )
        for field in schema["fixed"]:
            base_value = fixed(base_row[field], args.precision)
            cur_value = fixed(cur_row[field], args.precision)
            if base_value != cur_value:
                regressions.append(
                    f"{field} {base_value} -> {cur_value} "
                    f"(changed at {args.precision} decimals) [{where}]"
                )
        for field in schema["identity"]:
            if fixed(base_row[field], 9) != fixed(cur_row[field], 9):
                regressions.append(
                    f"{field} {fixed(base_row[field], 9)} -> "
                    f"{fixed(cur_row[field], 9)} (bit-identity broken) [{where}]"
                )
    for key in current:
        if key not in baseline:
            print(f"note: new row not in baseline: {describe(schema, key)}")

    if matched == 0:
        print("error: no baseline row matched any current row — the key "
              "schema drifted and this comparison is vacuous")
        return 1
    for line in improvements:
        print(f"improved: {line}")
    if regressions:
        print(f"\n{len(regressions)} deterministic-metric regression(s):")
        for line in regressions:
            print(f"  REGRESSION: {line}")
        return 1
    print(f"ok: {matched} row(s) compared, no deterministic-metric regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
