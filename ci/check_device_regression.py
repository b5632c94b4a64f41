#!/usr/bin/env python3
"""Guard against device step-pipeline throughput regressions.

Usage: check_device_regression.py <baseline BENCH_device.json> <fresh BENCH_device.json>

Every ablation arm recorded under `steps_per_sec` in both files —
`legacy`, `predecoded`, `superblock` — is gated at 65% of the
checked-in baseline. Derived ratios (`speedup`, `superblock_speedup`)
are reported but not gated: they move whenever one arm wobbles, and
the per-arm floors already bound both numerator and denominator.

`attestations_per_sec` and `macs_per_sec` (the `mac` arm) ride the same
65% floor, but only when the baseline and the fresh run report the same
`mac_path`: both are mostly MAC time, and SHA-NI and the scalar SHA-256
differ by several times, so comparing across paths would either fail
every scalar runner or guard nothing on SHA-NI ones. When the paths
differ the script says so and skips both.

Smoke runs measure tiny workloads on shared runners, so the tolerance
is loose by design: the gate exists to catch a pipeline arm getting
structurally slower (a per-step allocation creeping back, a cache tier
disabled), not single-digit scheduler jitter.
"""

import json
import sys

TOLERANCE = 0.65  # fresh must reach this fraction of baseline
DERIVED = ("speedup", "superblock_speedup")


def load(path):
    with open(path) as f:
        return json.load(f)


def main():
    baseline = load(sys.argv[1])
    fresh = load(sys.argv[2])

    base_arms = baseline.get("steps_per_sec", {})
    fresh_arms = fresh.get("steps_per_sec", {})
    arms = sorted((set(base_arms) & set(fresh_arms)) - set(DERIVED))
    if not arms:
        sys.exit(
            "no common steps_per_sec arms: "
            f"baseline has {sorted(base_arms)}, fresh has {sorted(fresh_arms)}"
        )

    failed = []
    for arm in arms:
        ratio = fresh_arms[arm] / base_arms[arm]
        print(
            f"steps_per_sec[{arm}]: baseline {base_arms[arm]:.0f}/s, "
            f"fresh {fresh_arms[arm]:.0f}/s ({ratio:.2f}x)"
        )
        if ratio < TOLERANCE:
            failed.append(arm)

    for name in DERIVED:
        if name in base_arms and name in fresh_arms:
            print(
                f"{name}: baseline {base_arms[name]:.2f}x, "
                f"fresh {fresh_arms[name]:.2f}x (not gated)"
            )

    b_path, f_path = baseline.get("mac_path"), fresh.get("mac_path")
    for metric in ("attestations_per_sec", "macs_per_sec"):
        if metric not in baseline or metric not in fresh:
            continue
        b, f = baseline[metric], fresh[metric]
        if b_path != f_path:
            print(
                f"{metric}: not gated: baseline ran on mac_path {b_path!r}, "
                f"this run on {f_path!r} (baseline {b:.0f}/s, fresh {f:.0f}/s)"
            )
            continue
        ratio = f / b
        print(f"{metric}[{f_path}]: baseline {b:.0f}/s, fresh {f:.0f}/s ({ratio:.2f}x)")
        if ratio < TOLERANCE:
            failed.append(metric)

    if failed:
        sys.exit(
            f"device throughput regressed more than "
            f"{round((1 - TOLERANCE) * 100)}% at {failed} vs the checked-in "
            "BENCH_device.json"
        )


if __name__ == "__main__":
    main()
