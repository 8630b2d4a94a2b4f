"""Re-measure the single-run speed figures quoted in ROADMAP item 1 with this
benchmark's generators and timers.

    python3 perfbench/baselines.py

Each line gives the median and range over three repeats, plus the sizes that
pin down the input.  Timings are wall seconds on one core.
"""

from __future__ import annotations

import dataclasses
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import streamnd as snd  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

REPEATS = 3


def _line(label, times, extra):
    med = statistics.median(times)
    print(f"{label:44s} median {med:8.3f} s  range {min(times):.3f}-{max(times):.3f} s  {extra}")


def spanner(label, workload, **changes):
    wl = WORKLOADS[workload]
    wl = dataclasses.replace(wl, spec=dataclasses.replace(wl.spec, **changes))
    inputs = wl.generate(1)
    runs = [wl.run_pass(inputs) for _ in range(REPEATS)]
    rec = runs[0].ops[0]
    if not rec.ok:
        sys.exit(f"{label}: {rec.error}")
    _line(label, [r.wall_s for r in runs], f"{rec.bound} edges, {rec.stored} kept")


def cap2_setup(n):
    inst = snd.generate(
        snd.InstanceGenerator(seed=1, family=snd.Family.CYCLE_PLUS_CHORDS, n=n, chords=n // 2)
    )
    scheme = snd.BucketScheme(WORKLOADS["cap2"].spec.eps, 8)
    times = []
    for _ in range(REPEATS):
        t0 = perf_counter()
        state = snd.Cap2State.from_base(inst.base, scheme)
        times.append(perf_counter() - t0)
    _line(
        f"Cap2State.from_base, cycle+{n // 2} chords, n={n}",
        times,
        f"{len(inst.base.edges)} base edges, {len(state.tree.nodes)} SPQR nodes",
    )


def main():
    spanner("spanner vft exact, G(64, 0.3), f=1", "spanner-vft", n=64, f=1)
    spanner("spanner vft exact, G(256, 0.3), f=1", "spanner-vft", n=256, f=1)
    spanner("spanner vft exact, G(256, 0.3), f=2", "spanner-vft", n=256, f=2)
    spanner("spanner vft exact, G(256, 0.3), f=3", "spanner-vft", n=256, f=3)
    spanner("spanner eft peeling, G(256, 0.3), f=4", "spanner-eft")
    cap2_setup(24)
    cap2_setup(48)


if __name__ == "__main__":
    main()
