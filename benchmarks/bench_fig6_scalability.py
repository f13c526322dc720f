"""Figure 6 — scalability: per-step decision time vs fleet size.

Paper: m, n swept over {100..800}; THR-MMT's per-step time grows steeply
with the fleet while Megh's rises only gently, making Megh the better
real-time decision maker at scale.  The bench runs the paper's own grid
(m = 100 to 800 PMs, n about 1.3 m VMs) for 100 steps; the assertion is
on *growth factors*: THR-MMT's time must grow by a larger factor than
Megh's across the grid, with Megh strictly faster at the largest size.
Both hold under the compiled kernel and under ``REPRO_KERNEL=off``.
"""

from benchmarks.conftest import run_once
from repro.harness.experiments import run_scalability_grid

SIZES = ((100, 130), (200, 263), (400, 526), (800, 1052))


def test_fig6_scalability(benchmark, emit, engine):
    points = run_once(
        benchmark,
        lambda: run_scalability_grid(
            sizes=SIZES, num_steps=100, engine=engine
        ),
    )
    by_algorithm = {}
    for point in points:
        by_algorithm.setdefault(point.algorithm, []).append(point)
    lines = ["Figure 6 (paper grid): per-step execution time vs (m, n)"]
    for name, series in by_algorithm.items():
        for point in series:
            lines.append(
                f"{name:8s} m={point.num_pms:4d} n={point.num_vms:4d} "
                f"{point.mean_step_ms:9.3f} ms"
            )
    emit("\n".join(lines))

    thr = sorted(by_algorithm["THR-MMT"], key=lambda p: p.num_pms)
    megh = sorted(by_algorithm["Megh"], key=lambda p: p.num_pms)
    thr_growth = thr[-1].mean_step_ms / max(thr[0].mean_step_ms, 1e-9)
    megh_growth = megh[-1].mean_step_ms / max(megh[0].mean_step_ms, 1e-9)

    assert thr_growth > megh_growth, (
        "THR-MMT's per-step time must grow faster across the grid "
        f"(THR x{thr_growth:.1f} vs Megh x{megh_growth:.1f})"
    )
    assert megh[-1].mean_step_ms < thr[-1].mean_step_ms, (
        "at the largest fleet Megh must decide faster than THR-MMT"
    )
