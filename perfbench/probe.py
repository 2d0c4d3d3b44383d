"""Set-up probe: a fresh interpreter loads the program and warms it up.

Usage: python3 perfbench/probe.py <workload>

Prints "ready" once the workload's imports are done and the first call of
each layer it uses has returned; the benchmark times a probe from its start
to that line.
"""

import contextlib
import io
import math
import sys


def main(workload: str) -> None:
    if workload == "cli":
        import rydant.cli

        with contextlib.redirect_stdout(io.StringIO()):
            code = rydant.cli.main(["eigen", "--rabi-mhz", "10", "--detuning-mhz", "2"])
        if code != 0:
            raise SystemExit(f"warm-up exited {code}")
    else:
        import numpy as np

        import rydant
        from rydant import AngularMomentum, CellGeometry, RfDrive, SweepPlan, TransitionSystem

        mhz = 2.0 * math.pi * 1e6
        plan = SweepPlan(
            plane="XY",
            angles=np.radians([10.5, 40.5]),
            drive=RfDrive(10.0 * mhz, 2.0 * mhz),
            system=TransitionSystem(AngularMomentum(1), AngularMomentum(3), mhz),
            readout="eigen" if workload == "eigen-sweep" else "spectrum",
            cell=CellGeometry(2e-3, 20e-3),
            cell_frequency=129.6e9,
            scan_points=101,
        )
        rydant.run_sweep(plan)
    print("ready", flush=True)


if __name__ == "__main__":
    main(sys.argv[1])
