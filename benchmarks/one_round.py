"""One untraced round in a fresh interpreter.

    python3 benchmarks/one_round.py <workload> <master seed>

Times the set-up (importing rwre and building the law and the config)
and the experiment call, and the calibration kernel right after the
set-up and right after the call.  Writes to standard output a pickle of
{"setup_s", "wall_s", "unscaled_setup_s", "unscaled_wall_s", "kernel_s",
"peak_rss_kb", "report"}: ``setup_s`` is the set-up time scaled by
REFERENCE_S over the kernel time measured after it, ``wall_s`` the call's
time scaled by REFERENCE_S over the mean of the two kernel times around
it (see calibrate.py).  run.py starts one per round, so every figure is
that of a process running one experiment.
"""

import pickle
import resource
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, build

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    workload = WORKLOADS[sys.argv[1]]
    start = time.perf_counter()
    fn, config, kwargs = build(workload, int(sys.argv[2]))
    setup_s = time.perf_counter() - start
    import calibrate        # after the set-up, which imports numpy and scipy itself
    kernel_before_s = calibrate.kernel_s()
    start = time.perf_counter()
    report = fn(config, **kwargs)
    wall_s = time.perf_counter() - start
    kernel_after_s = calibrate.kernel_s()
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kernel_s = (kernel_before_s + kernel_after_s) / 2
    sys.stdout.buffer.write(pickle.dumps({
        "setup_s": setup_s * calibrate.REFERENCE_S / kernel_before_s,
        "wall_s": wall_s * calibrate.REFERENCE_S / kernel_s,
        "unscaled_setup_s": setup_s, "unscaled_wall_s": wall_s, "kernel_s": kernel_s,
        "peak_rss_kb": peak_rss_kb, "report": report}))
