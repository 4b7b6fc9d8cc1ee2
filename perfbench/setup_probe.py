"""One benchmark set-up in a fresh interpreter; prints its time in seconds.

    python3 perfbench/setup_probe.py <workload> <seed> <size> <work dir>

``run.py`` runs this several times, each followed by a reference import,
and derives ``setup_s`` from the ratios of the two times.
The clock starts before anything outside the standard library is imported,
so the time covers importing phasebound together with numpy and scipy,
writing pass 0 of the workload's scenarios and one warm-up call of
``run_scenario``.  Interpreter start-up is not included.
"""

import json
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv):
    workload, seed, size, work = argv[0], int(argv[1]), argv[2], Path(argv[3])
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    start = perf_counter()
    from phasebound import cli

    if Path(cli.__file__).resolve().parents[1] != SRC.resolve():
        raise ImportError(f"phasebound imported from {cli.__file__}, not from {SRC}")
    import scenarios

    (work / "scenarios").mkdir(parents=True, exist_ok=True)
    scenarios.write_pass(workload, seed, 0, size, work / "scenarios")
    warm = work / "scenarios" / "warmup.json"
    warm.write_text(json.dumps(scenarios.warmup_scenario()))
    cli.run_scenario(str(warm), out_dir=str(work / "warmup"))
    print(perf_counter() - start)


if __name__ == "__main__":
    main(sys.argv[1:])
