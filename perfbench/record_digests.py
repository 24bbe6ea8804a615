"""Record the simulated-output digest of workloads for given seeds.

A run whose digest differs from the recorded one for its seeds is not
correct, so a change that alters simulated results on purpose re-records
them here::

    python3 perfbench/record_digests.py fig7_grid 0 1009
    python3 perfbench/record_digests.py fuzz_chaos 0 1009

Each seed sets every seed of the workload (for fuzz_chaos: the generator
and the fuzz seed).  One untimed pass per seed.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from run import seed_key  # noqa: E402
from workloads import WORKLOADS, Seeds  # noqa: E402


def main(argv):
    name, seeds = argv[0], [int(seed) for seed in argv[1:]]
    workload = WORKLOADS[name]
    path = HERE / "digests.json"
    recorded = json.loads(path.read_text(encoding="utf-8"))
    for seed in seeds:
        chosen = Seeds(seed=seed, generator_seed=seed, fuzz_seed=seed)
        digest = workload.run_pass(workload.setup(chosen)).digest
        recorded.setdefault(name, {})[seed_key(name, chosen)] = digest
        print(name, seed_key(name, chosen), digest, flush=True)
        path.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
