"""Print the set-up time of a fresh process, in seconds.

    PYTHONPATH=src python3 bench/setup_child.py '<SessionConfig JSON>' <seed>

Times importing gradmarket, setting up the commitment key at the config's
gradient length m, and building the synthetic world: what every
`gradmarket run` pays before its first protocol step. Interpreter start-up
is not included. Prints the wall-clock seconds, then the seconds at nominal
speed (speed.py).
"""

import json
import sys
import time

from speed import SpeedProbe

with SpeedProbe() as probe:
    t0 = time.perf_counter()
    from gradmarket import commit, sim
    from workloads import flat_length

    config = sim.SessionConfig.from_dict(json.loads(sys.argv[1]))
    seed = int(sys.argv[2])
    commit.setup_key(flat_length(config), sim.rng_stream(seed, "contract.setup"))
    sim.build_world(config, seed)
    elapsed = time.perf_counter() - t0
print(elapsed, elapsed * probe.mean_speed(0))
