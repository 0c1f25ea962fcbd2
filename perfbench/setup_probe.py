"""Build a workload's dataset the way the CLI does, through the package's
public functions, and print the monotonic clock once repeat 0's shards exist.

    python3 perfbench/setup_probe.py CONFIG_JSON REPEAT0_SEED

The caller reads the clock before spawning this process, so the difference
is the set-up time from interpreter start: ``import fedpower``, then
``synth`` or ``parse_libsvm`` + ``scale_features``, then ``partition``.
"""

import json
import sys
import time

import fedpower


def main(config_path: str, seed: int) -> None:
    with open(config_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    source = doc["dataset"]
    if "synthetic" in source:
        spec = source["synthetic"]
        matrix = fedpower.synth(
            fedpower.SyntheticSpec(spec["n"], spec["d"], tuple(spec["singular_values"]), spec["seed"])
        )
    else:
        matrix, _labels = fedpower.parse_libsvm(source["libsvm"])
        matrix = fedpower.scale_features(matrix)
    dataset = fedpower.partition(matrix, doc["m"], mode="shuffled", seed=seed)
    done = time.monotonic()
    print(json.dumps({"done": done, "sizes": list(dataset.sizes)}))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
