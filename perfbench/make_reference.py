"""Rewrite reference.json: the outputs of one round of every workload at
the reference seed and default sizes.

    python3 perfbench/make_reference.py

Only a change that is meant to alter the library's numerical outputs
should rerun this, and it should say so.
"""

import json

import run


def main() -> None:
    run.bootstrap()
    from workloads import WORKLOADS

    reference = {}
    for name, cls in WORKLOADS.items():
        workload = cls(run.REFERENCE_SEED, cls.Sizes())
        workload.setup()
        tally = run.timed_rounds(workload, 1)
        if tally.n_failed or tally.problems:
            raise SystemExit(f"{name}: outputs fail their checks: {tally.problems}")
        reference[name] = tally.values
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
