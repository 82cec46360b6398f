"""Rewrite pins.json: for each workload and each seed of run.PIN_SEEDS, the
sha256 of every exact-engine output that passes the reference checks.
run.py then counts a byte change in any pinned output as a failure, and so
is a missing pin on one of those seeds.

    python3 perfbench/pin.py

Run it only when an output change is intended, and say why in the change.
Pins are keyed by a hash of the input text, so inputs shared by several
seeds (README examples, the fixed part of the Seidenberg corpus) are
pinned once.
"""

from __future__ import annotations

import argparse
import json
import sys

import checks
import run


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    pins: dict[str, dict[str, str]] = {}
    for workload in checks.PINNED_WORKLOADS:
        table = pins.setdefault(workload, {})
        for seed in run.PIN_SEEDS:
            m = run.run_child(workload, seed, "measure", "--seconds", "0")
            facts = run.item_facts(workload, seed, m["outputs"])
            oracle = checks.EigenOracle()
            for item, out in zip(facts, m["outputs"]):
                if item.get("defect") or not checks.pinned_output(workload, item):
                    continue
                if checks.check_output(workload, item, out, oracle)[0] != checks.OK:
                    continue
                key, value = checks.pin_key(item["key"]), checks.pin_value(out["out"])
                if table.setdefault(key, value) != value:
                    sys.stderr.write("error: one input gave two outputs: %s\n" % item["key"])
                    return 1
            sys.stderr.write("%s seed %d: %d pins\n" % (workload, seed, len(table)))
    run.PINS.write_text(json.dumps(pins, sort_keys=True, indent=0) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
