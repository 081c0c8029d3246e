#!/usr/bin/env python3
"""Check that the host fast paths leave every simulated result bit-identical.

    scripts/json_identity.py BUILD_DIR

Runs each bench leg below from BUILD_DIR/bench twice, with
ARGO_SLOW_PATHS=0 and with ARGO_SLOW_PATHS=1, and compares the JSON rows
each run writes. Only the provenance stamps (commit, date) may differ.
Exits 1 on the first leg whose rows diverge. scripts/check.sh and CI both
run this script, so the leg list lives only here.
"""

import json
import os
import subprocess
import sys

# fig12 is the leg whose MCS grant-flag spins run as scheduler-side poll
# steps (Engine::poll) in fast mode.
LEGS = [
    ["fig09_writebuffer", "--quick"],
    ["fig13a_lu", "--quick", "--pipeline", "16"],
    ["fig12_locks_dsm", "--quick"],
]


def rows(path):
    out = []
    with open(path) as f:
        for r in json.load(f):
            for k in ("commit", "date"):  # provenance may differ, nothing else
                r.pop(k, None)
            out.append(r)
    return out


def run_leg(build, leg, slow):
    out = os.path.join(build, f"identity_{'slow' if slow else 'fast'}.json")
    env = dict(os.environ, ARGO_SLOW_PATHS="1" if slow else "0")
    subprocess.run([os.path.join(build, "bench", leg[0]), *leg[1:],
                    "--json", out],
                   env=env, check=True, stdout=subprocess.DEVNULL)
    return rows(out)


def main(argv):
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    build = argv[1]
    for leg in LEGS:
        print(f"--- {' '.join(leg)} (fast vs ARGO_SLOW_PATHS=1)", flush=True)
        fast = run_leg(build, leg, slow=False)
        slow = run_leg(build, leg, slow=True)
        if fast != slow:
            print("FAIL: fast vs ARGO_SLOW_PATHS=1 JSON rows diverged")
            return 1
        print(f"  OK: {len(fast)} JSON rows bit-identical fast vs slow")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
