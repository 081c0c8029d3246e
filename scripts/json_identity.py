#!/usr/bin/env python3
"""Check that the host fast paths leave every simulated result bit-identical.

    scripts/json_identity.py BUILD_DIR

Runs each bench leg below from BUILD_DIR/bench twice, with
ARGO_SLOW_PATHS=0 and with ARGO_SLOW_PATHS=1, and compares the JSON rows
each run writes. Only the provenance stamps (commit, date) may differ.
A leg may set extra environment variables and name the "engine" stamp
every row must carry. Exits 1 on the first leg whose rows diverge or
carry another engine stamp. scripts/check.sh and CI both run this
script, so the leg list lives only here.
"""

import json
import os
import subprocess
import sys

# fig12 is the leg whose MCS grant-flag spins run as scheduler-side poll
# steps (Engine::poll) in fast mode; it runs on the legacy engine and on
# two sharded workers. The sharded leg requires "engine": "par" on every
# row and no "sharded engine unavailable" notice on stderr, so a run that
# fell back to one sequential engine cannot pass it.
LEGS = [
    {"cmd": ["fig09_writebuffer", "--quick"]},
    {"cmd": ["fig13a_lu", "--quick", "--pipeline", "16"]},
    {"cmd": ["fig12_locks_dsm", "--quick"]},
    {"cmd": ["fig12_locks_dsm", "--quick"], "env": {"ARGO_THREADS": "2"},
     "engine": "par"},
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
    env = dict(os.environ, **leg.get("env", {}),
               ARGO_SLOW_PATHS="1" if slow else "0")
    cmd = leg["cmd"]
    p = subprocess.run([os.path.join(build, "bench", cmd[0]), *cmd[1:],
                        "--json", out],
                       env=env, check=True, stdout=subprocess.DEVNULL,
                       stderr=subprocess.PIPE, text=True)
    sys.stderr.write(p.stderr)
    return rows(out), p.stderr


def main(argv):
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    build = argv[1]
    for leg in LEGS:
        env = " ".join(f"{k}={v}" for k, v in leg.get("env", {}).items())
        print(f"--- {env + ' ' if env else ''}{' '.join(leg['cmd'])} "
              "(fast vs ARGO_SLOW_PATHS=1)", flush=True)
        fast, fast_err = run_leg(build, leg, slow=False)
        slow, slow_err = run_leg(build, leg, slow=True)
        if fast != slow:
            print("FAIL: fast vs ARGO_SLOW_PATHS=1 JSON rows diverged")
            return 1
        want = leg.get("engine")
        if want and any(r.get("engine") != want for r in fast):
            print(f'FAIL: a row does not report "engine": "{want}"')
            return 1
        if want == "par" and "sharded engine unavailable" in fast_err + slow_err:
            print("FAIL: a cluster fell back to the legacy engine")
            return 1
        print(f"  OK: {len(fast)} JSON rows bit-identical fast vs slow")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
