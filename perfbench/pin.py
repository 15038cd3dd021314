"""Re-pin the reference digests in ``pins.json``.

At the default seed ``run.py`` checks the ladder_small results and the
stalls_tiny attribution profiles against these digests (grid cells and
the observed stalls results are checked against ``tests/golden``).  Re-pin
only after a change that is meant to alter simulated results::

    python3 perfbench/pin.py
"""

import json
import sys

import run as bench


def main() -> int:
    sys.path.insert(0, str(bench.SRC))
    from repro.runner.jobs import DEFAULT_SEED
    run = bench.Run("pin", DEFAULT_SEED, default_seed=None, metered=False)
    try:
        ladder = run.spawn("ladder",
                           results=str(run.work / "ladder-results.json"))
        stalls = run.spawn("stalls", json=str(run.work / "stalls.json"))
    finally:
        run.close()
    if stalls["rc"] != 0:
        print("pin: repro stalls failed its audits; nothing pinned",
              file=sys.stderr)
        return 1
    pins = {"ladder_small": {c["label"]: c["digest"]
                             for c in ladder["cells"]},
            "stalls_tiny": {c["label"]: c["profile_digest"]
                            for c in stalls["cells"]}}
    bench.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"pin: wrote {bench.PINS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
