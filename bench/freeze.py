"""Regenerate the frozen fixtures in bench/expected/ from glitchbench.

    python3 bench/freeze.py            # from the root of the repository

The fixtures are the correctness gate of every later benchmark run, so
regenerate them only from code whose outputs are known good; the checked-in
files come from the initial reproduction. Takes about four minutes: it runs
the bnn sweep once for each of the 32 stimuli.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from glitchbench import pipeline, workloads  # noqa: E402

import suite  # noqa: E402

# sweep_bnn's cycle: the one in which the 8th popcount return (the second
# popcount of hidden neuron 3) sits in WB; cycle 1600 for stimulus 0, next
# to the weight loads that C3's decode attack hits
ANCHOR_RETURN = 7


def anchor_cycle(program) -> int:
    ret_pc = program.symbols["pc_loop"] + 16
    run = pipeline.run_pipeline(program, record_trace=True)
    hits = [e.cycle for e in run.trace
            if e.occupancy["WB"] and e.occupancy["WB"][0] == ret_pc]
    return hits[ANCHOR_RETURN]


def main() -> int:
    out = {}

    micro = suite.WORKLOADS["sweep_micro"]
    st = micro.build({})
    _t, _n, res = micro.body(st)
    out["sweep_micro"] = {"golden_cycles": st.golden.cycles,
                          "points": len(res.records),
                          "report_sha256": res.digest, "first_digest": 0}
    micro_digests = [suite.record_digest(r) for r in res.records]

    bnn = suite.WORKLOADS["sweep_bnn"]
    stimuli = []
    bnn_digests = []
    for s in range(suite.N_STIMULI):
        cycle = anchor_cycle(workloads.workload_program("bnn", input_index=s))
        st = bnn.build(s, cycle, {})
        _t, _n, res = bnn.body(st)
        stimuli.append({"stimulus": s, "cycle": cycle,
                        "golden_cycles": st.golden.cycles,
                        "report_sha256": res.digest,
                        "first_digest": len(bnn_digests)})
        bnn_digests += [suite.record_digest(r) for r in res.records]
        print(f"bnn stimulus {s}: cycle {cycle}", file=sys.stderr)
    out["sweep_bnn"] = {"anchor_return": ANCHOR_RETURN, "stimuli": stimuli}

    ratw = suite.WORKLOADS["rat_verify"]
    _t, _n, res = ratw.body(ratw.build({}))
    out["rat_verify"] = {**ratw.counts(res), "report_sha256": res.digest}
    rat_digests = [suite.window_digest(c) for per in res.checks for c in per]

    os.makedirs(suite.EXPECTED_DIR, exist_ok=True)
    for name, digests in (("sweep_micro.digests", micro_digests),
                          ("sweep_bnn.digests", bnn_digests),
                          ("rat_verify.digests", rat_digests)):
        with open(os.path.join(suite.EXPECTED_DIR, name), "w",
                  encoding="utf-8") as fh:
            fh.write("\n".join(digests) + "\n")
    with open(os.path.join(suite.EXPECTED_DIR, "expected.json"), "w",
              encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
