"""The four benchmark workloads: pinned ffmult experiment configs.

Each workload is one `ffmult` experiment config.  The benchmark seed only
generates inputs (the decay-table phase tails and the Katai random-function
seed); the program receives the generated config and nothing else.  Standard
library only: the parent process never imports ffmult or numpy.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

DEFAULT_SEED = 1
PINNED_FILE = Path(__file__).with_name("payload_sha256.json")

# why each workload exists; README.md carries the longer version
WHY = {
    "decay-moebius": "per-element factor loop: polys.factor plus the multiplicative memo "
                     "dominate a Moebius correlation with a seeded quadratic phase",
    "katai-random": "Katai double loop over irreducible pairs: Poly products a*g and "
                    "seeded random +-1 lookups",
    "distance-hayes": "bulk irreducible sieve to a high degree plus Hayes character "
                      "evaluation; never enumerates G_n; the memory-heavy workload",
    "tk-f3": "existing numpy index kernels over F_3 in turan_kubilius; no per-element "
             "function evaluation",
}

WORKLOADS = tuple(WHY)

# (n.start, n.stop) for the timed runs; smoke mode runs n.start only
N_RANGE = {
    "decay-moebius": (8, 13),
    "katai-random": (11, 13),
    "distance-hayes": (1, 17),
    "tk-f3": (9, 12),
}

TAIL_DEPTH = 16
KATAI_K = 5
TK_WINDOW = (1, 9)


def _nonzero_tail(rng: random.Random, q: int) -> list:
    while True:
        tail = [rng.randrange(q) for _ in range(TAIL_DEPTH)]
        if any(tail):
            return tail


def make_config(workload: str, seed: int, smoke: bool = False) -> dict:
    """The experiment config a run of `workload` hands to ffmult."""
    if workload not in N_RANGE:
        raise ValueError(f"unknown workload {workload!r}; have {', '.join(WORKLOADS)}")
    start, stop = N_RANGE[workload]
    n = {"start": start, "stop": start if smoke else stop}
    rng = random.Random(seed)
    if workload == "decay-moebius":
        return {"kind": "decay-table", "field": {"p": 2, "r": 1}, "n": n,
                "function": {"kind": "builtin", "name": "moebius"},
                "phase": {"terms": [{"coef": 1, "factors": [_nonzero_tail(rng, 2),
                                                            _nonzero_tail(rng, 2)]}]}}
    if workload == "katai-random":
        return {"kind": "katai-check", "field": {"p": 2, "r": 1},
                "seed": rng.randrange(1 << 31), "n": n,
                "function": {"kind": "random", "values": "pm1"},
                "katai": {"k": KATAI_K}}
    if workload == "distance-hayes":
        return {"kind": "distance-growth", "field": {"p": 2, "r": 1}, "n": n,
                "function": {"kind": "builtin", "name": "moebius"},
                "hayes": {"theta": "1/3"}}
    W, H = TK_WINDOW
    return {"kind": "tk-check", "field": {"p": 3, "r": 1}, "n": n,
            "tk": {"W": W, "H": H}}


def pinned_sha256(workload: str, config: dict) -> str | None:
    """The committed payload hash when `config` is the default-seed config."""
    if config != make_config(workload, DEFAULT_SEED):
        return None
    return json.loads(PINNED_FILE.read_text())[workload]
