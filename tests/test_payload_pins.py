"""Byte-identity pins: one small config per experiment kind (several for the
kinds that evaluate a multiplicative function on G_n), with the sha256 of
the CSV payload `run_experiment` streams.

The hashes were recorded before the sieve-built function arrays replaced the
per-element factor loop, so every evaluation path that reads those arrays
(decay-table, gowers-decay, ap-decay, katai-check) is held to the payload
the factor loop produced, byte for byte.  The tk-check pins over F_3 and F_4
(with window primes of degree >= n.start) and the distance-growth pin over
F_4 were recorded before the product kernel became an F_p-linear map on
base-p digits, so they hold the r > 1 basis images and the prefix counts to
the payload of the table-lookup kernel.  The gowers-decay pin with a twist
over F_3 and the ap-decay pin with a Dirichlet character over F_5 were
recorded while those runners still sampled the function afresh for every n,
element by element, so they hold the G_{n_stop} prefixes to that payload.
The two distance-growth pins with a Dirichlet target (one with a unit
character and a random unit-circle function over F_3, one with a conjugate
twist and float theta over F_2) and the decay-table pin with a unit
character over F_5 were recorded while every Hayes value was still made
polynomial by polynomial with Fraction turns, so they hold the Hayes
arrays read from exponent tables to that payload.
The three pins over F_8 (distance-growth and decay-table with Moebius, and
tk-check) were recorded while the product and residue maps still summed
float digit images in characteristic 2 and the sieve boxed every
irreducible, so they hold the XOR form of those maps with r > 1, and the
built-ins read one value per degree, to that payload.
The tk-check and distance-growth pins over F_9 and the decay-table pin over
F_7 were recorded while the product, residue and linear-form maps of odd
characteristic still summed float digit images, so they hold the packed
integer lanes of those maps, with r > 1 and p > 5, to that payload.
The bias-rank-f3 pin was re-recorded when the exhaustive bias became a
count of vanishing prefixes rounded once: its r = 2 row printed the root
sum's 0.11111111111111105 and 2.0000000000000004 for 1/9 and 2, and
tests/test_exactness.py asserts every column of it against its exact value.
"""

import hashlib
import io

import pytest

from ffmult import gn
from ffmult.experiments import run_experiment

_PHASE2 = {"terms": [{"coef": 1, "factors": [[1, 0, 1, 1, 0, 0, 1, 1, 1, 0],
                                             [0, 1, 1, 0, 1, 0, 1, 1, 0, 1]]}]}
_PHASE3 = {"terms": [{"coef": 2, "factors": [[1, 2, 0, 1, 1, 2, 0]]}],
           "monomials": [{"coef": 1, "powers": [[0, 2], [1, 1]]}]}
_PHASE4 = {"terms": [{"coef": 3, "factors": [[1, 2, 3, 0, 1], [2, 0, 1, 3, 1]]}]}
_PHASE5 = {"terms": [{"coef": 1, "factors": [[1, 3, 0, 4, 2], [2, 0, 4, 1, 3]]}]}

PINS = {
    "decay-moebius-f2": (
        {"kind": "decay-table", "field": {"p": 2, "r": 1}, "n": {"start": 4, "stop": 10},
         "function": {"kind": "builtin", "name": "moebius"}, "phase": _PHASE2},
        "ae66e5337638f072bc908e3c57c4940cf4b5e9f7cf85b217a432bea3f38cc713"),
    "decay-liouville-f3-nonzero": (
        {"kind": "decay-table", "field": {"p": 3, "r": 1}, "n": {"start": 2, "stop": 7},
         "domain": "nonzero",
         "function": {"kind": "builtin", "name": "liouville"}, "phase": _PHASE3},
        "c4701fef8588e020ab11b4d557aad355831295e30c2841355bc8258f6aebc059"),
    "decay-random-unit-f4-monic": (
        {"kind": "decay-table", "field": {"p": 2, "r": 2}, "n": {"start": 2, "stop": 5},
         "domain": "monic", "seed": 11,
         "function": {"kind": "random", "values": "unit"}, "phase": _PHASE4},
        "4b1d810655fef5dbaec97935933e79f3addd32a6420d46d218ee4ad2b272bab7"),
    "decay-twist-f2": (
        {"kind": "decay-table", "field": {"p": 2, "r": 1}, "n": {"start": 3, "stop": 7},
         "function": {"kind": "twist", "base": {"kind": "builtin", "name": "moebius"},
                      "hayes": {"theta": "1/3", "short": {"s": 2, "index": 1}}},
         "phase": _PHASE2},
        "fbfa9a76503889cc1912e156edd2bdde1c5cf4dbe4e69d39ff35aa7e5c9152f2"),
    "decay-character-f3": (
        {"kind": "decay-table", "field": {"p": 3, "r": 1}, "n": {"start": 2, "stop": 5},
         "function": {"kind": "character",
                      "hayes": {"dirichlet": {"modulus": [1, 0, 1], "index": 3}}},
         "phase": _PHASE3},
        "fc56cdae3c8020cf8108a0cd54b9c152f4599345c7b06cf53ddbf53106a5b0ab"),
    "distance-moebius-f3": (
        {"kind": "distance-growth", "field": {"p": 3, "r": 1}, "n": {"start": 1, "stop": 7},
         "function": {"kind": "builtin", "name": "moebius"},
         "hayes": {"theta": "1/4"}},
        "2371c23da7e96d5b6ab8bbfe7308c6d3c1be2b3a6b9a715401726e3e0a6bbca7"),
    "gowers-u2-liouville-f2": (
        {"kind": "gowers-decay", "field": {"p": 2, "r": 1}, "n": {"start": 3, "stop": 6},
         "function": {"kind": "builtin", "name": "liouville"}, "gowers": {"k": 2}},
        "e7c958d408137895923873cfb849bb3f9ab89f3977a76fda9945268fa7f67cbf"),
    "gowers-u2-random-unit-f4": (
        {"kind": "gowers-decay", "field": {"p": 2, "r": 2}, "n": {"start": 1, "stop": 3},
         "seed": 2, "function": {"kind": "random", "values": "unit"}, "gowers": {"k": 2}},
        "b0564c39bd152b11bdbb52aa3f8716aeeffdcb65d4248744635a1ad3050664b4"),
    "gowers-u3-random-f3": (
        {"kind": "gowers-decay", "field": {"p": 3, "r": 1}, "n": {"start": 1, "stop": 2},
         "seed": 5, "function": {"kind": "random", "values": "pm1"}, "gowers": {"k": 3}},
        "9b3c6a0b8c6ec37eaeb0ee99067c9b68a8b7236606eef83d37d2bac14e5f7ed1"),
    "gowers-u3-twist-f3": (
        {"kind": "gowers-decay", "field": {"p": 3, "r": 1}, "n": {"start": 1, "stop": 3},
         "function": {"kind": "twist", "base": {"kind": "builtin", "name": "moebius"},
                      "hayes": {"theta": "1/4", "short": {"s": 1, "index": 1}}},
         "gowers": {"k": 3}},
        "96f666ac696e98e69c312910a4bbfef874e5683c37b625524d9e4ab730a6e979"),
    "ap-character-f5": (
        {"kind": "ap-decay", "field": {"p": 5, "r": 1}, "n": {"start": 1, "stop": 3},
         "function": {"kind": "character",
                      "hayes": {"dirichlet": {"modulus": [2, 0, 1], "index": 5}}},
         "ap": {"k": 3}},
        "4e53b536f570b7e014e36f57f70b0536b2cde4d4721ac54a3aca09f0f24e0156"),
    "ap-moebius-f5": (
        {"kind": "ap-decay", "field": {"p": 5, "r": 1}, "n": {"start": 1, "stop": 2},
         "function": {"kind": "builtin", "name": "moebius"}, "ap": {"k": 3}},
        "9dc88e65ccdf6aedb465d1641bf39136f783e8bad7fa1db31e7134768d434b3b"),
    "ap-random-unit-f3": (
        {"kind": "ap-decay", "field": {"p": 3, "r": 1}, "n": {"start": 1, "stop": 3},
         "seed": 8, "function": {"kind": "random", "values": "unit"}, "ap": {"k": 2}},
        "d37a8777f7e05fe9af9c99ef28878b59b5ef305f8ada0553351ab95ba70cbea9"),
    "katai-random-f2": (
        {"kind": "katai-check", "field": {"p": 2, "r": 1}, "n": {"start": 6, "stop": 9},
         "seed": 3, "function": {"kind": "random", "values": "pm1"}, "katai": {"k": 3}},
        "fc48915832667130ab8f2007b76e15a5f6ddb1024dde633d2b4563052debf128"),
    "katai-moebius-f3-per-pair": (
        {"kind": "katai-check", "field": {"p": 3, "r": 1}, "n": {"start": 3, "stop": 5},
         "function": {"kind": "builtin", "name": "moebius"},
         "katai": {"k": 1, "per_pair": True}},
        "9e7c8dd95bf336340a612f4f21df5b46ec7957b3e8c56c1b80dc3fca73c35fe7"),
    "katai-liouville-f2-gk": (
        {"kind": "katai-check", "field": {"p": 2, "r": 1}, "n": {"start": 4, "stop": 6},
         "function": {"kind": "builtin", "name": "liouville"},
         "katai": {"k": 2, "pair_set": "G_{k+1}"}},
        "b1b4e3ad68b896c51956c4bd6f6cc76e77941257d4a05d31d6e58067b7957a2c"),
    "katai-twist-f2": (
        {"kind": "katai-check", "field": {"p": 2, "r": 1}, "n": {"start": 5, "stop": 6},
         "function": {"kind": "twist", "base": {"kind": "builtin", "name": "liouville"},
                      "hayes": {"theta": 0.3}, "conjugate": True},
         "katai": {"k": 2}},
        "6c09ae72947e740d2985ca391fb35998675b1ccd603f946209447387e3b76fe4"),
    "tk-f2": (
        {"kind": "tk-check", "field": {"p": 2, "r": 1}, "n": {"start": 6, "stop": 9},
         "tk": {"W": 1, "H": 5}},
        "2ece1620e04ca81535be982da0dd3d5650810ed190f75c9001773e3bc26b47d4"),
    "tk-f3-window-above-n": (
        {"kind": "tk-check", "field": {"p": 3, "r": 1}, "n": {"start": 4, "stop": 7},
         "tk": {"W": 1, "H": 7}},
        "68f478a652a42364a7aa81d906c676790330b1b71814928a2ebd6dbe57c9825e"),
    "tk-f4": (
        {"kind": "tk-check", "field": {"p": 2, "r": 2}, "n": {"start": 3, "stop": 6},
         "tk": {"W": 1, "H": 6}},
        "103c6a29895557d8e3494365e37ee9ff36df2b454a956c004d4fed4ae31fcdaa"),
    "distance-random-unit-dirichlet-unit-f3": (
        {"kind": "distance-growth", "field": {"p": 3, "r": 1}, "n": {"start": 1, "stop": 7},
         "seed": 4, "function": {"kind": "random", "values": "unit"},
         "hayes": {"dirichlet": {"modulus": [1, 0, 1], "index": 5}, "unit_index": 1}},
        "afa1c2b45611612c72b4bb02c3ce9949dfeb5291c5bbaef0d052590dbe905167"),
    "distance-conjugate-twist-f2": (
        {"kind": "distance-growth", "field": {"p": 2, "r": 1}, "n": {"start": 2, "stop": 10},
         "function": {"kind": "twist", "base": {"kind": "builtin", "name": "moebius"},
                      "hayes": {"theta": 0.3, "short": {"s": 2, "index": 3}},
                      "conjugate": True},
         "hayes": {"theta": 0.7, "dirichlet": {"modulus": [1, 1, 1], "index": 2}}},
        "fc1c7d3a722803fa278a5cefd38a49d4cd24f40d4247e3dbcb82344458a923ac"),
    "decay-unit-character-f5": (
        {"kind": "decay-table", "field": {"p": 5, "r": 1}, "n": {"start": 1, "stop": 4},
         "function": {"kind": "character",
                      "hayes": {"unit_index": 1, "short": {"s": 1, "index": 2},
                                "theta": "1/4"}},
         "phase": _PHASE5},
        "344bb1bb8d17d59a3f9fb1b85e72ab7ef0a716192c9cbaf06881b40a873b4278"),
    "distance-moebius-f4": (
        {"kind": "distance-growth", "field": {"p": 2, "r": 2}, "n": {"start": 1, "stop": 8},
         "function": {"kind": "builtin", "name": "moebius"},
         "hayes": {"theta": "1/3", "short": {"s": 1, "index": 1}}},
        "5c0950cd467caa98199d887cff189f57d049c0acb67203f3e9c794c66e5b98c8"),
    "distance-moebius-f8": (
        {"kind": "distance-growth", "field": {"p": 2, "r": 3}, "n": {"start": 1, "stop": 6},
         "function": {"kind": "builtin", "name": "moebius"},
         "hayes": {"theta": "1/3", "dirichlet": {"modulus": [3, 0, 1], "index": 5},
                   "short": {"s": 1, "index": 2}}},
        "253cf2492aec82944703c3e6f08aa521922c262f73d9cb940795a146ff295f80"),
    "tk-f8": (
        {"kind": "tk-check", "field": {"p": 2, "r": 3}, "n": {"start": 3, "stop": 5},
         "tk": {"W": 1, "H": 4}},
        "2c5fbd3024ad080d9526ed692c4920fe0655fd10c177b99c2fd196ec2490893b"),
    "decay-moebius-f8": (
        {"kind": "decay-table", "field": {"p": 2, "r": 3}, "n": {"start": 1, "stop": 5},
         "function": {"kind": "builtin", "name": "moebius"},
         "phase": {"terms": [{"coef": 5, "factors": [[1, 2, 7, 0, 3], [6, 0, 1, 3, 4]]}]}},
        "a2bd00b7ab6ff1ebcdb5aab663a8384c05693c54c732d673ca12fcb25c77b987"),
    "tk-f9": (
        {"kind": "tk-check", "field": {"p": 3, "r": 2}, "n": {"start": 2, "stop": 4},
         "tk": {"W": 1, "H": 4}},
        "8dee2537de708c10975e2c59fc3b1967d1eb53226992ad4395ba1f12b5fab31f"),
    "distance-moebius-f9": (
        {"kind": "distance-growth", "field": {"p": 3, "r": 2}, "n": {"start": 1, "stop": 4},
         "function": {"kind": "builtin", "name": "moebius"},
         "hayes": {"theta": "1/3", "dirichlet": {"modulus": [4, 0, 1], "index": 5},
                   "short": {"s": 1, "index": 2}}},
        "7af828e6635e1071215fa1a815039cc852d7cd45d9e19c80428e521edb616c15"),
    "decay-liouville-f7": (
        {"kind": "decay-table", "field": {"p": 7, "r": 1}, "n": {"start": 1, "stop": 5},
         "function": {"kind": "builtin", "name": "liouville"},
         "phase": {"terms": [{"coef": 3, "factors": [[1, 6, 2, 0, 5], [4, 0, 3, 6, 1]]}]}},
        "837a5ff01f82a0570d829d583065ef1186bf8d6f293abb94944ff147fd354782"),
    "bias-rank-f3": (
        {"kind": "bias-rank-demo", "field": {"p": 3, "r": 1},
         "bias": {"r_values": [1, 2], "slot_dim": 3, "arity": 2}},
        "9224cf8932f0d1d8b730e2998b3b6e7681528f0c3e7c838431f986cc71f896d4"),
    "zero-count-f2": (
        {"kind": "zero-count-check", "field": {"p": 2, "r": 1}, "seed": 9,
         "zero_count": {"dim": 5, "trials": 6, "max_total_degree": 3}},
        "a9517f9d72a5a32828af535eaf62cf4f6f81c2dbe52d72c6c5192bb60a92a22d"),
}


def payload(cfg) -> bytes:
    buf = io.StringIO()
    run_experiment(cfg, stream=buf)
    return buf.getvalue().encode()


@pytest.mark.parametrize("name", sorted(PINS))
def test_payload_matches_pin(name):
    cfg, pinned = PINS[name]
    assert hashlib.sha256(payload(cfg)).hexdigest() == pinned


def test_pins_cover_every_kind():
    from ffmult.experiments import KINDS
    assert {cfg["kind"] for cfg, _ in PINS.values()} == set(KINDS)


# results do not depend on how the enumeration is partitioned: neither on the
# engine's chunk size nor on the n-range a row is computed in
@pytest.mark.parametrize("chunk", (7, 40))
@pytest.mark.parametrize("name", sorted(PINS))
def test_payload_matches_pin_at_every_chunk_size(name, chunk, monkeypatch):
    monkeypatch.setattr(gn, "CHUNK_ELEMENTS", chunk)
    cfg, pinned = PINS[name]
    assert hashlib.sha256(payload(cfg)).hexdigest() == pinned


def _rows(cfg) -> list:
    return [line for line in payload(cfg).decode().splitlines() if not line.startswith("#")]


@pytest.mark.parametrize("name", sorted(name for name, (cfg, _) in PINS.items() if "n" in cfg))
def test_each_n_run_alone_gives_the_row_of_the_pinned_range(name):
    cfg, _ = PINS[name]
    start, stop = cfg["n"]["start"], cfg["n"]["stop"]
    alone = [row for n in range(start, stop + 1)
             for row in _rows({**cfg, "n": {"start": n, "stop": n}})]
    assert alone == _rows(cfg)
