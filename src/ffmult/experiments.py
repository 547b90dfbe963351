"""Config-driven experiment runner: reproducible decay/growth tables.

Configs are JSON objects with nested sections; unknown keys anywhere are
errors (no silent typo tolerance), every violation is reported at once,
and a seed is mandatory as soon as any randomized object is referenced.
`_SECTIONS` declares each section's keys and defaults once; the checks,
the budget estimate and the runners all read the sections validate_config
fills in, so the estimate reads exactly the values the run reads.  The
same config and seed always produce a byte-identical numeric payload;
output files carry no timestamps.

CSV layout is fixed per experiment kind and versioned in a header comment,
one row per n, flushed as soon as it is computed so long runs can be
resumed by splitting the n-range.
"""

from __future__ import annotations

import copy
import json
import math
import random
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

import numpy as np

from . import analytics
from .characters import (DegreeTwist, HayesCharacter, UnitCharacter, dirichlet_character,
                         short_interval_character)
from .errors import ConfigError
from .fields import DEFAULT_BUDGET, MAX_Q, Field, build_field, is_prime, within_table_limit
from .laurent import LaurentTruncation
from .multiplicative import _BUILTINS, builtin, from_character, random_on_irreducibles, twist
from .phases import MultilinearForm, PolynomialPhase, bias_cost, projective_common_zeros
from .polys import Poly, factor, sieve_through

KINDS = ("decay-table", "distance-growth", "gowers-decay", "ap-decay",
         "katai-check", "tk-check", "bias-rank-demo", "zero-count-check")

SCHEMA_VERSION = "v1"

COLUMNS = {
    "decay-table": ("n", "abs_mean", "re", "im", "count"),
    "distance-growth": ("N", "distance"),
    "gowers-decay": ("n", "norm"),
    "ap-decay": ("n", "abs_mean", "gowers_bound", "satisfied"),
    "katai-check": ("n", "statistic"),
    "tk-check": ("n", "A", "lhs", "ratio"),
    "bias-rank-demo": ("r", "bias", "analytic_rank", "bound", "meets_bound"),
    "zero-count-check": ("trial", "count", "projective_size", "bound",
                         "passes", "total_degree", "forms"),
}

# every section's keys.  A value section maps each key to the default that
# validate_config fills in, or to None: required, or its absence defers
# (n.stop to n.start, output.path to stdout).  A descriptor section is a set
# of keys; its resolver holds its defaults (values, conjugate, index), and
# function.seed defers to the config seed.
_SECTIONS = {
    "field": {"p": None, "r": 1},
    "n": {"start": None, "stop": None},
    "budget": {"max_evals_per_n": DEFAULT_BUDGET},
    "function": {"kind", "name", "seed", "values", "hayes", "base", "conjugate"},
    "phase": {"terms", "monomials"},
    "hayes": {"dirichlet", "short", "theta", "unit_index"},
    "gowers": {"k": 2},
    "ap": {"k": 3},
    "katai": {"k": 2, "pair_set": "P_k", "per_pair": False},
    "tk": {"W": None, "H": None},
    "bias": {"r_values": [1, 2, 3], "slot_dim": 3, "arity": 2},
    "zero_count": {"dim": 3, "trials": 20, "max_total_degree": 3},
    "output": {"path": None, "format": "csv"},
}

_TOP_KEYS = {"kind", "seed", "domain", *_SECTIONS}

# the sections each kind requires; the kinds that require "function" resolve it
_NEEDS = {
    "decay-table": ("function", "phase"),
    "distance-growth": ("function", "hayes"),
    "gowers-decay": ("function",),
    "ap-decay": ("function",),
    "katai-check": ("function",),
    "tk-check": ("tk",),
    "bias-rank-demo": (),
    "zero-count-check": ("zero_count",),
}


@dataclass
class ExperimentConfig:
    kind: str
    field_params: dict
    seed: int | None
    n_start: int
    n_stop: int
    budget: int
    domain: str
    sections: dict
    output_path: str | None
    output_format: str
    raw: dict = dc_field(repr=False, default_factory=dict)

    def build_field(self) -> Field:
        """The run's field, whose enumeration budget is the config's budget."""
        return build_field(self.field_params["p"], self.field_params["r"],
                           enumeration_budget=self.budget)


# -- descriptor resolution -------------------------------------------------------


def resolve_hayes(field: Field, desc: dict) -> HayesCharacter:
    dirichlet = short = twist_part = unit = None
    if desc.get("dirichlet") is not None:
        d = desc["dirichlet"]
        dirichlet = dirichlet_character(Poly(field, d["modulus"]), d.get("index", 0))
    if desc.get("short") is not None:
        s = desc["short"]
        short = short_interval_character(field, s["s"], s.get("index", 0))
    if desc.get("theta") is not None:
        th = desc["theta"]
        twist_part = DegreeTwist(Fraction(th) if isinstance(th, str) else th)
    if desc.get("unit_index") is not None:
        unit = UnitCharacter(field, desc["unit_index"])
    return HayesCharacter(field, dirichlet, short, twist_part, unit)


def resolve_function(field: Field, desc: dict, default_seed: int | None):
    kind = desc.get("kind")
    if kind == "builtin":
        return builtin(field, desc["name"])
    if kind == "random":
        seed = desc.get("seed", default_seed)
        return random_on_irreducibles(field, seed, desc.get("values", "pm1"))
    if kind == "character":
        return from_character(resolve_hayes(field, desc["hayes"]))
    if kind == "twist":
        base = resolve_function(field, desc["base"], default_seed)
        return twist(base, resolve_hayes(field, desc["hayes"]),
                     desc.get("conjugate", False))
    raise ConfigError([f"function.kind: unknown kind {kind!r}"])


def resolve_phase(field: Field, desc: dict, n: int) -> PolynomialPhase:
    """The phase of a phase descriptor on G_n."""
    terms = []
    for t in desc.get("terms", ()):
        factors = tuple(LaurentTruncation(field, f) for f in t["factors"])
        terms.append((t["coef"], factors))
    monomials = []
    for t in desc.get("monomials", ()):
        monomials.append((t["coef"], tuple((j, e) for j, e in t["powers"])))
    return PolynomialPhase(field, n, terms, monomials)


# -- validation ---------------------------------------------------------------------


def _check_keys(problems, obj, allowed, where):
    if not isinstance(obj, dict):
        problems.append(f"{where}: expected an object")
        return False
    for key in obj:
        if key not in allowed:
            problems.append(f"{where}.{key}: unknown key")
    return True


def _unit_count(p: int, r: int, modulus: list) -> int:
    """|(F_q[x]/g)^*|, the number of Dirichlet characters mod g, from the
    factorization of g (degree >= 1): prod q^((k-1) deg P) (q^deg P - 1)."""
    field = build_field(p, r)
    q = field.q
    _, parts = factor(Poly(field, modulus))
    return math.prod(q ** ((k - 1) * int(P.degree)) * (q ** int(P.degree) - 1)
                     for P, k in parts)


def _check_index(problems, index, count: int, where: str):
    if not _is_int(index) or not 0 <= index < count:
        problems.append(f"{where}.index: must be an integer in [0, {count})")


def _check_hayes(problems, desc, where: str, p: int, r: int):
    """The problems of one Hayes descriptor over F_{p^r}, an object whose
    keys the caller has checked: character indices in range, a modulus of
    degree >= 1, a parsable theta."""
    q = p ** r
    chi = desc.get("dirichlet")
    if chi is not None and _check_keys(problems, chi, {"modulus", "index"}, f"{where}.dirichlet"):
        modulus = chi.get("modulus")
        if not (isinstance(modulus, list) and all(_is_coefficient(c, q) for c in modulus)):
            problems.append(f"{where}.dirichlet.modulus: required list of coefficients "
                            f"in [0, {q})")
        else:
            while modulus and modulus[-1] == 0:
                modulus = modulus[:-1]
            if len(modulus) < 2:
                problems.append(f"{where}.dirichlet.modulus: degree must be >= 1")
            elif "index" in chi:
                _check_index(problems, chi["index"], _unit_count(p, r, modulus),
                             f"{where}.dirichlet")
    xi = desc.get("short")
    if xi is not None and _check_keys(problems, xi, {"s", "index"}, f"{where}.short"):
        length = xi.get("s")
        if not _is_int(length) or length < 0:
            problems.append(f"{where}.short.s: required integer >= 0")
        elif "index" in xi:
            _check_index(problems, xi["index"], q ** length, f"{where}.short")
    theta = desc.get("theta")
    if theta is not None:
        try:
            Fraction(theta if isinstance(theta, (str, int, float)) else None)
        except (TypeError, ValueError, ZeroDivisionError, OverflowError):
            problems.append(f"{where}.theta: must be a finite number or a fraction "
                            f"string such as '1/3'")
    if desc.get("unit_index") is not None and not _is_int(desc["unit_index"]):
        problems.append(f"{where}.unit_index: must be an integer")


def _check_function(problems, desc, where: str, field_pr, seeded: bool):
    """The problems of a function descriptor and of a twist's base (whose
    keys are the function section's): a known kind, a builtin name, a given
    random value set and conjugate flag, a seed (its own, or the config's
    when `seeded`), and the Hayes descriptors over F_{p^r} when field_pr =
    (p, r) (None when the field is invalid)."""
    kind = desc.get("kind")
    if kind == "builtin":
        if not isinstance(desc.get("name"), str) or desc["name"] not in _BUILTINS:
            problems.append(f"{where}.name: required, one of {', '.join(_BUILTINS)}")
    elif kind == "random":
        if "values" in desc and desc["values"] not in ("pm1", "unit"):
            problems.append(f"{where}.values: must be pm1 or unit")
        if "seed" in desc and not _is_int(desc["seed"]):
            problems.append(f"{where}.seed: must be an integer")
        elif "seed" not in desc and not seeded:
            problems.append("seed: required because a randomized object is referenced")
    elif kind in ("character", "twist"):
        if "hayes" not in desc:
            problems.append(f"{where}.hayes: required for kind {kind}")
        elif (_check_keys(problems, desc["hayes"], _SECTIONS["hayes"], f"{where}.hayes")
              and field_pr is not None):
            _check_hayes(problems, desc["hayes"], f"{where}.hayes", *field_pr)
        if kind == "twist":
            if not isinstance(desc.get("base"), dict):
                problems.append(f"{where}.base: required object for kind twist")
            else:
                _check_keys(problems, desc["base"], _SECTIONS["function"], f"{where}.base")
                _check_function(problems, desc["base"], f"{where}.base", field_pr, seeded)
    else:
        problems.append(f"{where}.kind: must be one of builtin, random, character, twist")
    if "conjugate" in desc and not isinstance(desc["conjugate"], bool):
        problems.append(f"{where}.conjugate: must be true or false")


def _is_coefficient(c, q: int) -> bool:
    return _is_int(c) and 0 <= c < q


def _is_int(v) -> bool:
    """A JSON integer: a Python bool is an int too, but true is not 1."""
    return isinstance(v, int) and not isinstance(v, bool)


def _phase_entries(problems, desc, name: str, parts: str, q: int):
    """(where, list) for each well-formed entry of phase.<name>: an object
    with an integer coef in [0, q) and a list under `parts`."""
    entries = desc.get(name, [])
    if not isinstance(entries, list):
        problems.append(f"phase.{name}: must be a list")
        return
    for i, entry in enumerate(entries):
        where = f"phase.{name}[{i}]"
        if not _check_keys(problems, entry, {"coef", parts}, where):
            continue
        if not _is_coefficient(entry.get("coef"), q):
            problems.append(f"{where}.coef: required integer in [0, {q})")
        if isinstance(entry.get(parts), list):
            yield where, entry[parts]
        else:
            problems.append(f"{where}.{parts}: required list")


def _check_phase(problems, desc, q: int, n_start: int, n_stop: int):
    """The problems of a decay-table phase over F_q: coefficients and tail
    entries in [0, q), factor tails at least n.stop deep, and monomials in
    distinct coordinates below n.start with exponents >= 1 (so the phase on
    G_n is the prefix of the phase on G_{n.stop})."""
    for where, factors in _phase_entries(problems, desc, "terms", "factors", q):
        for j, tail in enumerate(factors):
            if not (isinstance(tail, list) and all(_is_coefficient(c, q) for c in tail)):
                problems.append(f"{where}.factors[{j}]: must be a list of coefficients "
                                f"in [0, {q})")
            elif len(tail) < n_stop:
                problems.append(f"{where}.factors[{j}]: factor depth {len(tail)} too "
                                f"shallow for G_{n_stop}")
    for where, powers in _phase_entries(problems, desc, "monomials", "powers", q):
        seen = set()
        for power in powers:
            if not (isinstance(power, list) and len(power) == 2
                    and all(_is_int(v) for v in power)):
                problems.append(f"{where}.powers: each entry must be a pair [j, e] of integers")
                continue
            j, e = power
            if not 0 <= j < n_start:
                problems.append(f"{where}.powers: coordinate {j} outside G_{n_start}")
            if e < 1:
                problems.append(f"{where}.powers: exponent {e} below 1")
            if j in seen:
                problems.append(f"{where}.powers: repeated coordinate {j}")
            seen.add(j)


def _check_values(problems, kind: str, sections: dict, p, n_start: int):
    """The problems of the section values `kind` reads, defaults included:
    katai k, pair set, per_pair flag and pair degrees against n.start,
    gowers k, ap k against the characteristic p (None when the field is
    invalid), the TK window, the bias slot_dim, arity and r_values (each
    at most slot_dim), and the zero-count dim, trials and degree bound.
    Integers exclude booleans."""
    if kind == "katai-check":
        sec, sets = sections["katai"], analytics._PAIR_SETS
        k, pair_set = sec["k"], sec["pair_set"]
        known = isinstance(pair_set, str) and pair_set in sets
        if not known:
            problems.append(f"katai.pair_set: must be one of {', '.join(sets)}")
        if not _is_int(k) or k < 1:
            problems.append("katai.k: must be an integer >= 1")
        elif known and n_start < max(sets[pair_set][0](k)):
            problems.append("n.start: n too small for the chosen pair degrees")
        if not isinstance(sec["per_pair"], bool):
            problems.append("katai.per_pair: must be true or false")
    elif kind == "gowers-decay":
        k = sections["gowers"]["k"]
        if not _is_int(k) or k < 1:
            problems.append("gowers.k: must be an integer >= 1")
    elif kind == "ap-decay":
        k = sections["ap"]["k"]
        if p is not None and not (_is_int(k) and 2 <= k < p):
            problems.append(f"ap.k: must be an integer with 2 <= k < p = {p} "
                            f"(default {_SECTIONS['ap']['k']})")
    elif kind == "tk-check":
        W, H = sections["tk"].get("W"), sections["tk"].get("H")
        if not (_is_int(W) and _is_int(H)):
            problems.append("tk.W, tk.H: required integers")
        elif max(W + 1, 1) >= H:
            problems.append(f"tk.H: the window W < deg p < H holds no degree >= 1 "
                            f"(W={W}, H={H})")
    elif kind == "bias-rank-demo":
        sec = sections["bias"]
        dim, arity, r_values = sec["slot_dim"], sec["arity"], sec["r_values"]
        if not (_is_int(dim) and dim >= 1):
            problems.append("bias.slot_dim: must be an integer >= 1")
        if not (_is_int(arity) and arity >= 1):
            problems.append("bias.arity: must be an integer >= 1")
        if not (isinstance(r_values, list) and all(_is_int(r) and r >= 1 for r in r_values)):
            problems.append("bias.r_values: must be a list of integers >= 1")
        elif _is_int(dim):
            for r in r_values:
                if r > dim:
                    problems.append(f"bias.r_values: r={r} above slot_dim={dim}")
    elif kind == "zero-count-check":
        for key, value in sections["zero_count"].items():
            if not (_is_int(value) and value >= 1):
                problems.append(f"zero_count.{key}: must be an integer >= 1")


def _character_exponents(kind: str, sections: dict) -> list:
    """e of the q^e residues mod each Dirichlet modulus (`unit_group`) and of
    each R_s (`r_s_group`) in the Hayes descriptors the run of `kind` resolves."""
    descriptors = [sections["hayes"]] if kind == "distance-growth" else []
    desc = sections["function"] if "function" in _NEEDS[kind] else {}
    while desc.get("kind") in ("character", "twist"):
        descriptors.append(desc["hayes"])
        desc = desc.get("base", {})
    return ([max(i for i, c in enumerate(h["dirichlet"]["modulus"]) if c)
             for h in descriptors if h.get("dirichlet") is not None]
            + [h["short"]["s"] for h in descriptors if h.get("short") is not None])


def _estimated_cost(kind: str, n: int, q: int, sections: dict) -> int:
    """The largest charge the run of `kind` makes to its field at n (0
    without an n-range): G_n, also for the arrays on G_{n.stop} and the sieve
    at degree n, the Hayes sets, and the kernel's declared cost."""
    if kind == "bias-rank-demo":
        sec = sections["bias"]
        return bias_cost(q, (sec["slot_dim"],) * sec["arity"])
    if kind == "zero-count-check":
        return q ** sections["zero_count"]["dim"]     # projective_common_zeros
    costs = [q ** n] + [q ** e for e in _character_exponents(kind, sections)]
    if kind == "katai-check":
        sec = sections["katai"]
        costs.append(analytics.katai_cost(q, n, sec["k"], sec["pair_set"]))
    elif kind == "gowers-decay":
        # k = 2 runs u2_fourier, one transform of G_n
        k = sections["gowers"]["k"]
        costs.append(q ** n if k == 2 else analytics.gowers_cost(q, n, k))
    elif kind == "ap-decay":
        costs.append(analytics.ap_cost(q, n, sections["ap"]["k"]))
    elif kind == "tk-check":
        # the window's counts, and the sieve of its top degree H - 1
        W, H = sections["tk"]["W"], sections["tk"]["H"]
        costs += [analytics.tk_cost(q, n, W, H), q ** (H - 1)]
    return max(costs)


def validate_config(source) -> ExperimentConfig:
    """Parse and normalize a config (dict, JSON text, or path-like).

    Returns the normalized ExperimentConfig or raises ConfigError carrying
    every violation found.  Budget overruns are reported with a 'budget:'
    prefix so the CLI can map them to their own exit code.  cfg.sections
    holds fresh dicts, the defaults of `_SECTIONS` under the config's keys;
    the config itself is never changed.
    """
    if isinstance(source, (str, bytes)):
        try:
            raw = json.loads(source)
        except json.JSONDecodeError as e:
            raise ConfigError([f"config is not valid JSON: {e}"])
    else:
        raw = source
    problems: list[str] = []
    if not isinstance(raw, dict):
        raise ConfigError(["config must be a JSON object"])
    _check_keys(problems, raw, _TOP_KEYS, "config")

    kind = raw.get("kind")
    if kind not in KINDS:
        problems.append(f"kind: must be one of {', '.join(KINDS)} (got {kind!r})")

    sections = {}
    for name, keys in _SECTIONS.items():
        given = name in raw and _check_keys(problems, raw[name], keys, name)
        if isinstance(keys, dict):      # a value section: always there
            defaults = {key: copy.copy(value) for key, value in keys.items() if value is not None}
            sections[name] = {**defaults, **(raw[name] if given else {})}
        elif given:                     # a descriptor: when the config gives it
            sections[name] = dict(raw[name])
    for req in _NEEDS.get(kind, ()):
        if not isinstance(raw.get(req), dict):
            problems.append(f"{req}: required for kind {kind}")

    p, r = sections["field"].get("p"), sections["field"]["r"]
    p_ok, r_ok = _is_int(p) and p >= 2, _is_int(r) and r >= 1
    # the table limit before primality, whose trial division of a huge p
    # does not end; no huge p^r is formed
    if p_ok and not within_table_limit(p, r if r_ok else 1):
        problems.append(f"field.p, field.r: q = p^r is over {MAX_Q}, too large for "
                        f"table-driven arithmetic")
        p_ok = False
    elif not (p_ok and is_prime(p)):
        problems.append("field.p: required prime")
        p_ok = False
    if not r_ok:
        problems.append("field.r: must be a positive integer")
    field_ok = p_ok and r_ok

    n_start = n_stop = 0
    if kind in ("bias-rank-demo", "zero-count-check"):
        if "n" in raw:
            problems.append("n: not used by this experiment kind")
    else:
        n_start = sections["n"].get("start")
        n_stop = sections["n"].get("stop", n_start)
        if not _is_int(n_start) or n_start < 1:
            problems.append("n.start: required positive integer")
            n_start = n_stop = 1
        elif not _is_int(n_stop) or n_stop < n_start:
            problems.append("n.stop: must be an integer >= n.start")
            n_stop = n_start

    budget = sections["budget"]["max_evals_per_n"]
    if not _is_int(budget) or budget < 1:
        problems.append("budget.max_evals_per_n: must be a positive integer")

    domain = raw.get("domain", "all")
    if domain not in ("all", "nonzero", "monic"):
        problems.append("domain: must be all | nonzero | monic")

    if field_ok and "hayes" in sections:
        _check_hayes(problems, sections["hayes"], "hayes", p, r)
    seed = raw.get("seed")
    if "function" in sections:
        _check_function(problems, sections["function"], "function",
                        (p, r) if field_ok else None, seed is not None)
    if field_ok and kind == "decay-table" and "phase" in sections:
        _check_phase(problems, sections["phase"], p ** r, n_start, n_stop)
    _check_values(problems, kind, sections, p if field_ok else None, n_start)

    if kind == "zero-count-check" and seed is None:
        problems.append("seed: required because a randomized object is referenced")
    if seed is not None and not _is_int(seed):
        problems.append("seed: must be an integer")

    output_path, output_format = sections["output"].get("path"), sections["output"]["format"]
    if output_path is not None and not isinstance(output_path, str):
        problems.append("output.path: must be a string")
    if output_format not in ("csv", "json"):
        problems.append("output.format: must be csv or json")

    # the cost is estimated for an otherwise valid config only
    if kind in KINDS and not problems:
        # the kinds without an n-range have n.start = n.stop = 0
        for n in range(n_start, n_stop + 1):
            cost = _estimated_cost(kind, n, p ** r, sections)
            if cost > budget:
                at = f"n={n}" if n else "experiment"
                problems.append(f"budget: {at} needs {cost} evaluations, "
                                f"over max_evals_per_n={budget}")
                break

    if problems:
        raise ConfigError(problems)
    return ExperimentConfig(kind=kind, field_params={"p": p, "r": r}, seed=seed,
                            n_start=n_start, n_stop=n_stop, budget=budget,
                            domain=domain, sections=sections,
                            output_path=output_path, output_format=output_format,
                            raw=raw)


# -- execution -----------------------------------------------------------------------


@dataclass
class ExperimentResult:
    kind: str
    columns: tuple
    rows: list
    metadata: dict

    def header_lines(self):
        yield f"# ffmult-experiment schema={self.kind}/{SCHEMA_VERSION}"
        for key in sorted(self.metadata):
            yield f"# {key}={self.metadata[key]}"
        yield f"# columns={','.join(self.columns)}"

    def csv_lines(self):
        yield from self.header_lines()
        for row in self.rows:
            yield _csv_row(row)

    def to_json(self) -> str:
        return json.dumps({"schema": f"{self.kind}/{SCHEMA_VERSION}",
                           "metadata": self.metadata,
                           "columns": list(self.columns),
                           "rows": [[_jsonable(v) for v in row] for row in self.rows]},
                          indent=2, sort_keys=True)


def _csv_row(row) -> str:
    return ",".join(_cell(v) for v in row)


def _cell(v) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _jsonable(v):
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    return v


def _function_on_prefixes(cfg: ExperimentConfig, field: Field):
    """The configured function sampled once on G_{n_stop}; G_n is its prefix."""
    f = resolve_function(field, cfg.sections["function"], cfg.seed)
    return analytics.sample_on_gn(field, cfg.n_stop, f)


def _rows_decay_table(cfg: ExperimentConfig, field: Field):
    nu = _function_on_prefixes(cfg, field)
    # alpha_1 of the phase once on G_{n_stop}; G_n reads the prefix
    # (validation keeps monomial coordinates below n.start)
    t = analytics.phase_character_array(resolve_phase(field, cfg.sections["phase"], cfg.n_stop))
    ns = range(cfg.n_start, cfg.n_stop + 1)
    for n, mean in zip(ns, analytics.correlate_prefixes(field, nu, t, ns, cfg.domain)):
        yield (n, abs(mean), mean.real, mean.imag, field.q ** n)


def _rows_distance_growth(cfg: ExperimentConfig, field: Field):
    f = resolve_function(field, cfg.sections["function"], cfg.seed)
    target = from_character(resolve_hayes(field, cfg.sections["hayes"]))
    sieve_through(field, cfg.n_stop)
    # each irreducible's term once; row N sums the terms of degree <= N
    terms = [t for d in range(1, cfg.n_start) for t in analytics.distance_terms(f, target, d)]
    for N in range(cfg.n_start, cfg.n_stop + 1):
        terms += analytics.distance_terms(f, target, N)
        yield (N, analytics.distance_from_terms(terms))


def _rows_gowers_decay(cfg: ExperimentConfig, field: Field):
    f = _function_on_prefixes(cfg, field)
    k = cfg.sections["gowers"]["k"]
    for n in range(cfg.n_start, cfg.n_stop + 1):
        if k == 2:
            norm = analytics.u2_fourier(field, n, f[:field.q ** n])
        else:
            norm = analytics.gowers_norm(field, n, f[:field.q ** n], k)
        yield (n, norm)


def _rows_ap_decay(cfg: ExperimentConfig, field: Field):
    f = _function_on_prefixes(cfg, field)
    k = cfg.sections["ap"]["k"]
    for n in range(cfg.n_start, cfg.n_stop + 1):
        res = analytics.ap_correlation(field, n, [f[:field.q ** n]] * k)
        yield (n, abs(res.mean), res.gowers_bound, res.satisfied)


def _rows_katai(cfg: ExperimentConfig, field: Field):
    f = _function_on_prefixes(cfg, field)
    sec = cfg.sections["katai"]
    for n in range(cfg.n_start, cfg.n_stop + 1):
        stat = analytics.katai_statistic(field, f[:field.q ** n], n, sec["k"],
                                         sec["pair_set"], sec["per_pair"])
        yield (n, stat)


def _rows_tk(cfg: ExperimentConfig, field: Field):
    W, H = cfg.sections["tk"]["W"], cfg.sections["tk"]["H"]
    # a divisor count does not depend on n: G_n reads the prefix of G_{n_stop}
    A = analytics.window_mass(field, W, H)
    squares = analytics.squared_deviations(
        analytics.window_divisor_counts(field, cfg.n_stop, W, H), A)
    for n in range(cfg.n_start, cfg.n_stop + 1):
        res = analytics.turan_kubilius_from_squares(field, squares, n, A, W, H)
        yield (n, res.A, res.lhs, res.ratio)


def _rows_bias_rank(cfg: ExperimentConfig, field: Field):
    sec = cfg.sections["bias"]
    dim, arity = sec["slot_dim"], sec["arity"]
    coords = [LaurentTruncation.coordinate(field, j, dim) for j in range(dim)]
    for r in sec["r_values"]:
        terms = [(1, tuple(coords[i] for _ in range(arity))) for i in range(r)]
        Q = MultilinearForm(field, (dim,) * arity, terms, block_count=r)
        res = Q.bias()
        bound = field.q ** -r
        yield (r, res.bias, res.analytic_rank, bound, res.bias >= bound - 1e-9)


def _rows_zero_count(cfg: ExperimentConfig, field: Field):
    sec = cfg.sections["zero_count"]
    dim, trials, max_total = sec["dim"], sec["trials"], sec["max_total_degree"]
    rng = random.Random(cfg.seed)
    done = 0
    while done < trials:
        D = rng.randint(1, max_total)
        degs = []
        left = D
        while left:
            d = rng.randint(1, left)
            degs.append(d)
            left -= d
        phases = []
        for d in degs:
            terms = [(rng.randrange(1, field.q),
                      tuple(LaurentTruncation.random(field, dim, rng)
                            for _ in range(d)))
                     for _ in range(rng.randint(1, 2))]
            phases.append(PolynomialPhase(field, dim, terms))
        if any(P.is_zero() or P.degree != d for P, d in zip(phases, degs)):
            continue
        done += 1
        res = projective_common_zeros(phases, dim)
        yield (done, res.count, res.projective_size, res.bound, res.passes,
               res.total_degree, len(phases))


_RUNNERS = {
    "decay-table": _rows_decay_table,
    "distance-growth": _rows_distance_growth,
    "gowers-decay": _rows_gowers_decay,
    "ap-decay": _rows_ap_decay,
    "katai-check": _rows_katai,
    "tk-check": _rows_tk,
    "bias-rank-demo": _rows_bias_rank,
    "zero-count-check": _rows_zero_count,
}


def run_experiment(config, stream=None) -> ExperimentResult:
    """Execute a validated (or raw) config; optionally stream CSV rows.

    When `stream` is a writable file object, header comments and each row
    are written and flushed as they are produced, so partial progress
    survives interruption.
    """
    cfg = config if isinstance(config, ExperimentConfig) else validate_config(config)
    field = cfg.build_field()
    metadata = {
        "field": f"F_{field.q}",
        "p": field.p, "r": field.r,
        "seed": cfg.seed,
        "domain": cfg.domain,
        "budget": cfg.budget,
        "config": json.dumps(cfg.raw, sort_keys=True),
    }
    result = ExperimentResult(cfg.kind, COLUMNS[cfg.kind], [], metadata)
    if stream is not None:
        stream.writelines(line + "\n" for line in result.header_lines())
        stream.flush()
    for row in _RUNNERS[cfg.kind](cfg, field):
        result.rows.append(row)
        if stream is not None:
            stream.write(_csv_row(row) + "\n")
            stream.flush()
    return result


def list_builtins() -> str:
    lines = ["experiment kinds:"]
    lines += [f"  {k}  (columns: {', '.join(COLUMNS[k])})" for k in KINDS]
    lines.append("builtin multiplicative functions: moebius, liouville, one")
    lines.append("random function value sets: pm1, unit")
    lines.append("function descriptor kinds: builtin, random, character, twist")
    lines.append("hayes descriptor: {dirichlet: {modulus, index}, short: {s, index}, "
                 "theta: float|'a/b', unit_index}")
    lines.append("phase descriptor: {terms: [{coef, factors: [[b_-1..b_-M], ...]}], "
                 "monomials: [{coef, powers: [[j, e], ...]}]}")
    return "\n".join(lines)
