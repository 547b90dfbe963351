"""Config-driven experiment runner: reproducible decay/growth tables.

Configs are JSON objects with nested sections; unknown keys anywhere are
errors (no silent typo tolerance), every violation is reported at once,
and a seed is mandatory as soon as any randomized object is referenced.
`_SECTIONS` declares each section's keys once, and each key of a value
section with its default and its check; `_KIND_TABLE` declares each
experiment kind once: its columns, the sections it requires and reads, its
rule across keys, its kernel's charges and its rows.  The checks, the
budget estimate and the runners all read the sections validate_config
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
                         short_interval_character, unit_count)
from .errors import ConfigError
from .fields import DEFAULT_BUDGET, MAX_Q, Field, build_field, is_prime, within_table_limit
from .laurent import LaurentTruncation
from .multiplicative import (_BUILTINS, _VALUE_SETS, builtin, from_character,
                             random_on_irreducibles, twist)
from .phases import MultilinearForm, PolynomialPhase, bias_cost, projective_common_zeros
from .polys import Poly, sieve_through

SCHEMA_VERSION = "v1"

_FUNCTION_KINDS = ("builtin", "random", "character", "twist")


def _is_int(v) -> bool:
    """A JSON integer: a Python bool is an int too, but true is not 1."""
    return isinstance(v, int) and not isinstance(v, bool)


def _is_coefficient(c, q: int) -> bool:
    return _is_int(c) and 0 <= c < q


class _Check:
    """A value's check: a value failing `test` is the problem `where: rule`,
    `where` being section.key unless set."""
    __slots__ = ("test", "rule", "where")

    def __init__(self, test, rule: str, where: str = ""):
        self.test, self.rule, self.where = test, rule, where


def _integer(lo: int) -> _Check:
    return _Check(lambda v: _is_int(v) and v >= lo, f"must be an integer >= {lo}")


def _one_of(choices) -> _Check:
    # a string first: no list is looked up in a dict
    return _Check(lambda v: isinstance(v, str) and v in choices,
                  f"must be one of {', '.join(choices)}")


_FLAG = _Check(lambda v: isinstance(v, bool), "must be true or false")
_STRING = _Check(lambda v: isinstance(v, str), "must be a string")
_INTEGER_LIST = _Check(lambda v: isinstance(v, list) and all(_is_int(r) and r >= 1 for r in v),
                 "must be a list of integers >= 1")
# W and H bound one window, so a bad one is reported for both
_WINDOW = _Check(_is_int, "required integers", "tk.W, tk.H")

# the default of a value key that a config must give
_REQUIRED = object()

# every section's keys.  A value section maps each key to its default and
# its check; the absence of n.stop defers to n.start, that of output.path to
# stdout.  A descriptor section is a set of keys, checked by its walker; its
# resolver holds its defaults (values, conjugate, index), and function.seed
# defers to the config seed.
_SECTIONS = {
    "field": {"p": (_REQUIRED, _integer(2)), "r": (1, _integer(1))},
    "n": {"start": (_REQUIRED, _integer(1)), "stop": (None, _integer(1))},
    "budget": {"max_evals_per_n": (DEFAULT_BUDGET, _integer(1))},
    "function": {"kind", "name", "seed", "values", "hayes", "base", "conjugate"},
    "phase": {"terms", "monomials"},
    "hayes": {"dirichlet", "short", "theta", "unit_index"},
    "gowers": {"k": (2, _integer(1))},
    "ap": {"k": (3, _integer(2))},
    "katai": {"k": (2, _integer(1)), "pair_set": ("P_k", _one_of(analytics._PAIR_SETS)),
              "per_pair": (False, _FLAG)},
    "tk": {"W": (_REQUIRED, _WINDOW), "H": (_REQUIRED, _WINDOW)},
    "bias": {"r_values": ([1, 2, 3], _INTEGER_LIST), "slot_dim": (3, _integer(1)),
             "arity": (2, _integer(1))},
    "zero_count": {"dim": (3, _integer(1)), "trials": (20, _integer(1)),
                   "max_total_degree": (3, _integer(1))},
    "output": {"path": (None, _STRING), "format": ("csv", _one_of(("csv", "json")))},
}

_TOP_KEYS = {"kind", "seed", "domain", *_SECTIONS}


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


def _degree(coeffs: list) -> int:
    """The degree of a coefficient list, trailing zeros dropped (0 for none)."""
    return max((i for i, c in enumerate(coeffs) if c), default=0)


def _fits(q: int, e: int, budget: int) -> bool:
    """q^e <= budget; since q^e >= 2^e, no power longer than the budget is built."""
    return e < budget.bit_length() and q ** e <= budget


def _check_index(problems, index, count: int, where: str):
    if not _is_int(index) or not 0 <= index < count:
        problems.append(f"{where}.index: must be an integer in [0, {count})")


def _check_hayes(problems, desc, where: str, q: int, budget: int, dirichlet: list):
    """The problems of one Hayes descriptor over F_q, an object whose keys the
    caller has checked: character indices in range, a modulus of degree >= 1,
    a parsable theta.  An index is checked only when the q^e residues of its
    group fit `budget` (past it the estimate refuses the config); a Dirichlet
    index goes to `dirichlet` as (modulus, index, where), whose groups
    validate_config counts over one field."""
    chi = desc.get("dirichlet")
    if chi is not None and _check_keys(problems, chi, {"modulus", "index"}, f"{where}.dirichlet"):
        modulus = chi.get("modulus")
        if not (isinstance(modulus, list) and all(_is_coefficient(c, q) for c in modulus)):
            problems.append(f"{where}.dirichlet.modulus: required list of coefficients "
                            f"in [0, {q})")
        elif _degree(modulus) < 1:
            problems.append(f"{where}.dirichlet.modulus: degree must be >= 1")
        elif "index" in chi and _fits(q, _degree(modulus), budget):
            dirichlet.append((modulus[:_degree(modulus) + 1], chi["index"], f"{where}.dirichlet"))
    xi = desc.get("short")
    if xi is not None and _check_keys(problems, xi, {"s", "index"}, f"{where}.short"):
        length = xi.get("s")
        if not _is_int(length) or length < 0:
            problems.append(f"{where}.short.s: required integer >= 0")
        elif "index" in xi and _fits(q, length, budget):
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


def _check_function(problems, desc, where: str, scope, seeded: bool):
    """The problems of a function descriptor and of a twist's base (whose
    keys are the function section's): a known kind, a builtin name, a given
    random value set and conjugate flag, a seed (its own, or the config's
    when `seeded`), and the Hayes descriptors under `scope`, the arguments
    (q, budget, dirichlet) of `_check_hayes` (None when the field is invalid)."""
    kind = desc.get("kind")
    if kind == "builtin":
        if not isinstance(desc.get("name"), str) or desc["name"] not in _BUILTINS:
            problems.append(f"{where}.name: required, one of {', '.join(_BUILTINS)}")
    elif kind == "random":
        if "values" in desc and desc["values"] not in _VALUE_SETS:
            problems.append(f"{where}.values: must be {' or '.join(_VALUE_SETS)}")
        if "seed" in desc and not _is_int(desc["seed"]):
            problems.append(f"{where}.seed: must be an integer")
        elif "seed" not in desc and not seeded:
            problems.append("seed: required because a randomized object is referenced")
    elif kind in ("character", "twist"):
        if "hayes" not in desc:
            problems.append(f"{where}.hayes: required for kind {kind}")
        elif (_check_keys(problems, desc["hayes"], _SECTIONS["hayes"], f"{where}.hayes")
              and scope is not None):
            _check_hayes(problems, desc["hayes"], f"{where}.hayes", *scope)
        if kind == "twist":
            if not isinstance(desc.get("base"), dict):
                problems.append(f"{where}.base: required object for kind twist")
            else:
                _check_keys(problems, desc["base"], _SECTIONS["function"], f"{where}.base")
                _check_function(problems, desc["base"], f"{where}.base", scope, seeded)
    else:
        problems.append(f"{where}.kind: must be one of {', '.join(_FUNCTION_KINDS)}")
    if "conjugate" in desc and not isinstance(desc["conjugate"], bool):
        problems.append(f"{where}.conjugate: must be true or false")


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


def _failed_sections(problems, sections: dict, names) -> set:
    """The named value sections holding a value that fails its declared
    check, a missing required key included; each failure is reported once,
    as `where: rule`."""
    failed = set()
    for name in names:
        for key, (default, check) in _SECTIONS[name].items():
            if key not in sections[name] and default is not _REQUIRED:
                continue                # its absence defers to another value
            if not check.test(sections[name].get(key)):
                failed.add(name)
                problem = f"{check.where or f'{name}.{key}'}: {check.rule}"
                if problem not in problems:
                    problems.append(problem)
    return failed


def _exponents(kind: str, n: int, sections: dict) -> list:
    """The exponents e of the q^e charges the run of `kind` makes at n: G_n
    for a kind with an n-range (it stands also for the arrays on G_{n.stop}
    and the sieve at degree n), the residues mod each Dirichlet modulus
    (`unit_group`) and each R_s (`r_s_group`) of the Hayes descriptors it
    resolves, and its kernel's powers."""
    spec = _KIND_TABLE[kind]
    hayes = [sections["hayes"]] if "hayes" in spec.requires else []
    desc = sections["function"] if "function" in spec.requires else {}
    while desc.get("kind") in ("character", "twist"):
        hayes.append(desc["hayes"])
        desc = desc.get("base", {})
    return (([n] if "n" in spec.reads else []) + spec.powers(n, sections)
            + [_degree(h["dirichlet"]["modulus"])
               for h in hayes if h.get("dirichlet") is not None]
            + [h["short"]["s"] for h in hayes if h.get("short") is not None])


def _estimated_cost(kind: str, n: int, q: int, sections: dict) -> int:
    """The largest charge the run of `kind` makes to its field at n (0
    without an n-range): the largest q^e of `_exponents`, or a count of its
    kernel's."""
    return max([q ** max(_exponents(kind, n, sections)),
                *_KIND_TABLE[kind].counts(q, n, sections)])


# Python prints no integer of more decimal digits (its default limit), and
# json reads none, so 10^_DIGITS is over every budget a JSON config gives
_DIGITS = 4300


def parse_json(text, what: str = "config"):
    """json.loads(text); a ConfigError naming `what` when the text is not
    JSON, and also when it holds an integer of more than _DIGITS digits or
    bytes that are not text, which json reports as a plain ValueError."""
    try:
        return json.loads(text)
    except ValueError as e:
        raise ConfigError([f"{what} is not valid JSON: {e}"])


def validate_config(source) -> ExperimentConfig:
    """Parse and normalize a config (dict, JSON text, or path-like).

    Returns the normalized ExperimentConfig or raises ConfigError carrying
    every violation found.  Budget overruns are reported with a 'budget:'
    prefix so the CLI can map them to their own exit code.  cfg.sections
    holds fresh dicts, the defaults of `_SECTIONS` under the config's keys;
    the config itself is never changed.  The rules across keys (the field's
    table limit and primality, n.stop >= n.start, the kind's rule) read only
    sections whose values passed their declared checks.
    """
    raw = parse_json(source) if isinstance(source, (str, bytes)) else source
    problems: list[str] = []
    if not isinstance(raw, dict):
        raise ConfigError(["config must be a JSON object"])
    _check_keys(problems, raw, _TOP_KEYS, "config")

    kind = raw.get("kind")
    # `in` a tuple compares, so a kind that is a list is refused, not hashed;
    # an unknown kind is checked as one with an n-range
    spec = _KIND_TABLE[kind] if kind in KINDS else _Kind((), (), ("n",), None)
    if kind not in KINDS:
        problems.append(f"kind: must be one of {', '.join(KINDS)} (got {kind!r})")

    sections = {}
    for name, keys in _SECTIONS.items():
        given = name in raw and _check_keys(problems, raw[name], keys, name)
        if isinstance(keys, dict):      # a value section: always there
            defaults = {key: copy.copy(default) for key, (default, _) in keys.items()
                        if default not in (None, _REQUIRED)}
            sections[name] = {**defaults, **(raw[name] if given else {})}
        elif given:                     # a descriptor: when the config gives it
            sections[name] = dict(raw[name])
    for req in spec.requires:
        if not isinstance(raw.get(req), dict):
            problems.append(f"{req}: required for kind {kind}")
    failed = _failed_sections(problems, sections, ("field", "budget", "output", *spec.reads))

    p, r = sections["field"].get("p"), sections["field"]["r"]
    # the table limit before primality, whose trial division of a huge p
    # does not end; no huge p^r is formed
    if "field" not in failed and not within_table_limit(p, r):
        problems.append(f"field.p, field.r: q = p^r is over {MAX_Q}, too large for "
                        f"table-driven arithmetic")
        failed.add("field")
    elif "field" not in failed and not is_prime(p):
        problems.append("field.p: required prime")
        failed.add("field")
    n_start = n_stop = 0
    if "n" not in spec.reads and "n" in raw:
        problems.append("n: not used by this experiment kind")
    elif "n" in spec.reads and "n" not in failed:
        n_start = sections["n"]["start"]
        n_stop = sections["n"].get("stop", n_start)
        if n_stop < n_start:
            problems.append("n.stop: must be an integer >= n.start")
            failed.add("n")
    if not failed & {"field", *spec.reads}:
        problems += spec.rule(sections, p)

    domain = raw.get("domain", "all")
    if domain not in ("all", "nonzero", "monic"):
        problems.append("domain: must be all | nonzero | monic")
    seed = raw.get("seed")
    if seed is not None and not _is_int(seed):
        problems.append("seed: must be an integer")
    elif seed is None and spec.seeded:
        problems.append("seed: required because a randomized object is referenced")

    # the Hayes checks' (q, budget, Dirichlet indices); a budget of 0 checks
    # no index
    budget, dirichlet = sections["budget"]["max_evals_per_n"], []
    scope = None if "field" in failed else (p ** r, 0 if "budget" in failed else budget,
                                            dirichlet)
    if scope and "hayes" in sections:
        _check_hayes(problems, sections["hayes"], "hayes", *scope)
    if "function" in sections:
        _check_function(problems, sections["function"], "function", scope, seed is not None)
    if scope and "phase" in spec.requires and "phase" in sections and "n" not in failed:
        _check_phase(problems, sections["phase"], p ** r, n_start, n_stop)
    if dirichlet:
        # one field at the config's budget counts every Dirichlet group
        field = build_field(p, r, enumeration_budget=budget)
        for modulus, index, where in dirichlet:
            _check_index(problems, index, unit_count(Poly(field, modulus)), where)

    # the cost is estimated for an otherwise valid config only, in this one
    # place; the kinds without an n-range have n.start = n.stop = 0.  A q^e
    # of _DIGITS digits is never built: like a count that long, the problem
    # says the run needs at least 10^_DIGITS
    for n in range(n_start, n_stop + 1) if not problems else ():
        small = max(_exponents(kind, n, sections)) < _DIGITS / math.log10(p ** r)
        cost = _estimated_cost(kind, n, p ** r, sections) if small else 10 ** _DIGITS
        if cost > budget:
            needs = cost if math.log10(cost) < _DIGITS else f"at least 10^{_DIGITS}"
            problems.append(f"budget: {f'n={n}' if n else 'experiment'} needs {needs} "
                            f"evaluations, over max_evals_per_n={budget}")
            break

    if problems:
        raise ConfigError(problems)
    return ExperimentConfig(kind=kind, field_params={"p": p, "r": r}, seed=seed,
                            n_start=n_start, n_stop=n_stop, budget=budget,
                            domain=domain, sections=sections,
                            output_path=sections["output"].get("path"),
                            output_format=sections["output"]["format"], raw=raw)


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
    ns = range(cfg.n_start, cfg.n_stop + 1)
    yield from zip(ns, analytics.katai_prefixes(field, f, ns, sec["k"], sec["pair_set"],
                                                sec["per_pair"]))


def _rows_tk(cfg: ExperimentConfig, field: Field):
    W, H = cfg.sections["tk"]["W"], cfg.sections["tk"]["H"]
    # a divisor count does not depend on n: G_n reads the prefix of G_{n_stop}
    A = analytics.window_mass(field, W, H)
    counts = analytics.window_divisor_counts(field, cfg.n_stop, W, H)
    for n in range(cfg.n_start, cfg.n_stop + 1):
        res = analytics.turan_kubilius_from_counts(field, counts, n, A, W, H)
        yield (n, res.A, res.lhs, res.ratio)


def _rows_bias_rank(cfg: ExperimentConfig, field: Field):
    sec = cfg.sections["bias"]
    dim, arity = sec["slot_dim"], sec["arity"]
    top = max(sec["r_values"], default=0)
    field.charge(top * dim, f"{top} coordinate functionals of depth {dim}")
    coords = [LaurentTruncation.coordinate(field, j, dim) for j in range(top)]
    for r in sec["r_values"]:
        terms = [(1, tuple(coords[i] for _ in range(arity))) for i in range(r)]
        Q = MultilinearForm(field, (dim,) * arity, terms, block_count=r)
        res = Q.bias()
        # both rounded once, so they compare as the exact values do
        bound = float(Fraction(1, field.q ** r))
        yield (r, res.bias, res.analytic_rank, bound, res.bias >= bound)


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


# -- the experiment kinds ---------------------------------------------------------------


class _Kind:
    """An experiment kind: its CSV columns; the sections a config must give
    and the value sections it reads besides field, budget and output; its
    `rows(cfg, field)`; `rule(sections, p)`, its problems across keys;
    `powers(n, sections)`, the exponents e of the q^e its kernel charges at
    n, and `counts(q, n, sections)`, the kernel's other charges; and whether
    its rows draw from the config seed, which it then requires."""
    __slots__ = ("columns", "requires", "reads", "rows", "rule", "powers", "counts", "seeded")

    def __init__(self, columns: tuple, requires: tuple, reads: tuple, rows,
                 rule=lambda s, p: (), powers=lambda n, s: [], counts=lambda q, n, s: (),
                 seeded: bool = False):
        self.columns, self.requires, self.reads, self.rows = columns, requires, reads, rows
        self.rule, self.powers, self.counts, self.seeded = rule, powers, counts, seeded


def _katai_rule(s: dict, p: int):
    # the pair degrees ascend: the last is the largest
    if s["n"]["start"] < analytics._PAIR_SETS[s["katai"]["pair_set"]][0](s["katai"]["k"])[-1]:
        yield "n.start: n too small for the chosen pair degrees"


def _ap_rule(s: dict, p: int):
    if s["ap"]["k"] >= p:
        yield (f"ap.k: must be an integer with 2 <= k < p = {p} "
               f"(default {_SECTIONS['ap']['k'][0]})")


def _tk_rule(s: dict, p: int):
    W, H = s["tk"]["W"], s["tk"]["H"]
    if max(W + 1, 1) >= H:
        yield f"tk.H: the window W < deg p < H holds no degree >= 1 (W={W}, H={H})"


def _bias_rule(s: dict, p: int):
    dim = s["bias"]["slot_dim"]
    yield from (f"bias.r_values: r={r} above slot_dim={dim}"
                for r in s["bias"]["r_values"] if r > dim)


_KIND_TABLE = {
    "decay-table": _Kind(("n", "abs_mean", "re", "im", "count"), ("function", "phase"),
                         ("n",), _rows_decay_table),
    "distance-growth": _Kind(("N", "distance"), ("function", "hayes"), ("n",),
                             _rows_distance_growth),
    # k = 2 runs u2_fourier, one transform of G_n; another k the cube
    # recursion's gowers_cost q^(kn)
    "gowers-decay": _Kind(("n", "norm"), ("function",), ("n", "gowers"), _rows_gowers_decay,
                          powers=lambda n, s: [n if s["gowers"]["k"] == 2
                                               else n * s["gowers"]["k"]]),
    # ap_cost: the q^(2n) pairs and the q^((k-1)n) cube of the U^(k-1) bound
    "ap-decay": _Kind(("n", "abs_mean", "gowers_bound", "satisfied"), ("function",),
                      ("n", "ap"), _rows_ap_decay, rule=_ap_rule,
                      powers=lambda n, s: [2 * n, (s["ap"]["k"] - 1) * n]),
    "katai-check": _Kind(("n", "statistic"), ("function",), ("n", "katai"), _rows_katai,
                         rule=_katai_rule,
                         counts=lambda q, n, s: [analytics.katai_cost(
                             q, n, s["katai"]["k"], s["katai"]["pair_set"])]),
    # the sieve of the window's top degree H - 1, and the tk_cost rows the
    # counts mark
    "tk-check": _Kind(("n", "A", "lhs", "ratio"), ("tk",), ("n", "tk"), _rows_tk,
                      rule=_tk_rule, powers=lambda n, s: [s["tk"]["H"] - 1],
                      counts=lambda q, n, s: [analytics.tk_cost(q, n, s["tk"]["W"],
                                                                s["tk"]["H"])]),
    # bias_cost: the slot_dim basis points of the last slot at each of the
    # q^(slot_dim (arity - 1)) prefixes (the power) of an exhaustive bias;
    # and the max(r_values) coordinate functionals of depth slot_dim
    "bias-rank-demo": _Kind(("r", "bias", "analytic_rank", "bound", "meets_bound"), (),
                            ("bias",), _rows_bias_rank, rule=_bias_rule,
                            powers=lambda n, s: [s["bias"]["slot_dim"] * (s["bias"]["arity"] - 1)],
                            counts=lambda q, n, s: [
                                bias_cost(q, (s["bias"]["slot_dim"],) * s["bias"]["arity"]),
                                max(s["bias"]["r_values"], default=0) * s["bias"]["slot_dim"]]),
    # projective_common_zeros runs over G_dim
    "zero-count-check": _Kind(("trial", "count", "projective_size", "bound", "passes",
                               "total_degree", "forms"), ("zero_count",), ("zero_count",),
                              _rows_zero_count, powers=lambda n, s: [s["zero_count"]["dim"]],
                              seeded=True),
}

KINDS = tuple(_KIND_TABLE)

COLUMNS = {kind: spec.columns for kind, spec in _KIND_TABLE.items()}


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
    for row in _KIND_TABLE[cfg.kind].rows(cfg, field):
        result.rows.append(row)
        if stream is not None:
            stream.write(_csv_row(row) + "\n")
            stream.flush()
    return result


def list_builtins() -> str:
    lines = ["experiment kinds:"]
    lines += [f"  {k}  (columns: {', '.join(COLUMNS[k])})" for k in KINDS]
    lines.append(f"builtin multiplicative functions: {', '.join(_BUILTINS)}")
    lines.append(f"random function value sets: {', '.join(_VALUE_SETS)}")
    lines.append(f"function descriptor kinds: {', '.join(_FUNCTION_KINDS)}")
    lines.append("hayes descriptor: {dirichlet: {modulus, index}, short: {s, index}, "
                 "theta: float|'a/b', unit_index}")
    lines.append("phase descriptor: {terms: [{coef, factors: [[b_-1..b_-M], ...]}], "
                 "monomials: [{coef, powers: [[j, e], ...]}]}")
    return "\n".join(lines)
