import dataclasses
import io
import json
import subprocess
import sys
import time

import pytest

from ffmult.errors import BudgetError, ConfigError
from ffmult.experiments import (list_builtins, run_experiment, validate_config)
from ffmult.fields import build_field
from ffmult.polys import Poly


def decay_config(**over):
    cfg = {
        "kind": "decay-table",
        "field": {"p": 2, "r": 1},
        "seed": 4,
        "n": {"start": 4, "stop": 7},
        "function": {"kind": "random", "values": "pm1"},
        "phase": {"terms": [{"coef": 1, "factors": [[1, 0, 1, 0, 1, 1, 1],
                                                    [0, 1, 1, 1, 0, 0, 1]]}]},
    }
    cfg.update(over)
    return cfg


def test_minimal_valid_config_normalizes():
    cfg = validate_config(decay_config())
    assert cfg.kind == "decay-table"
    assert cfg.budget == 2_000_000 and cfg.domain == "all"
    assert cfg.n_start == 4 and cfg.n_stop == 7


def test_validation_fills_defaults_into_fresh_sections_and_leaves_the_config_alone():
    raw = {"kind": "bias-rank-demo", "field": {"p": 3}, "bias": {"arity": 1}}
    before = json.dumps(raw)
    cfg = validate_config(raw)
    assert cfg.raw is raw and json.dumps(raw) == before
    assert cfg.sections["bias"] == {"r_values": [1, 2, 3], "slot_dim": 3, "arity": 1}
    assert cfg.sections["field"] == {"p": 3, "r": 1}
    assert cfg.sections["output"] == {"format": "csv"}       # no path: stdout
    cfg.sections["bias"]["r_values"].append(4)
    assert validate_config(raw).sections["bias"]["r_values"] == [1, 2, 3]
    # keys whose absence defers to another value are not filled in
    cfg = validate_config(decay_config(n={"start": 4}))
    assert cfg.sections["n"] == {"start": 4} and cfg.n_stop == 4
    assert "seed" not in cfg.sections["function"] and "n" not in cfg.sections["phase"]


def test_unknown_key_rejected():
    with pytest.raises(ConfigError) as e:
        validate_config({"kind": "tk-check", "fieldd": {"p": 2},
                         "field": {"p": 2}, "n": {"start": 3},
                         "tk": {"W": 1, "H": 3}})
    assert any("fieldd" in p for p in e.value.problems)


def test_all_violations_reported_at_once():
    with pytest.raises(ConfigError) as e:
        validate_config({"kind": "nope", "field": {"p": 9}, "n": {"start": 0},
                         "domain": "everything"})
    text = "\n".join(e.value.problems)
    assert "kind" in text and "field.p" in text and "n.start" in text and "domain" in text
    assert len(e.value.problems) >= 4


def test_missing_seed_for_random_function():
    cfg = decay_config()
    del cfg["seed"]
    with pytest.raises(ConfigError) as e:
        validate_config(cfg)
    assert any("seed" in p for p in e.value.problems)


def test_budget_overrun_cites_cost():
    cfg = {
        "kind": "gowers-decay", "field": {"p": 2, "r": 1},
        "n": {"start": 12, "stop": 12},
        "function": {"kind": "builtin", "name": "one"},
        "gowers": {"k": 3},
    }
    with pytest.raises(ConfigError) as e:
        validate_config(cfg)
    assert any(p.startswith("budget:") and "n=12" in p for p in e.value.problems)


def test_run_decay_table_and_reproducibility():
    r1 = run_experiment(decay_config())
    r2 = run_experiment(decay_config())
    assert r1.rows == r2.rows
    assert [row[0] for row in r1.rows] == [4, 5, 6, 7]
    assert all(len(row) == len(r1.columns) for row in r1.rows)


def test_csv_stream_has_versioned_schema_and_rows():
    buf = io.StringIO()
    run_experiment(decay_config(), stream=buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "# ffmult-experiment schema=decay-table/v1"
    assert any(line.startswith("# columns=n,abs_mean,re,im,count") for line in lines)
    data = [line for line in lines if not line.startswith("#")]
    assert len(data) == 4
    assert data[0].split(",")[0] == "4"


def test_distance_growth_is_nondecreasing():
    cfg = {
        "kind": "distance-growth", "field": {"p": 2, "r": 1},
        "n": {"start": 1, "stop": 8},
        "function": {"kind": "builtin", "name": "moebius"},
        "hayes": {},
    }
    rows = run_experiment(cfg).rows
    vals = [row[1] for row in rows]
    assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))


def test_gowers_ap_katai_tk_kinds_run():
    base = {"field": {"p": 3, "r": 1}, "n": {"start": 2, "stop": 3},
            "function": {"kind": "builtin", "name": "liouville"}}
    g = run_experiment({**base, "kind": "gowers-decay", "gowers": {"k": 2}})
    assert len(g.rows) == 2 and all(v[1] >= 0 for v in g.rows)
    a = run_experiment({"kind": "ap-decay", "field": {"p": 5, "r": 1},
                        "n": {"start": 2, "stop": 2},
                        "function": {"kind": "builtin", "name": "liouville"},
                        "ap": {"k": 3}})
    assert len(a.rows) == 1 and a.rows[0][3] in (True, False)
    k = run_experiment({**base, "kind": "katai-check",
                        "katai": {"k": 1, "per_pair": True},
                        "n": {"start": 4, "stop": 5}})
    assert len(k.rows) == 2
    t = run_experiment({"kind": "tk-check", "field": {"p": 2, "r": 1},
                        "n": {"start": 6, "stop": 8}, "tk": {"W": 1, "H": 4}})
    assert [row[0] for row in t.rows] == [6, 7, 8]


def test_bias_rank_demo_rows():
    cfg = {"kind": "bias-rank-demo", "field": {"p": 2, "r": 1},
           "bias": {"r_values": [1, 2, 3], "slot_dim": 4, "arity": 2}}
    rows = run_experiment(cfg).rows
    assert [row[0] for row in rows] == [1, 2, 3]
    for r, bias, rank, bound, meets in rows:
        assert abs(bias - 2.0 ** -r) < 1e-12 and meets


def test_zero_count_kind_runs_seeded():
    cfg = {"kind": "zero-count-check", "field": {"p": 3, "r": 1}, "seed": 5,
           "zero_count": {"dim": 3, "trials": 10, "max_total_degree": 2}}
    rows = run_experiment(cfg).rows
    assert len(rows) == 10
    assert all(r[4] for r in rows)   # D <= 2 on dim 3: bound always met


def test_character_function_descriptor():
    cfg = {
        "kind": "decay-table", "field": {"p": 3, "r": 1},
        "n": {"start": 3, "stop": 4},
        "function": {"kind": "character",
                     "hayes": {"theta": "1/3",
                               "short": {"s": 1, "index": 1}}},
        "phase": {"terms": [{"coef": 1, "factors": [[1, 2, 0, 1]]}]},
    }
    rows = run_experiment(cfg).rows
    assert len(rows) == 2


def test_twist_function_descriptor():
    cfg = decay_config(function={"kind": "twist",
                                 "base": {"kind": "builtin", "name": "moebius"},
                                 "hayes": {"theta": 0.5}, "conjugate": True})
    del cfg["seed"]
    rows = run_experiment(cfg).rows
    assert len(rows) == 4


def test_json_output_format():
    res = run_experiment(decay_config())
    doc = json.loads(res.to_json())
    assert doc["schema"] == "decay-table/v1"
    assert len(doc["rows"]) == 4


def test_list_builtins_text():
    text = list_builtins()
    assert "moebius" in text and "decay-table" in text


# -- CLI ------------------------------------------------------------------------


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "ffmult.cli", *args],
                          capture_output=True, text=True)


def test_cli_list_builtins():
    r = run_cli("--list-builtins")
    assert r.returncode == 0 and "zero-count-check" in r.stdout


def test_cli_run_umbrella_and_byte_identical_payload(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(decay_config(
        output={"path": str(tmp_path / "a.csv")})))
    r1 = run_cli("run", str(cfg_path))
    assert r1.returncode == 0, r1.stderr
    r2 = run_cli("run", str(cfg_path), "--output", str(tmp_path / "b.csv"))
    assert r2.returncode == 0

    def payload(path):
        return [l for l in path.read_text().splitlines() if not l.startswith("#")]

    assert payload(tmp_path / "a.csv") == payload(tmp_path / "b.csv")


def test_cli_set_wins_over_the_format_flag_for_every_command(tmp_path):
    # run and a subcommand apply --output and --format, then --set
    cfg_path = tmp_path / "tk.json"
    cfg_path.write_text(json.dumps({"kind": "tk-check", "field": {"p": 2},
                                    "n": {"start": 4, "stop": 5}, "tk": {"W": 1, "H": 4}}))
    flags = ("--set", "output.format=json", "--format", "csv")
    r1 = run_cli("run", str(cfg_path), *flags)
    r2 = run_cli("tk-check", "--config", str(cfg_path), *flags)
    assert r1.returncode == 0 and r2.returncode == 0, (r1.stderr, r2.stderr)
    assert r1.stdout == r2.stdout
    assert json.loads(r1.stdout)["schema"] == "tk-check/v1"


def test_cli_set_through_a_scalar_is_a_config_error():
    # a dotted key that descends into a number used to end in
    # "internal error: TypeError" and exit 3
    for sets, scalar in ((("tk=1", "tk.W=1"), "tk is 1"), (("field.p.x=1",), "field.p is 3")):
        r = run_cli("tk-check", "--p", "3", "--n-start", "9", "--n-stop", "9",
                    *(arg for item in sets for arg in ("--set", item)))
        key = sets[-1].partition("=")[0]
        assert r.returncode == 1, r.stderr
        assert f"config error: --set {key}: {scalar}" in r.stderr, r.stderr
        assert "internal error" not in r.stderr


_TK_FILE = {"kind": "tk-check", "field": {"p": 2}, "n": {"start": 4}, "tk": {"W": 1, "H": 4}}


def _cli_config_error(r, message):
    assert r.returncode == 1, r.stderr
    assert f"config error: {message}" in r.stderr, r.stderr
    assert "internal error" not in r.stderr


def test_cli_flag_through_a_scalar_section_is_a_config_error(tmp_path):
    # a flag set its key by hand: a number where its section belongs ended in
    # "internal error: TypeError" and exit 3, where --set field.p=3 exits 1
    cfg_path = tmp_path / "f.json"
    cfg_path.write_text(json.dumps({**_TK_FILE, "field": 5}))
    r = run_cli("tk-check", "--config", str(cfg_path), "--p", "3")
    _cli_config_error(r, "--p: field is 5, not a section of keys")


def test_cli_output_flags_through_a_scalar_output_are_a_config_error(tmp_path):
    # run applied --output and --format by hand too: exit 3
    cfg_path = tmp_path / "f.json"
    cfg_path.write_text(json.dumps({**_TK_FILE, "output": "x.csv"}))
    for flag, value in (("--format", "json"), ("--output", str(tmp_path / "y.csv"))):
        r = run_cli("run", str(cfg_path), flag, value)
        _cli_config_error(r, f'{flag}: output is "x.csv", not a section of keys')


def test_cli_config_file_that_is_not_an_object_is_a_config_error(tmp_path):
    # a JSON array read as the config: setting the kind, a flag or a --set
    # key in it ended in exit 3
    cfg_path = tmp_path / "f.json"
    cfg_path.write_text("[1, 2]")
    for args, source in ((("tk-check", "--config", str(cfg_path)), "tk-check"),
                         (("run", str(cfg_path), "--output", str(tmp_path / "x.csv")),
                          "--output"),
                         (("run", str(cfg_path), "--set", "a=1"), "--set a")):
        _cli_config_error(run_cli(*args), f"{source}: config is [1, 2], not a section of keys")


def test_cli_validation_exit_code(tmp_path):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"kind": "tk-check", "field": {"p": 2},
                                    "n": {"start": 3}, "tk": {"W": 1, "H": 3},
                                    "typo_key": 1}))
    r = run_cli("run", str(cfg_path))
    assert r.returncode == 1 and "typo_key" in r.stderr


def test_cli_budget_exit_code(tmp_path):
    cfg_path = tmp_path / "big.json"
    cfg_path.write_text(json.dumps({
        "kind": "gowers-decay", "field": {"p": 2, "r": 1},
        "n": {"start": 12, "stop": 12},
        "function": {"kind": "builtin", "name": "one"},
        "gowers": {"k": 3}}))
    r = run_cli("run", str(cfg_path))
    assert r.returncode == 2


GOWERS_U3_MOEBIUS = ("gowers-decay", "--p", "2", "--n-start", "4", "--seed", "1",
                     "--set", "function.kind=builtin", "--set", "function.name=moebius",
                     "--set", "gowers.k=3")


def test_cli_gowers_u3_charged_its_cube_operations():
    # the cube recursion does q^(kn) element operations: 2^18 at n = 6 is
    # within the default budget of 2,000,000, 2^21 at n = 7 is not
    r = run_cli(*GOWERS_U3_MOEBIUS, "--n-stop", "6")
    assert r.returncode == 0, r.stderr
    rows = [line.split(",")[0] for line in r.stdout.splitlines() if not line.startswith("#")]
    assert rows == ["4", "5", "6"]
    r = run_cli(*GOWERS_U3_MOEBIUS, "--n-stop", "7")
    assert r.returncode == 2
    assert "n=7" in r.stderr and "2097152" in r.stderr


def test_cli_subcommand_with_flag_overrides():
    r = run_cli("tk-check", "--p", "2", "--n-start", "5", "--n-stop", "6",
                "--set", "tk.W=1", "--set", "tk.H=4")
    assert r.returncode == 0
    assert "columns=n,A,lhs,ratio" in r.stdout
    assert any(line.startswith("5,") for line in r.stdout.splitlines())


def test_cli_tk_window_with_primes_of_degree_at_least_n():
    r = run_cli("tk-check", "--p", "2", "--n-start", "4", "--n-stop", "6",
                "--set", "tk.W=1", "--set", "tk.H=6")
    assert r.returncode == 0, r.stderr
    assert [line.split(",")[0] for line in r.stdout.splitlines()
            if not line.startswith("#")] == ["4", "5", "6"]


def test_cli_gowers_u2_is_charged_for_the_transform():
    # k = 2 runs u2_fourier (cost ~ q^n); it used to be charged q^(3n) and
    # refused at n = 7
    r = run_cli("gowers-decay", "--p", "2", "--n-start", "6", "--n-stop", "9",
                "--seed", "1", "--set", "function.kind=builtin",
                "--set", "function.name=moebius")
    assert r.returncode == 0, r.stderr


def _katai_config(k, n, **budget):
    cfg = {"kind": "katai-check", "field": {"p": 2, "r": 1}, "seed": 3,
           "n": {"start": n, "stop": n},
           "function": {"kind": "random", "values": "pm1"}, "katai": {"k": k}}
    if budget:
        cfg["budget"] = budget
    return cfg


def test_katai_estimate_counts_inner_terms():
    from ffmult.polys import p_k
    from ffmult.experiments import _estimated_cost
    for (p, r), k, n, pair_set in (((2, 1), 5, 13, "P_k"), ((2, 1), 7, 15, "P_k"),
                                   ((3, 1), 2, 6, "P_k"), ((2, 1), 2, 7, "G_{k+1}"),
                                   ((3, 1), 1, 4, "G_{k+1}")):
        field = build_field(p, r)
        q = field.q
        base = (list(p_k(field, k)) if pair_set == "P_k"
                else [Poly.from_index(field, i) for i in range(1, q ** (k + 1))])
        actual = sum(q ** (n - int(max(a.degree, b.degree))) for a in base for b in base)
        # the estimate reads the sections validation fills in
        cfg = {**_katai_config(k, n), "field": {"p": p, "r": r},
               "katai": {"k": k, "pair_set": pair_set}}
        assert _estimated_cost("katai-check", n, q, validate_config(cfg).sections) == actual
    for k, n, cost in ((5, 13, 33_408), (7, 15, 336_384)):
        sections = validate_config(_katai_config(k, n)).sections
        assert _estimated_cost("katai-check", n, 2, sections) == cost


def test_katai_budget_refusal_uses_the_exact_estimate():
    with pytest.raises(ConfigError) as e:
        validate_config(_katai_config(7, 15, max_evals_per_n=5000))
    assert any(p.startswith("budget:") and "336384" in p for p in e.value.problems)
    validate_config(_katai_config(5, 13))          # the benchmark's katai-random size


def test_tk_estimate_equals_the_rows_the_kernel_marks(monkeypatch):
    from ffmult import analytics
    from ffmult.experiments import _estimated_cost
    real = analytics.times_fixed_chunks
    marked = []

    def counting(*args, **kwargs):
        for chunk in real(*args, **kwargs):
            marked.append(chunk[2].size)
            yield chunk

    monkeypatch.setattr(analytics, "times_fixed_chunks", counting)
    # three of the windows hold primes of degree >= n, which mark no row (the
    # index 0 is set); three hold x (W = 0), whose multiples are copied, not
    # marked.  The estimate charges the kernel's declared rows, and also G_n
    # and the sieve of the top window degree, which here may be larger
    for (p, r), n, W, H in (((3, 1), 8, 1, 9), ((2, 1), 14, 1, 12), ((2, 1), 5, 1, 8),
                            ((2, 2), 5, 0, 7), ((5, 1), 4, 1, 4), ((2, 1), 14, 0, 14),
                            ((3, 1), 6, 0, 8)):
        field = build_field(p, r)
        marked.clear()
        analytics.turan_kubilius(field, n, W, H)
        assert analytics.tk_cost(field.q, n, W, H) == sum(marked)
    # the benchmark's tk-f3 at n = 12 and F_2 at n = 14, each with 2/3 and
    # 1/2 of the rows of mapping every cofactor (783,675 and 25,728), now
    # below q^n; and a window whose rows q^n under-estimates
    assert analytics.tk_cost(3, 12, 1, 9) == 522_450
    assert analytics.tk_cost(2, 14, 1, 12) == 12_864
    assert _estimated_cost("tk-check", 12, 3, {"tk": {"W": 1, "H": 9}}) == 3 ** 12
    assert _estimated_cost("tk-check", 14, 2, {"tk": {"W": 0, "H": 14}}) == 18_260


def test_tk_budget_refusal_uses_the_exact_estimate():
    cfg = {"kind": "tk-check", "field": {"p": 2, "r": 1}, "n": {"start": 14, "stop": 14},
           "tk": {"W": 0, "H": 14}, "budget": {"max_evals_per_n": 18_259}}
    with pytest.raises(ConfigError) as e:
        validate_config(cfg)
    assert any(p.startswith("budget:") and "18260" in p for p in e.value.problems)
    validate_config({**cfg, "budget": {"max_evals_per_n": 18_260}})
    validate_config({"kind": "tk-check", "field": {"p": 3, "r": 1},
                     "n": {"start": 9, "stop": 12}, "tk": {"W": 1, "H": 9}})


def test_tk_window_must_be_integers():
    with pytest.raises(ConfigError) as e:
        validate_config({"kind": "tk-check", "field": {"p": 2}, "n": {"start": 3},
                         "tk": {"W": 1, "H": "5"}})
    assert "tk.W, tk.H: required integers" in e.value.problems


def test_cli_no_command_prints_help():
    r = run_cli()
    assert r.returncode == 1


def distance_config(hayes, function=None):
    return {"kind": "distance-growth", "field": {"p": 3, "r": 1}, "n": {"start": 1, "stop": 3},
            "function": function or {"kind": "builtin", "name": "moebius"}, "hayes": hayes}


@pytest.mark.parametrize("hayes,problem", [
    ({"dirichlet": {"modulus": [1, 0, 1], "index": 99}}, "hayes.dirichlet.index"),
    ({"dirichlet": {"modulus": [1, 0, 1], "index": 8}}, "hayes.dirichlet.index"),
    ({"short": {"s": 1, "index": 3}}, "hayes.short.index"),
    ({"dirichlet": {"modulus": [1, 0, 1], "index": -1}}, "hayes.dirichlet.index"),
    ({"short": {"s": 2, "index": -1}}, "hayes.short.index"),
    ({"theta": "one third"}, "hayes.theta"),
    ({"theta": "1/0"}, "hayes.theta"),
    ({"dirichlet": {"modulus": [2], "index": 0}}, "hayes.dirichlet.modulus"),
    ({"dirichlet": {"modulus": [0, 0], "index": 0}}, "hayes.dirichlet.modulus"),
    ({"dirichlet": {"modulus": [1, 3], "index": 0}}, "hayes.dirichlet.modulus"),
    ({"unit_index": "1"}, "hayes.unit_index"),
])
def test_hayes_section_is_validated(hayes, problem):
    # each of these used to fail at run time (IndexError, ValueError) or,
    # for a negative index, silently pick the last character
    with pytest.raises(ConfigError) as e:
        validate_config(distance_config(hayes))
    assert [p for p in e.value.problems if p.startswith(problem)], e.value.problems


def test_function_hayes_sections_are_validated():
    # the character of a function and of a twist's base are checked too
    bad = {"dirichlet": {"modulus": [1, 0, 1], "index": 8}}
    inner = {"kind": "twist", "base": {"kind": "character", "hayes": bad},
             "hayes": {"theta": "x"}}
    with pytest.raises(ConfigError) as e:
        validate_config(distance_config({"theta": "1/3"}, inner))
    assert any(p.startswith("function.hayes.theta") for p in e.value.problems)
    assert any(p.startswith("function.base.hayes.dirichlet.index") for p in e.value.problems)
    with pytest.raises(ConfigError) as e:
        validate_config(distance_config({"theta": "1/3"}, {"kind": "character"}))
    assert "function.hayes: required for kind character" in e.value.problems


def test_hayes_indices_up_to_the_character_count_are_valid():
    # (F_3[x]/(x^2+1))^* has 8 elements, (F_3[x]/x^2)^* 6, R_2 has 9
    for hayes in ({"dirichlet": {"modulus": [1, 0, 1], "index": 7}, "unit_index": 1},
                  {"dirichlet": {"modulus": [0, 0, 2], "index": 5}, "theta": 0.25},
                  {"short": {"s": 2, "index": 8}, "theta": "2/7"}):
        cfg = distance_config(hayes)
        validate_config(cfg)
        assert len(run_experiment(cfg).rows) == 3


def test_cli_hayes_index_out_of_range_is_a_validation_error(tmp_path):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(distance_config(
        {"dirichlet": {"modulus": [1, 0, 1], "index": 99}})))
    r = run_cli("run", str(cfg_path))
    assert r.returncode == 1 and "hayes.dirichlet.index" in r.stderr


_TAIL = [1, 0, 1, 1, 0, 0, 1]


def _decay(phase=None, function=None):
    """A decay-table over F_2 with n = 3..6; the phase and function replaced."""
    return {"kind": "decay-table", "field": {"p": 2, "r": 1}, "seed": 1,
            "n": {"start": 3, "stop": 6},
            "function": function or {"kind": "builtin", "name": "moebius"},
            "phase": phase or {"terms": [{"coef": 1, "factors": [_TAIL, _TAIL]}]}}


def _katai(k=2, pair_set="P_k", n=4, **katai):
    return {"kind": "katai-check", "field": {"p": 2, "r": 1}, "n": {"start": n, "stop": n + 1},
            "function": {"kind": "builtin", "name": "moebius"},
            "katai": {"k": k, "pair_set": pair_set, **katai}}


def _monomial(*powers):
    return _decay({"monomials": [{"coef": 1, "powers": [list(pw) for pw in powers]}]})


def _one(kind, **sections):
    return {"kind": kind, "field": {"p": sections.pop("p", 2)}, "n": {"start": 2},
            "function": {"kind": "builtin", "name": "one"}, **sections}


def _bias(**bias):
    return {"kind": "bias-rank-demo", "field": {"p": 3}, "bias": bias}


def _zero_count(**zero_count):
    return {"kind": "zero-count-check", "field": {"p": 3}, "seed": 1, "zero_count": zero_count}


def _tk(W=1, H=4):
    return {"kind": "tk-check", "field": {"p": 2}, "n": {"start": 3}, "tk": {"W": W, "H": H}}


def _twist(conjugate):
    return _decay(function={"kind": "twist", "hayes": {"theta": "1/3"}, "conjugate": conjugate,
                            "base": {"kind": "builtin", "name": "moebius"}})


# each used to crash at run time with exit 3 (an internal error), or, for the
# unknown keys, to be accepted silently, or, for bias.r_values, to be refused
# as a budget overrun
INVALID_CONFIGS = {
    "phase-tail-shorter-than-n-stop": (
        _decay({"terms": [{"coef": 1, "factors": [[1, 0, 1]]}]}),
        "phase.terms[0].factors[0]: factor depth 3 too shallow for G_6"),
    "phase-coef-out-of-range": (
        _decay({"terms": [{"coef": 2, "factors": [_TAIL]}]}), "phase.terms[0].coef"),
    "phase-tail-entry-out-of-range": (
        _decay({"terms": [{"coef": 1, "factors": [[1, 0, 5, 1, 0, 0, 1]]}]}),
        "phase.terms[0].factors[0]"),
    "phase-term-without-factors": (
        _decay({"terms": [{"coef": 1}]}), "phase.terms[0].factors"),
    "phase-monomial-coordinate": (
        _monomial((4, 1)), "phase.monomials[0].powers: coordinate 4 outside G_3"),
    "phase-monomial-exponent": (
        _monomial((0, 0)), "phase.monomials[0].powers: exponent 0"),
    "phase-monomial-repeated-coordinate": (
        _monomial((0, 1), (0, 2)), "phase.monomials[0].powers: repeated coordinate 0"),
    # phase.n only deepened the tails validation demanded: the run re-wrapped
    # the phase on G_{n.stop}, so no row depended on it
    "phase-n-unknown-key": (
        _decay({"n": 7, "terms": [{"coef": 1, "factors": [_TAIL]}]}), "phase.n: unknown key"),
    "phase-term-unknown-key": (
        _decay({"terms": [{"coef": 1, "factors": [_TAIL], "coeff": 1}]}),
        "phase.terms[0].coeff: unknown key"),
    "phase-monomial-unknown-key": (
        _decay({"monomials": [{"coef": 1, "powers": [[0, 1]], "power": 1}]}),
        "phase.monomials[0].power: unknown key"),
    "builtin-without-name": (_decay(function={"kind": "builtin"}), "function.name"),
    "unknown-builtin": (_decay(function={"kind": "builtin", "name": "mobius"}), "function.name"),
    "random-values": (_decay(function={"kind": "random", "values": "gauss"}),
                      "function.values"),
    "random-base-without-seed": (
        {**_decay(function={"kind": "twist", "hayes": {"theta": "1/3"},
                            "base": {"kind": "random"}}), "seed": None},
        "seed: required"),
    "random-seed-not-an-integer": (
        _decay(function={"kind": "random", "seed": "4"}), "function.seed"),
    "katai-k-below-1": (_katai(k=0), "katai.k"),
    "katai-unknown-pair-set": (_katai(pair_set="G_k"), "katai.pair_set"),
    "katai-n-below-pair-degrees": (
        _katai(k=3, n=3), "n.start: n too small for the chosen pair degrees"),
    "katai-g-n-below-pair-degrees": (
        _katai(k=3, pair_set="G_{k+1}", n=2), "n.start: n too small"),
    "gowers-k-below-1": (_one("gowers-decay", gowers={"k": 0}), "gowers.k"),
    "gowers-k-not-an-integer": (_one("gowers-decay", gowers={"k": "3"}), "gowers.k"),
    "ap-default-k-over-f2": (_one("ap-decay"), "ap.k"),
    "ap-default-k-over-f3": (_one("ap-decay", p=3), "ap.k"),
    "ap-k-below-2": (_one("ap-decay", p=5, ap={"k": 1}), "ap.k"),
    "tk-window-without-a-degree": (
        {"kind": "tk-check", "field": {"p": 2}, "n": {"start": 3}, "tk": {"W": 3, "H": 4}},
        "tk.H"),
    "tk-window-below-degree-1": (
        {"kind": "tk-check", "field": {"p": 2}, "n": {"start": 3}, "tk": {"W": -3, "H": 1}},
        "tk.H"),
    "bias-r-above-slot-dim": (
        {"kind": "bias-rank-demo", "field": {"p": 3},
         "bias": {"r_values": [1, 4], "slot_dim": 3}},
        "bias.r_values: r=4 above slot_dim=3"),
    # crashed the cost estimate in validate_config itself (exit 3)
    "bias-slot-dim-a-string": (_bias(slot_dim="3"), "bias.slot_dim"),
    "bias-arity-0": (_bias(arity=0), "bias.arity"),
    "bias-r-values-a-string": (_bias(r_values="12"), "bias.r_values"),
    "bias-r-0": (_bias(r_values=[0]), "bias.r_values"),
    "zero-count-dim-a-string": (_zero_count(dim="3"), "zero_count.dim"),
    "zero-count-dim-0": (_zero_count(dim=0), "zero_count.dim"),
    "zero-count-trials-a-string": (_zero_count(trials="2"), "zero_count.trials"),
    "zero-count-trials-negative": (_zero_count(trials=-1), "zero_count.trials"),
    "zero-count-max-degree-0": (_zero_count(max_total_degree=0), "zero_count.max_total_degree"),
    "zero-count-max-degree-a-float": (
        _zero_count(max_total_degree=1.5), "zero_count.max_total_degree"),
    # read for truthiness: the string "false" selected per-pair mode, a conjugate twist
    "katai-per-pair-a-string": (_katai(per_pair="false"), "katai.per_pair"),
    "twist-conjugate-a-string": (_twist("false"), "function.conjugate"),
    # booleans are Python ints: gowers.k = true ran as k = 1
    "katai-k-true": (_katai(k=True), "katai.k"),
    "gowers-k-true": (_one("gowers-decay", gowers={"k": True}), "gowers.k"),
    "ap-k-true": (_one("ap-decay", p=5, ap={"k": True}), "ap.k"),
    "tk-w-true": (_tk(W=True), "tk.W, tk.H: required integers"),
    "tk-h-true": (_tk(W=-1, H=True), "tk.W, tk.H: required integers"),
    # booleans read as integers in these keys too: n.start = true ran as 1, and
    # budget.max_evals_per_n = true was refused as a budget overrun (exit 2);
    # field.p = true was already refused, since 1 is not prime
    "field-p-true": ({**_tk(), "field": {"p": True}}, "field.p"),
    "field-r-true": ({**_tk(), "field": {"p": 3, "r": True}}, "field.r"),
    "n-start-true": ({**_tk(), "n": {"start": True, "stop": 2}}, "n.start"),
    "n-stop-true": ({**_tk(), "n": {"start": 1, "stop": True}}, "n.stop"),
    "seed-true": ({**_tk(), "seed": True}, "seed: must be an integer"),
    "function-seed-true": (_decay(function={"kind": "random", "seed": True}), "function.seed"),
    "budget-true": ({**_tk(), "budget": {"max_evals_per_n": True}},
                    "budget.max_evals_per_n"),
    "phase-coef-true": (_decay({"terms": [{"coef": True, "factors": [_TAIL]}]}),
                        "phase.terms[0].coef"),
    "phase-monomial-powers-true": (_monomial((True, 1)), "phase.monomials[0].powers"),
    "dirichlet-modulus-true": (distance_config({"dirichlet": {"modulus": [True, 0, 1]}}),
                               "hayes.dirichlet.modulus"),
    "dirichlet-index-true": (
        distance_config({"dirichlet": {"modulus": [1, 0, 1], "index": True}}),
        "hayes.dirichlet.index"),
    "short-index-true": (distance_config({"short": {"s": 1, "index": True}}),
                         "hayes.short.index"),
    "short-s-true": (distance_config({"short": {"s": True}}), "hayes.short.s"),
    "unit-index-true": (distance_config({"unit_index": True}), "hayes.unit_index"),
    # no runner makes a scalar f(g) call, so the key changed no row
    "field-factor-degree-bound": ({**_tk(), "field": {"p": 2, "factor_degree_bound": 1}},
                                  "field.factor_degree_bound: unknown key"),
    # output.path = 2 wrote the payload to stderr and closed it, true wrote it
    # to stdout and then failed with EBADF, a list ended in exit 3
    "output-path-a-number": ({**_tk(), "output": {"path": 2}}, "output.path: must be a string"),
    "output-path-true": ({**_tk(), "output": {"path": True}}, "output.path: must be a string"),
    # a twist's base was never key-checked, at any depth
    "twist-base-unknown-key": (
        _decay(function={"kind": "twist", "hayes": {"theta": "1/3"},
                         "base": {"kind": "builtin", "name": "moebius", "nmae": "liouville"}}),
        "function.base.nmae: unknown key"),
    "twist-base-of-base-unknown-key": (
        _decay(function={"kind": "twist", "hayes": {"theta": "1/3"},
                         "base": {"kind": "twist", "hayes": {"theta": "1/5"},
                                  "base": {"kind": "builtin", "name": "one", "seeds": 1}}}),
        "function.base.base.seeds: unknown key"),
    # validation itself ended in AttributeError (exit 3)
    "field-not-an-object": ({**_tk(), "field": 5}, "field: expected an object"),
    # reported twice: by the section-key pass and again by the Hayes check
    "hayes-unknown-key": (distance_config({"theta": 0.5, "thetaa": 1}),
                          "hayes.thetaa: unknown key"),
    "function-hayes-unknown-key": (
        distance_config({"theta": "1/3"}, {"kind": "character", "hayes": {"thetaa": 1}}),
        "function.hayes.thetaa: unknown key"),
}


@pytest.mark.parametrize("case", sorted(INVALID_CONFIGS))
def test_invalid_section_values_are_validation_problems(case):
    cfg, problem = INVALID_CONFIGS[case]
    with pytest.raises(ConfigError) as e:
        validate_config(cfg)
    assert len([p for p in e.value.problems if p.startswith(problem)]) == 1, e.value.problems
    assert not any(p.startswith("budget:") for p in e.value.problems)


# the valid boundary of each rule above
VALID_BOUNDARIES = {
    "phase-tail-of-depth-n-stop": _decay({"terms": [{"coef": 1, "factors": [_TAIL[:6]]}]}),
    "phase-largest-coef-and-entry": _decay({"terms": [{"coef": 1, "factors": [[1] * 6]}]}),
    "phase-monomial-coordinate-n-start-minus-1": _monomial((2, 1), (0, 3)),
    "builtin-liouville": _decay(function={"kind": "builtin", "name": "liouville"}),
    "random-unit": _decay(function={"kind": "random", "values": "unit"}),
    "twist-of-random-pm1": _decay(function={"kind": "twist", "hayes": {"theta": "1/3"},
                                            "base": {"kind": "random", "values": "pm1"}}),
    "katai-k-1": _katai(k=1, n=2),
    "katai-n-at-pair-degrees": _katai(k=3, n=4),
    "katai-g-n-at-pair-degrees": _katai(k=3, pair_set="G_{k+1}", n=3),
    "gowers-k-1": _one("gowers-decay", gowers={"k": 1}),
    "ap-default-k-over-f5": _one("ap-decay", p=5),
    "ap-k-2-over-f3": _one("ap-decay", p=3, ap={"k": 2}),
    "tk-window-of-one-degree": {"kind": "tk-check", "field": {"p": 2}, "n": {"start": 3},
                                "tk": {"W": 2, "H": 4}},
    "bias-r-at-slot-dim": {"kind": "bias-rank-demo", "field": {"p": 3},
                           "bias": {"r_values": [3], "slot_dim": 3}},
    "bias-slot-dim-1": _bias(slot_dim=1, r_values=[1]),
    "bias-arity-1": _bias(arity=1),
    "bias-r-1": _bias(r_values=[1]),
    "zero-count-dim-1": _zero_count(dim=1, trials=2),
    "zero-count-trials-1": _zero_count(trials=1),
    "zero-count-max-degree-1": _zero_count(max_total_degree=1, trials=2),
    "katai-per-pair-false": _katai(per_pair=False),
    "katai-per-pair-true": _katai(per_pair=True),
    "twist-conjugate-true": _twist(True),
    "tk-w-0": _tk(W=0, H=2),
}


@pytest.mark.parametrize("case", sorted(VALID_BOUNDARIES))
def test_section_value_boundaries_are_valid_and_run(case):
    cfg = VALID_BOUNDARIES[case]
    validate_config(cfg)
    assert run_experiment(cfg).rows


# each passed validation and ended in exit 3: F_1021 and F_{2^10} on the
# table limit, r = 100000 on printing 2^100000, and the primality test of
# p = 10^18 + 3 did not end
OVERSIZED_FIELDS = [(1021, 1), (2, 10), (2, 100000), (10 ** 18 + 3, 1)]


@pytest.mark.parametrize("p,r", OVERSIZED_FIELDS)
def test_fields_over_the_table_limit_are_one_validation_problem(p, r):
    problem = "field.p, field.r: q = p^r is over 512, too large for table-driven arithmetic"
    start = time.perf_counter()
    with pytest.raises(ConfigError) as e:
        validate_config({**_one("gowers-decay"), "field": {"p": p, "r": r}})
    assert time.perf_counter() - start < 1.0
    assert e.value.problems == [problem]
    _cli_config_error(run_cli("gowers-decay", "--p", str(p), "--r", str(r), "--n-start", "1",
                              "--set", "function.kind=builtin", "--set", "function.name=one"),
                      problem)


def test_cli_section_value_problems_exit_1():
    for case in ("phase-monomial-coordinate", "katai-k-below-1", "bias-r-above-slot-dim",
                 "bias-slot-dim-a-string", "zero-count-dim-a-string", "katai-per-pair-a-string",
                 "budget-true"):
        cfg, problem = INVALID_CONFIGS[case]
        r = run_cli(cfg["kind"], "--set", f"field.p={cfg['field']['p']}",
                    *(f"--set={key}={json.dumps(value)}" for key, value in cfg.items()
                      if key not in ("kind", "field")))
        assert r.returncode == 1 and problem in r.stderr, (case, r.stderr)


def test_cli_gowers_u2_obeys_the_config_budget():
    # 5^9 = 1,953,125 is within the default budget of 2,000,000, which
    # u2_fourier reads from the run's field
    r = run_cli("gowers-decay", "--p", "5", "--n-start", "9", "--n-stop", "9",
                "--set", "function.kind=builtin", "--set", "function.name=moebius")
    assert r.returncode == 0, r.stderr
    assert [line.split(",")[0] for line in r.stdout.splitlines()
            if not line.startswith("#")] == ["9"]


# -- one budget: validation refuses exactly what the run refuses ----------------------

_MOEBIUS = {"kind": "builtin", "name": "moebius"}
_TAIL9 = [1, 0, 1, 1, 0, 0, 1, 1, 0]

# small configs per kind, with costs that cross 2^6..2^14 in different charges
AGREEMENT_GRID = {
    "gowers-k1": {"kind": "gowers-decay", "field": {"p": 2}, "n": {"start": 5, "stop": 8},
                  "function": _MOEBIUS, "gowers": {"k": 1}},
    "gowers-k2": {"kind": "gowers-decay", "field": {"p": 3}, "n": {"start": 2, "stop": 5},
                  "function": _MOEBIUS, "gowers": {"k": 2}},
    "gowers-k3": {"kind": "gowers-decay", "field": {"p": 2}, "n": {"start": 2, "stop": 4},
                  "function": _MOEBIUS, "gowers": {"k": 3}},
    "ap-k3-f5": {"kind": "ap-decay", "field": {"p": 5}, "n": {"start": 1, "stop": 2},
                 "function": _MOEBIUS, "ap": {"k": 3}},
    "ap-k4-f5": {"kind": "ap-decay", "field": {"p": 5}, "n": {"start": 1, "stop": 2},
                 "function": _MOEBIUS, "ap": {"k": 4}},
    # window degrees above n/2 and above n: the sieve of degree 9 dominates
    "tk-window-above-n": {"kind": "tk-check", "field": {"p": 2}, "n": {"start": 4, "stop": 5},
                          "tk": {"W": 1, "H": 10}},
    # the marked rows dominate
    "tk-window-rows": {"kind": "tk-check", "field": {"p": 2}, "n": {"start": 8, "stop": 10},
                       "tk": {"W": 0, "H": 6}},
    "tk-window-f3": {"kind": "tk-check", "field": {"p": 3}, "n": {"start": 3, "stop": 5},
                     "tk": {"W": 1, "H": 5}},
    "katai-p-k": {"kind": "katai-check", "field": {"p": 2}, "seed": 3,
                  "n": {"start": 3, "stop": 6}, "function": {"kind": "random"},
                  "katai": {"k": 2}},
    "katai-g-k": {"kind": "katai-check", "field": {"p": 3}, "n": {"start": 2, "stop": 4},
                  "function": _MOEBIUS, "katai": {"k": 1, "pair_set": "G_{k+1}"}},
    # the residues of a degree-7 modulus dominate
    "distance-dirichlet": {"kind": "distance-growth", "field": {"p": 2},
                           "n": {"start": 1, "stop": 4}, "function": _MOEBIUS,
                           "hayes": {"dirichlet": {"modulus": [1, 1, 0, 0, 0, 0, 0, 1]}}},
    # R_8 dominates
    "distance-short": {"kind": "distance-growth", "field": {"p": 2},
                       "n": {"start": 1, "stop": 5}, "function": _MOEBIUS,
                       "hayes": {"short": {"s": 8, "index": 5}, "theta": "1/3"}},
    "decay-moebius": {**_decay(), "n": {"start": 3, "stop": 7}},
    # a twist whose base is a character on R_7, over G_2..G_5
    "decay-twist-of-character": {
        **_decay({"terms": [{"coef": 1, "factors": [_TAIL9]}]}), "n": {"start": 2, "stop": 5},
        "function": {"kind": "twist", "hayes": {"theta": "1/5"},
                     "base": {"kind": "character", "hayes": {"short": {"s": 7, "index": 9}}}}},
    "bias-f2": _bias(slot_dim=3, arity=3, r_values=[1, 3]) | {"field": {"p": 2}},
    "bias-f3": _bias(slot_dim=2, arity=3, r_values=[1, 2]),
    "zero-count-f3": _zero_count(dim=5, trials=3, max_total_degree=2),
    # N up to 20 sieves degrees 11..20 in one block of about 2^21 monic
    # indices: each degree is charged q^d, never the block
    "distance-block": {"kind": "distance-growth", "field": {"p": 2},
                       "n": {"start": 19, "stop": 20}, "function": _MOEBIUS,
                       "hayes": {"theta": "1/3"}},
}

# the budget exponents of the grid, where 2^6..2^14 does not reach a config
AGREEMENT_EXPONENTS = {"distance-block": range(18, 21)}


def _validates(cfg, budget: int) -> bool:
    try:
        validate_config({**cfg, "budget": {"max_evals_per_n": budget}})
    except ConfigError as e:
        assert all(p.startswith("budget:") for p in e.problems), e.problems
        return False
    return True


def _runs_within(cfg, budget: int) -> bool:
    """The run of cfg on a field of `budget`, with validation's estimate skipped."""
    unchecked = validate_config({**cfg, "budget": {"max_evals_per_n": 10 ** 12}})
    try:
        run_experiment(dataclasses.replace(unchecked, budget=budget))
    except BudgetError:
        return False
    return True


@pytest.mark.parametrize("case", sorted(AGREEMENT_GRID))
def test_validation_accepts_exactly_what_the_run_accepts(case):
    cfg = AGREEMENT_GRID[case]
    outcomes = [(_validates(cfg, 2 ** e), _runs_within(cfg, 2 ** e))
                for e in AGREEMENT_EXPONENTS.get(case, range(6, 15))]
    assert all(valid == runs for valid, runs in outcomes), outcomes
    # the grid crosses each config's largest charge, or holds it
    assert outcomes[-1][0]


def test_the_config_budget_is_the_run_fields_cap():
    cfg = validate_config({**_tk(), "budget": {"max_evals_per_n": 12345}})
    assert cfg.build_field().enumeration_budget == 12345
    from ffmult.fields import DEFAULT_BUDGET
    assert validate_config(_tk()).build_field().enumeration_budget == DEFAULT_BUDGET == 2_000_000


def test_gowers_u1_builds_no_addition_table():
    # G_13 over F_2 has 8,192 elements: the 2^26-entry addition table used to be
    # refused at this default budget (a fixed cap of 4,096), though U^1 reads no row
    cfg = {"kind": "gowers-decay", "field": {"p": 2}, "seed": 5, "n": {"start": 1, "stop": 13},
           "function": {"kind": "random", "values": "unit"}, "gowers": {"k": 1}}
    rows = run_experiment(cfg).rows
    assert [n for n, _ in rows] == list(range(1, 14))
    # the values before the change, n = 1..12
    assert [norm for _, norm in rows[:12]] == [
        0.5, 0.28795335815553835, 0.17124787693777951, 0.1226298370171745,
        0.03325690759345127, 0.06418456465126593, 0.06203950709432903,
        0.05892607830847393, 0.02421193693558483, 0.03061503900995602,
        0.017816864123396933, 0.016449313273082758]
    moebius = {**cfg, "function": _MOEBIUS, "n": {"start": 13, "stop": 13}}
    assert run_experiment(moebius).rows == [(13, 2.0 ** -13)]


def test_configs_within_the_budget_run_past_the_old_field_cap():
    # each was refused at run time by the field's separate cap of 2^21 after
    # validation had passed it
    distance = {"kind": "distance-growth", "field": {"p": 2}, "n": {"start": 20, "stop": 22},
                "function": _MOEBIUS, "hayes": {"theta": "1/3"},
                "budget": {"max_evals_per_n": 10 ** 8}}
    assert [row[0] for row in run_experiment(distance).rows] == [20, 21, 22]
    tk = {"kind": "tk-check", "field": {"p": 3}, "n": {"start": 13, "stop": 14},
          "tk": {"W": 0, "H": 6}, "budget": {"max_evals_per_n": 10 ** 8}}
    assert [row[0] for row in run_experiment(tk).rows] == [13, 14]


def test_charges_the_old_estimate_missed_are_refused_at_validation():
    # U^3 bound of a 4-term progression: 5^6 = 15,625 operations at n = 2
    ap = {"kind": "ap-decay", "field": {"p": 5}, "n": {"start": 2, "stop": 2},
          "function": _MOEBIUS, "ap": {"k": 4}, "budget": {"max_evals_per_n": 1000}}
    # the window counts on G_21 (2,097,152) exceed the default budget; the
    # 190,464 marked rows do not
    tk = {"kind": "tk-check", "field": {"p": 2}, "n": {"start": 21, "stop": 21},
          "tk": {"W": 10, "H": 12}}
    for cfg, problem in ((ap, "budget: n=2 needs 15625"), (tk, "budget: n=21 needs 2097152")):
        with pytest.raises(ConfigError) as e:
            validate_config(cfg)
        assert [p for p in e.value.problems if p.startswith(problem)], e.value.problems
