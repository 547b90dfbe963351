"""One fresh-process run of a workload config; the benchmark's child process.

    python3 perfbench/worker.py MODE CONFIG_JSON CSV_OUT RUN_ID

MODE is one of
  warmup  compile ffmult's and the benchmark's bytecode, import ffmult and
          numpy, then exit (fills bytecode and file caches);
  timed   run the config the way `ffmult run` does: validate_config, then
          run_experiment streaming CSV to CSV_OUT, followed by correctness
          checks outside the timed interval;
  replay  the traced run: the same experiment, driven call by call through
          ffmult's public functions with a span around each call.

In timed and replay mode the host-speed probe (hostspeed.py) runs every
20 ms from the first line on, and its samples go back with the result.
Prints one JSON object on the last line of stdout.  ffmult is imported from
the checkout's `src/`, never from an installed copy.
"""

from __future__ import annotations

import compileall
import hashlib
import json
import math
import resource
import sys
import time
from pathlib import Path

from hostspeed import Probe

ROOT = Path(__file__).resolve().parent.parent


def _emit(obj: dict):
    print(json.dumps(obj))


def _import_ffmult():
    sys.path.insert(0, str(ROOT / "src"))
    import ffmult
    if not Path(ffmult.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"ffmult imported from {ffmult.__file__}, not from the checkout")
    return ffmult


# -- correctness checks that do not come from the computation they check ---------


def independent_check(cfg, rows: list[str]) -> tuple[bool, str]:
    import numpy as np
    from ffmult import (LaurentTruncation, PolynomialPhase, builtin,
                        irreducible_count, phase_character_array, sample_on_gn)

    values = [[float(x) for x in line.split(",")] for line in rows]
    expect_n = list(range(cfg.n_start, cfg.n_stop + 1))
    if [int(v[0]) for v in values] != expect_n:
        return False, f"rows cover n={[v[0] for v in values]}, expected {expect_n}"
    field = cfg.build_field()
    if cfg.kind == "decay-table":
        n = cfg.n_start
        terms = [(t["coef"], tuple(LaurentTruncation(field, f) for f in t["factors"]))
                 for t in cfg.sections["phase"]["terms"]]
        mu = builtin(field, cfg.sections["function"]["name"])
        ref = np.mean(sample_on_gn(field, n, mu)
                      * phase_character_array(PolynomialPhase(field, n, terms)))
        err = float(max(abs(values[0][2] - ref.real), abs(values[0][3] - ref.imag)))
        return err <= 1e-12, f"n={n} mean vs numpy reference differs by {err:.3g}"
    if cfg.kind == "tk-check":
        W, H = cfg.sections["tk"]["W"], cfg.sections["tk"]["H"]
        A = math.fsum(field.q ** -d * irreducible_count(field, d)
                      for d in range(max(W + 1, 1), H))
        err = max(abs(v[1] - A) for v in values)
        return err <= 1e-12, f"A vs necklace-formula sum differs by {err:.3g}"
    if cfg.kind == "katai-check":
        bad = [v for v in values if not 0.0 <= v[1] <= 1.0]
        return not bad, f"statistics outside [0, 1]: {bad}"
    if cfg.kind == "distance-growth":
        D = [v[1] for v in values]
        drops = [i for i in range(1, len(D)) if D[i] < D[i - 1]]
        return not drops, f"D decreases at N index {drops}"
    return False, f"no independent check for kind {cfg.kind}"


# -- the traced replay ----------------------------------------------------------------


def _warm_sieve(tr, field, top: int):
    """Sieve degrees 1..top in order, so each call builds exactly one degree."""
    from ffmult import irreducible_count, irreducibles_of_degree
    for d in range(1, top + 1):
        with tr.span("polys.sieve", d=d):
            irreducibles_of_degree(field, d)
        tr.add("polys.irreducibles", irreducible_count(field, d))
        tr.add("polys.sieve_marks", sum(irreducible_count(field, e) * field.q ** (d - e)
                                        for e in range(1, d // 2 + 1)))


def _replay_decay(cfg, field, tr):
    from ffmult import Poly, PolynomialPhase, analytics, experiments, factor
    with tr.span("experiments.resolve"):
        nu = experiments.resolve_function(field, cfg.sections["function"], cfg.seed)
    # trial division never needs a divisor above half the largest degree
    _warm_sieve(tr, field, (cfg.n_stop - 1) // 2)
    q = field.q
    with tr.span("polys.factor"):
        for idx in range(q, q ** cfg.n_stop):
            factor(Poly.from_index(field, idx))
    tr.add("polys.factor_calls", q ** cfg.n_stop - q)
    f = tr.timed(nu)
    for n in range(cfg.n_start, cfg.n_stop + 1):
        with tr.span("experiments.resolve"):
            P = experiments.resolve_phase(field, cfg.sections["phase"], cfg.n_stop)
        with tr.span("phases.array", n=n):
            arr = analytics.phase_character_array(
                PolynomialPhase(field, n, P.product_terms, P.monomial_terms))
        with tr.span("analytics.correlate", n=n):
            mean = analytics.correlate(field, f, arr, n, cfg.domain)
        yield (n, abs(mean), mean.real, mean.imag, q ** n)


def _replay_katai(cfg, field, tr):
    from ffmult import Poly, analytics, experiments, factor, p_k
    with tr.span("experiments.resolve"):
        nu = experiments.resolve_function(field, cfg.sections["function"], cfg.seed)
    sec = cfg.sections.get("katai", {})
    k, pair_set, per_pair = sec.get("k", 2), sec.get("pair_set", "P_k"), sec.get("per_pair", False)
    q, top_n = field.q, cfg.n_stop
    # degrees touched: the pair set, trial division, and the random values of
    # every prime factor of a*g, whose cofactor g has degree < n - k
    _warm_sieve(tr, field, max(k + 1, (top_n - 1) // 2, top_n - k - 1))
    base = list(p_k(field, k))
    with tr.span("polys.factor"):
        products = {a * Poly.from_index(field, gi)
                    for a in base for gi in range(1, q ** (top_n - int(a.degree)))}
        for h in products:
            factor(h)
    tr.add("polys.factor_calls", len(products))
    f = tr.timed(nu)
    for n in range(cfg.n_start, cfg.n_stop + 1):
        with tr.span("analytics.katai", n=n):
            stat = analytics.katai_statistic(field, f, n, k, pair_set, per_pair)
        tr.add("analytics.katai_pairs", len(base) ** 2)
        tr.add("analytics.katai_inner_evals",
               sum(q ** (n - int(max(a.degree, b.degree))) for a in base for b in base))
        yield (n, stat)


def _replay_distance(cfg, field, tr):
    from ffmult import analytics, experiments, from_character
    # the function is not wrapped: pretentious_distance branches on its type
    with tr.span("experiments.resolve"):
        f = experiments.resolve_function(field, cfg.sections["function"], cfg.seed)
        target = from_character(experiments.resolve_hayes(field, cfg.sections["hayes"]))
    _warm_sieve(tr, field, cfg.n_stop)
    for N in range(cfg.n_start, cfg.n_stop + 1):
        with tr.span("analytics.distance", N=N):
            D = analytics.pretentious_distance(f, target, N)
        yield (N, D)


def _probe_hayes(cfg, field, tr):
    """Extra work, after the traced window closes: the Hayes character at every
    irreducible of degree <= N, which pretentious_distance evaluates inside."""
    from ffmult import experiments, irreducibles_of_degree
    H = experiments.resolve_hayes(field, cfg.sections["hayes"])
    count = 0
    with tr.span("characters.hayes_eval"):
        for d in range(1, cfg.n_stop + 1):
            for p in irreducibles_of_degree(field, d):
                H(p)
                count += 1
    tr.add("characters.hayes_evals", count)


def _replay_tk(cfg, field, tr):
    from ffmult import analytics, irreducible_count
    W, H = cfg.sections["tk"]["W"], cfg.sections["tk"]["H"]
    _warm_sieve(tr, field, H - 1)
    for n in range(cfg.n_start, cfg.n_stop + 1):
        with tr.span("analytics.tk", n=n):
            res = analytics.turan_kubilius(field, n, W, H)
        tr.add("analytics.tk_cofactor_rows",
               sum(irreducible_count(field, d) * field.q ** (n - d)
                   for d in range(max(W + 1, 1), H)))
        yield (n, res.A, res.lhs, res.ratio)


REPLAYS = {"decay-table": _replay_decay, "katai-check": _replay_katai,
           "distance-growth": _replay_distance, "tk-check": _replay_tk}
PROBES = {"distance-growth": _probe_hayes}


def replay(raw: dict, out_path: str, run_id: int) -> dict:
    from spans import Tracer
    from ffmult import experiments
    tr = Tracer(run_id)
    with tr.span("experiments.validate"):
        cfg = experiments.validate_config(raw)
    t_valid = time.perf_counter()
    columns = experiments.COLUMNS[cfg.kind]
    rows = []
    with open(out_path, "w") as fh:
        with tr.span("fields.build"):
            field = cfg.build_field()
        for row in REPLAYS[cfg.kind](cfg, field, tr):
            line = list(experiments.ExperimentResult(cfg.kind, columns, [row], {})
                        .csv_lines())[-1]
            fh.write(line + "\n")
            fh.flush()
            rows.append(line)
            tr.add("experiments.rows", 1)
        t_done = time.perf_counter()
    if cfg.kind in PROBES:
        PROBES[cfg.kind](cfg, field, tr)
    return {"status": "ok", "window_start": t_valid, "window_end": t_done,
            "rows": rows, "spans": tr.spans, "counts": tr.counts,
            "eval": tr.eval_stats()}


# -- the timed run ----------------------------------------------------------------------


def timed_run(raw: dict, out_path: str, probe) -> dict:
    from ffmult import experiments
    cfg = experiments.validate_config(raw)
    t_valid = time.perf_counter()
    with open(out_path, "w") as fh:
        experiments.run_experiment(cfg, stream=fh)
        t_done = time.perf_counter()
    probe.stop()
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    payload = Path(out_path).read_bytes()
    rows = [line for line in payload.decode().splitlines() if not line.startswith("#")]
    ok, detail = independent_check(cfg, rows)
    return {"status": "ok", "t_validated": t_valid, "t_done": t_done,
            "probe": probe.samples, "peak_rss_mb": rss_mib, "sha256": hashlib.sha256(payload).hexdigest(),
            "rows": rows, "check_ok": ok, "check_detail": detail}


def main(argv) -> int:
    mode, cfg_path, out_path, run_id = argv
    if mode == "warmup":
        # written even under PYTHONDONTWRITEBYTECODE, as an installed CLI has
        # it; otherwise every run would compile ffmult again
        for pkg in (ROOT / "src" / "ffmult", Path(__file__).resolve().parent):
            compileall.compile_dir(str(pkg), maxlevels=0, quiet=1)
        ffmult = _import_ffmult()
        import numpy
        _emit({"status": "ok", "numpy": numpy.__version__, "ffmult": ffmult.__version__})
        return 0
    probe = Probe()
    probe.start()
    try:
        ffmult = _import_ffmult()
        raw = json.loads(Path(cfg_path).read_text())
        try:
            out = (timed_run(raw, out_path, probe) if mode == "timed"
                   else replay(raw, out_path, int(run_id)))
        except (ffmult.BudgetError, ffmult.ConfigError) as e:
            out = {"status": "refused", "detail": f"{type(e).__name__}: {e}"}
    finally:
        probe.stop()
    _emit(out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
