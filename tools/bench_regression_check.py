#!/usr/bin/env python3
"""Compare freshly generated BENCH_*.json against committed baselines.

Reads the two perf baselines the repo keeps at its root —

  BENCH_lock_manager.json  google-benchmark JSON (aggregates only); the
                           *_median real_time per benchmark family is the
                           compared statistic (medians are robust to the
                           odd slow repetition on shared runners);
  BENCH_overhead.json      bench_overhead --json; every "throughput_tps"
                           value in the document is compared (higher is
                           better);
  BENCH_lease.json         bench_lease --json; compared like
                           BENCH_overhead.json;
  BENCH_contention.json    bench_contention --json; every per-thread-count
                           "throughput_ops_s" in every series is compared
                           (higher is better);
  BENCH_ring.json          bench_ring --json; compared like
                           BENCH_overhead.json (out-of-process serving
                           transport overhead, DESIGN.md §13).

Baselines are only comparable on the same class of machine and build:
when both documents carry a "context" block, a library_build_type
mismatch refuses the comparison (exit 1) and a num_cpus mismatch skips
the cross-run series comparison with a loud warning — pass
--allow-context-mismatch to downgrade the refusal to a warning.

and prints one line per metric with the relative delta.  A metric whose
delta is worse than the threshold (default 15%) counts as a regression;
improvements are reported but never fail.  CI runs this warn-only for
moderate regressions (shared-runner numbers are indicative, see
EXPERIMENTS.md "Performance methodology"), but a delta beyond the fail
threshold (default 30%) is beyond shared-runner noise and always exits
non-zero.  Pass --strict to make *every* regression fatal on controlled
machines.

A file absent from either directory is skipped with a message — unless it
is named in --expect, in which case its absence (or an unreadable /
corrupt / context-less document) is a hard error (exit 2) with a hint on
how to regenerate it.  Operational mistakes never print a traceback.

Usage:
  tools/bench_regression_check.py --baseline-dir DIR --fresh-dir DIR
                                  [--threshold 0.15] [--fail-threshold 0.30]
                                  [--strict] [--expect BENCH_a.json,...]

Only the Python standard library is used.
"""

import argparse
import json
import os
import sys

REGEN_HINT = ("hint: regenerate baselines with tools/codlock_bench_json "
              "<build-dir> (requires CODLOCK_BUILD_BENCHMARKS=ON; writes "
              "every BENCH_*.json at the repo root)")


class BenchCheckError(Exception):
    """An operational error (missing/corrupt input) with a remedy attached.

    Raised instead of letting OSError/JSONDecodeError escape: the CI log
    should show what to do, not a traceback."""


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except OSError as e:
        raise BenchCheckError(
            f"cannot read {path}: {e.strerror or e}\n{REGEN_HINT}")
    except json.JSONDecodeError as e:
        raise BenchCheckError(
            f"{path} is not valid JSON (line {e.lineno}: {e.msg}) — the "
            f"capture was probably interrupted\n{REGEN_HINT}")


def require_context(name, doc, which, expected):
    """An expected document without a "context" block cannot gate CI: the
    machine/build class it was captured on is unknown."""
    if name in expected and not isinstance(doc.get("context"), dict):
        raise BenchCheckError(
            f"{which} {name} has no \"context\" block — pre-context "
            f"captures cannot serve as gating baselines\n{REGEN_HINT}")


def lock_manager_medians(doc):
    """Map benchmark family -> median real_time (ns) from google-benchmark
    aggregate output."""
    out = {}
    for b in doc.get("benchmarks", []):
        if b.get("aggregate_name") == "median":
            out[b["run_name"]] = (float(b["real_time"]),
                                  b.get("time_unit", "ns"))
    return out


def throughput_metrics(doc, prefix=""):
    """Recursively collect every "throughput_tps" value with its JSON path."""
    out = {}
    if isinstance(doc, dict):
        for key, value in doc.items():
            path = f"{prefix}.{key}" if prefix else key
            if key == "throughput_tps" and isinstance(value, (int, float)):
                out[prefix or key] = float(value)
            else:
                out.update(throughput_metrics(value, path))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            out.update(throughput_metrics(value, f"{prefix}[{i}]"))
    return out


def contention_metrics(doc):
    """Map "series.threads" -> throughput_ops_s from bench_contention."""
    out = {}
    for series, points in doc.get("series", {}).items():
        for threads, point in points.items():
            tput = point.get("throughput_ops_s")
            if isinstance(tput, (int, float)):
                out[f"{series}.t{threads}"] = float(tput)
    return out


def check_context(name, base_doc, fresh_doc, allow_mismatch):
    """Compares the "context" blocks of two baseline documents.

    Returns (comparable, fatal).  A library_build_type mismatch makes the
    cross-run comparison meaningless (debug vs release numbers differ by
    integer factors): it is fatal unless --allow-context-mismatch.  A
    num_cpus mismatch skips the cross-run comparison with a warning —
    per-thread scaling curves from different machines do not line up.
    Documents without a context block (pre-context captures) compare as
    before.
    """
    base_ctx = base_doc.get("context")
    fresh_ctx = fresh_doc.get("context")
    if not isinstance(base_ctx, dict) or not isinstance(fresh_ctx, dict):
        return True, False
    b_build = base_ctx.get("library_build_type")
    f_build = fresh_ctx.get("library_build_type")
    if b_build != f_build:
        print(f"  {name}: context mismatch — library_build_type "
              f"baseline={b_build!r} fresh={f_build!r}"
              + ("" if allow_mismatch else " (refusing comparison; pass "
                 "--allow-context-mismatch to downgrade)"))
        return False, not allow_mismatch
    b_cpus = base_ctx.get("num_cpus")
    f_cpus = fresh_ctx.get("num_cpus")
    if b_cpus != f_cpus:
        print(f"  {name}: WARNING context mismatch — num_cpus "
              f"baseline={b_cpus!r} fresh={f_cpus!r}; cross-run comparison "
              f"skipped (capture a baseline on this machine class)")
        return False, False
    return True, False


def compare(name, baseline, fresh, threshold, fail_threshold,
            lower_is_better):
    """Returns (is_regression, is_failure, line)."""
    if baseline == 0:
        return False, False, f"  {name}: baseline is zero, skipped"
    delta = (fresh - baseline) / baseline
    signed = delta if lower_is_better else -delta
    worse = signed > threshold
    fatal = signed > fail_threshold
    arrow = "FAILURE" if fatal else ("REGRESSION" if worse else "ok")
    return worse, fatal, (f"  {name}: baseline={baseline:.6g} "
                          f"fresh={fresh:.6g} delta={delta:+.1%} [{arrow}]")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline-dir", required=True,
                    help="directory holding the committed BENCH_*.json")
    ap.add_argument("--fresh-dir", required=True,
                    help="directory holding the freshly generated BENCH_*.json")
    ap.add_argument("--threshold", type=float, default=0.15,
                    help="relative worsening that counts as a regression "
                         "(default 0.15 = 15%%)")
    ap.add_argument("--fail-threshold", type=float, default=0.30,
                    help="relative worsening beyond which a regression is "
                         "fatal even without --strict (default 0.30 = 30%%)")
    ap.add_argument("--strict", action="store_true",
                    help="exit non-zero when any regression is found "
                         "(default: only those beyond --fail-threshold)")
    ap.add_argument("--allow-context-mismatch", action="store_true",
                    help="downgrade a library_build_type mismatch between "
                         "baseline and fresh context blocks from a refusal "
                         "to a warning")
    ap.add_argument("--expect", default="",
                    help="comma-separated BENCH_*.json names that MUST be "
                         "present, readable and context-carrying in both "
                         "directories; their absence is a hard error "
                         "(exit 2) instead of a skip")
    args = ap.parse_args()

    expected = {s.strip() for s in args.expect.split(",") if s.strip()}
    for name in sorted(expected):
        for which, d in (("baseline", args.baseline_dir),
                         ("fresh", args.fresh_dir)):
            path = os.path.join(d, name)
            if not os.path.exists(path):
                raise BenchCheckError(
                    f"expected {which} {name} is missing from {d}\n"
                    f"{REGEN_HINT}")

    regressions = 0
    failures = 0
    compared = 0

    # --- BENCH_lock_manager.json: median real_time, lower is better. -------
    lm = "BENCH_lock_manager.json"
    base_path = os.path.join(args.baseline_dir, lm)
    fresh_path = os.path.join(args.fresh_dir, lm)
    if os.path.exists(base_path) and os.path.exists(fresh_path):
        base_doc = load_json(base_path)
        fresh_doc = load_json(fresh_path)
        require_context(lm, base_doc, "baseline", expected)
        require_context(lm, fresh_doc, "fresh", expected)
        print(f"{lm} (median real_time, lower is better):")
        # google-benchmark's own context block carries the same keys.
        comparable, ctx_fatal = check_context(lm, base_doc, fresh_doc,
                                              args.allow_context_mismatch)
        failures += ctx_fatal
        base = lock_manager_medians(base_doc) if comparable else {}
        fresh = lock_manager_medians(fresh_doc)
        for name in sorted(base):
            if name not in fresh:
                print(f"  {name}: missing from fresh run")
                continue
            (b, b_unit), (f, f_unit) = base[name], fresh[name]
            if b_unit != f_unit:
                print(f"  {name}: unit mismatch {b_unit} vs {f_unit}, skipped")
                continue
            worse, fatal, line = compare(name, b, f, args.threshold,
                                         args.fail_threshold,
                                         lower_is_better=True)
            print(line)
            compared += 1
            regressions += worse
            failures += fatal
        for name in sorted(set(fresh) - set(base)):
            print(f"  {name}: new benchmark (no baseline)")
    else:
        print(f"{lm}: not present in both directories, skipped")

    # --- throughput baselines: throughput_tps, higher is better. -----------
    for ov in ("BENCH_overhead.json", "BENCH_lease.json", "BENCH_ring.json"):
        base_path = os.path.join(args.baseline_dir, ov)
        fresh_path = os.path.join(args.fresh_dir, ov)
        if not (os.path.exists(base_path) and os.path.exists(fresh_path)):
            print(f"{ov}: not present in both directories, skipped")
            continue
        base_doc = load_json(base_path)
        fresh_doc = load_json(fresh_path)
        require_context(ov, base_doc, "baseline", expected)
        require_context(ov, fresh_doc, "fresh", expected)
        print(f"{ov} (throughput_tps, higher is better):")
        comparable, ctx_fatal = check_context(ov, base_doc, fresh_doc,
                                              args.allow_context_mismatch)
        failures += ctx_fatal
        if not comparable:
            continue
        base = throughput_metrics(base_doc)
        fresh = throughput_metrics(fresh_doc)
        for name in sorted(base):
            if name not in fresh:
                print(f"  {name}: missing from fresh run")
                continue
            worse, fatal, line = compare(name, base[name], fresh[name],
                                         args.threshold, args.fail_threshold,
                                         lower_is_better=False)
            print(line)
            compared += 1
            regressions += worse
            failures += fatal

    # --- BENCH_contention.json: per-thread series. --------------------------
    ct = "BENCH_contention.json"
    base_path = os.path.join(args.baseline_dir, ct)
    fresh_path = os.path.join(args.fresh_dir, ct)
    if os.path.exists(base_path) and os.path.exists(fresh_path):
        base_doc = load_json(base_path)
        fresh_doc = load_json(fresh_path)
        require_context(ct, base_doc, "baseline", expected)
        require_context(ct, fresh_doc, "fresh", expected)
        print(f"{ct} (throughput_ops_s per thread count, higher is better):")
        comparable, ctx_fatal = check_context(ct, base_doc, fresh_doc,
                                              args.allow_context_mismatch)
        failures += ctx_fatal
        if comparable:
            base = contention_metrics(base_doc)
            fresh = contention_metrics(fresh_doc)
            for name in sorted(base):
                if name not in fresh:
                    print(f"  {name}: missing from fresh run")
                    continue
                worse, fatal, line = compare(name, base[name], fresh[name],
                                             args.threshold,
                                             args.fail_threshold,
                                             lower_is_better=False)
                print(line)
                compared += 1
                regressions += worse
                failures += fatal
            for name in sorted(set(fresh) - set(base)):
                print(f"  {name}: new series point (no baseline)")
    else:
        print(f"{ct}: not present in both directories, "
              f"cross-run comparison skipped")

    print(f"compared {compared} metrics, {regressions} regression(s) beyond "
          f"{args.threshold:.0%}, {failures} beyond the "
          f"{args.fail_threshold:.0%} failure threshold")
    if failures:
        print(f"error: regression(s) beyond {args.fail_threshold:.0%} "
              f"exceed shared-runner noise")
        return 1
    if regressions and args.strict:
        return 1
    if regressions:
        print("warning: regressions found (non-fatal without --strict)")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchCheckError as err:
        print(f"error: {err}", file=sys.stderr)
        sys.exit(2)
