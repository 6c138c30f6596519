#!/usr/bin/env python3
"""Bench regression gate: a collected bench run against bench/baseline.json.

    python3 scripts/bench_gate.py bench/baseline.json build/bench_current.json
    python3 scripts/bench_gate.py --selftest    # the gate's rules on canned input

The run is the file scripts/bench.sh writes: one JSON object per line, each
the summary a bench prints. The baseline commits the expected value of
every tracked metric:

    {"metrics": {"<bench>.<path>": {"value": 55.0, "tol_pct": 10, "dir": "max"}}}

A metric key names the line whose "bench" tag is the longest prefix of the
key that ends at a '.' (the first such line on a tie); the rest of the key
is a path into that line: dotted keys, [n] subscripts, and '\\' to escape
the next character ("runs[1].warm_open_us"). With slack = |value| x
tol_pct / 100, dir "max" fails above value + slack, "min" below
value - slack and "both" (the default) either way; tol_pct defaults to 10.
A metric whose line or value is missing from the run fails too: a bench
that stops reporting a metric must not pass.

Exit codes: 0 when every tracked metric holds, 1 on any regression, 2 on a
usage error or malformed input. A baseline without a "metrics" object, a
metric without a numeric "value" (a bool is not a number) or with a dir
other than max, min or both, and a run line that is not JSON are malformed.
So are duplicate keys, NaN, Infinity, numbers JSON does not allow (+1, .5)
and numbers a double cannot hold (1e400).
"""
import json
import math
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Malformed(ValueError):
    """Input the gate cannot judge: exit 2."""


# ---------------------------------------------------------------- reading

def _number(text):
    value = float(text)
    if not math.isfinite(value):
        raise Malformed(f"number {text} out of range")
    return value


def _reject_constant(name):
    raise Malformed(f"{name} is not a JSON number")


def _unique_keys(pairs):
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise Malformed(f"duplicate key '{key}'")
        obj[key] = value
    return obj


def parse(text, where="input"):
    """One JSON value. Every number reads as a finite float, as a double
    would hold it, so a bool is never taken for a number."""
    try:
        return json.loads(text, object_pairs_hook=_unique_keys, parse_float=_number,
                          parse_int=_number, parse_constant=_reject_constant)
    except RecursionError:
        raise Malformed(f"{where}: nested too deeply") from None
    except ValueError as e:
        raise Malformed(f"{where}: {e}") from None


def parse_lines(text):
    """The run's JSON lines; blank lines are skipped."""
    return [parse(raw, f"current line {number}")
            for number, raw in enumerate(text.split("\n"), 1) if raw.strip(" \t\r")]


def is_number(value):
    return type(value) is float


def split_path(path):
    """"runs[2].warm" -> [("runs", [2]), ("warm", [])], or None when the
    path is malformed."""
    steps, i, n = [], 0, len(path)
    while i < n:
        key = ""
        while i < n and path[i] not in ".[":
            if path[i] == "\\" and i + 1 < n:
                i += 1
            key += path[i]
            i += 1
        indices = []
        while i < n and path[i] == "[":
            j = i + 1
            while j < n and "0" <= path[j] <= "9":
                j += 1
            if j == i + 1 or j == n or path[j] != "]":
                return None
            indices.append(int(path[i + 1:j]))
            i = j + 1
        if i < n:
            if path[i] != ".":
                return None
            i += 1
        if not key and not indices:
            return None
        steps.append((key, indices))
    return steps or None


def lookup(value, path, missing=None):
    """The value at `path` inside `value`, or `missing` when a step is absent."""
    steps = split_path(path)
    if steps is None:
        return missing
    for key, indices in steps:
        if key:
            if not isinstance(value, dict) or key not in value:
                return missing
            value = value[key]
        for index in indices:
            if not isinstance(value, list) or index >= len(value):
                return missing
            value = value[index]
    return value


# ---------------------------------------------------------------- the gate

def compare(baseline, lines):
    """(tracked metric count, [(metric, message), ...] failures in baseline
    order). Raises Malformed when the baseline is."""
    metrics = baseline.get("metrics") if isinstance(baseline, dict) else None
    if not isinstance(metrics, dict):
        raise Malformed('baseline has no "metrics" object')
    benches = [(line["bench"], line) for line in lines
               if isinstance(line, dict) and isinstance(line.get("bench"), str)]
    failures = []
    for name, spec in metrics.items():
        expect = spec.get("value") if isinstance(spec, dict) else None
        if not is_number(expect):
            raise Malformed(f"baseline metric '{name}' has no numeric \"value\"")
        tol_pct = spec["tol_pct"] if is_number(spec.get("tol_pct")) else 10.0
        direction = spec["dir"] if isinstance(spec.get("dir"), str) else "both"
        if direction not in ("max", "min", "both"):
            raise Malformed(f"baseline metric '{name}' has bad dir '{direction}'")

        # Bench tags may hold dots themselves ("campaign.smoke").
        line, path, best = None, None, 0
        for tag, candidate in benches:
            if (len(name) > len(tag) + 1 and name.startswith(tag)
                    and name[len(tag)] == "." and len(tag) > best):
                line, path, best = candidate, name[len(tag) + 1:], len(tag)
        if line is None:
            failures.append(
                (name, 'no bench summary line with a matching "bench" tag was collected'))
            continue
        got = lookup(line, path)
        if not is_number(got):
            failures.append((name, "metric missing from the current bench output"))
            continue
        slack = abs(expect) * tol_pct / 100.0
        too_high = got > expect + slack
        too_low = got < expect - slack
        if ((direction == "max" and too_high) or (direction == "min" and too_low)
                or (direction == "both" and (too_high or too_low))):
            failures.append((name, "current %g vs baseline %g (tol %g%%, dir %s)"
                             % (got, expect, tol_pct, direction)))
    return len(metrics), failures


def report(checked, failures):
    text = f"bench gate: {checked} tracked metric(s), {len(failures)} regression(s)\n"
    return text + "".join(f"  FAIL {metric}: {message}\n" for metric, message in failures)


def gate(baseline_text, run_text):
    """(exit code, text): the report when the code is 0 or 1, the reason
    when it is 2."""
    try:
        checked, failures = compare(parse(baseline_text, "baseline"), parse_lines(run_text))
    except Malformed as e:
        return 2, f"bench_gate: {e}\n"
    return (1 if failures else 0), report(checked, failures)


# ---------------------------------------------------------------- self-test

def set_path(value, path, new):
    """Sets the value at `path`, making objects and arrays (padded with
    nulls) where the path finds null or nothing; False when it runs
    through another kind of value."""
    steps = split_path(path)
    if steps is None:
        return False
    moves = []
    for key, indices in steps:
        if key:
            moves.append((dict, key))
        moves += [(list, index) for index in indices]
    for n, (kind, slot) in enumerate(moves):
        if not isinstance(value, kind):
            return False
        if kind is list:
            value.extend([None] * (slot + 1 - len(value)))
        if n + 1 == len(moves):
            value[slot] = new
            return True
        if kind is dict:
            value.setdefault(slot, None)
        if value[slot] is None:
            value[slot] = moves[n + 1][0]()
        value = value[slot]


def synthesize_run(baseline):
    """A run text that reproduces every baseline value, one line per bench
    tag: each key is split at its last '.' that leaves a settable path."""
    by_bench = {}
    for key, spec in baseline["metrics"].items():
        dot = key.rfind(".")
        while dot > 0:
            line = by_bench.setdefault(key[:dot], {"bench": key[:dot]})
            if set_path(line, key[dot + 1:], spec["value"]):
                break
            dot = key.rfind(".", 0, dot)
    return "\n".join(json.dumps(line) for line in by_bench.values()) + "\n"


def selftest():
    failed = 0

    def check(name, ok):
        nonlocal failed
        failed += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {name}")

    def code_of(baseline_text, run_text):
        return gate(baseline_text, run_text)[0]

    absent = object()
    line = parse('{"bench":"tree_scaling","depth":3,"runs":[{"warm_open_us":55.5},'
                 '{"warm_open_us":80.25}],"ok":true,"note":null}')
    check("paths look up keys, subscripts, bools and nulls",
          lookup(line, "bench") == "tree_scaling" and lookup(line, "depth") == 3
          and lookup(line, "runs[1].warm_open_us") == 80.25 and lookup(line, "ok") is True
          and lookup(line, "note", absent) is None
          and lookup(line, "runs[2].warm_open_us", absent) is absent
          and lookup(line, "missing", absent) is absent)
    text = '{"bench":"campaign.smoke","seed":7,"mean_us":185.002,"phases":[{"name":"p1","ops":4000}]}'
    check("a line the self-test writes reads back the same, in order",
          list(parse(json.dumps(parse(text))).items()) == list(parse(text).items()))
    obj = parse('{"metrics":{"a.b":{"value":10,"tol_pct":5}}}')
    fresh = {}
    check("escaped dots address keys holding dots; set_path pads arrays",
          set_path(obj, "metrics.a\\.b.value", 99.0)
          and lookup(obj, "metrics.a\\.b.value") == 99.0
          and set_path(fresh, "runs[1].lat", 7.0) and lookup(fresh, "runs[0]", absent) is None
          and lookup(fresh, "runs[1].lat") == 7.0)
    for bad in ('{"a":', '{"a":1,}', "[1 2]", '{"a":1} trailing', "nul", '{"a":1,"a":2}',
                "NaN", "[Infinity]", "+1", ".5", "1e400", "[[" * 100000):
        check(f"malformed JSON {bad[:20]!r} is rejected",
              code_of('{"metrics":{}}', bad) == 2 and code_of(bad, "") == 2)

    limits = ('{"metrics":{"demo.lat_us":{"value":100,"tol_pct":10,"dir":"max"},'
              '"demo.ops_per_s":{"value":5000,"tol_pct":20,"dir":"min"}}}')
    check("within tolerance passes",
          gate(limits, '{"bench":"demo","lat_us":109,"ops_per_s":4250}')
          == (0, "bench gate: 2 tracked metric(s), 0 regression(s)\n"))
    check("beyond tolerance fails; min may improve without bound",
          gate(limits, '{"bench":"demo","lat_us":111,"ops_per_s":99999}')
          == (1, "bench gate: 2 tracked metric(s), 1 regression(s)\n"
                 "  FAIL demo.lat_us: current 111 vs baseline 100 (tol 10%, dir max)\n"))
    exact = '{"metrics":{"demo.depth":{"value":3,"tol_pct":0}}}'
    check("dir both catches either drift",
          code_of(exact, '{"bench":"demo","depth":3}') == 0
          and code_of(exact, '{"bench":"demo","depth":2}') == 1
          and code_of(exact, '{"bench":"demo","depth":4}') == 1)
    one = '{"metrics":{"demo.lat_us":{"value":100,"tol_pct":10}}}'
    check("a dropped metric fails",
          gate(one, '{"bench":"demo"}') == (1, "bench gate: 1 tracked metric(s), 1 regression(s)\n"
                                            "  FAIL demo.lat_us: metric missing from the current"
                                            " bench output\n")
          and code_of(one, '{"bench":"demo","lat_us":"100"}') == 1)
    check("a dropped bench line fails",
          gate(one, '{"bench":"other","x":1}')[1].endswith(
              'no bench summary line with a matching "bench" tag was collected\n'))
    check("the longest tag wins, the first on a tie",
          code_of('{"metrics":{"a.b.c":{"value":1}}}',
                  '{"bench":"a","b":{"c":9}}\n{"bench":"a.b","c":1}\n{"bench":"a.b","c":9}') == 0)
    bare = '{"metrics":{"demo.lat_us":{"value":100}}}'
    check("tol_pct defaults to 10 and dir to both",
          [code_of(bare, '{"bench":"demo","lat_us":%s}' % v) for v in (89.5, 90, 110, 110.5)]
          == [1, 0, 0, 1])
    for name, bad in (("no metrics object", '{"no_metrics":1}'),
                      ("no value", '{"metrics":{"demo.x":{"tol_pct":5}}}'),
                      ("a bool value", '{"metrics":{"demo.x":{"value":true}}}'),
                      ("a bad dir", '{"metrics":{"demo.x":{"value":1,"dir":"up"}}}')):
        check(f"a baseline with {name} is malformed, not a pass", code_of(bad, "") == 2)
    lines = parse_lines('{"bench":"a","x":1}\n\n{"bench":"b","y":2}\n')
    check("blank lines are skipped", len(lines) == 2 and lines[1]["y"] == 2)
    check("a line that does not parse is named",
          gate('{"metrics":{}}', '{"bench":"a"}\n\n{"bench":"a"\n')[1].startswith(
              "bench_gate: current line 3: "))

    with open(os.path.join(ROOT, "bench", "baseline.json"), encoding="utf-8") as f:
        committed = f.read()
    baseline = parse(committed)
    count = len(baseline["metrics"])
    check(f"the committed baseline passes a run that reproduces it ({count} metrics)",
          count > 0 and gate(committed, synthesize_run(baseline))
          == (0, f"bench gate: {count} tracked metric(s), 0 regression(s)\n"))
    # x10 + 1 on every value: "min" metrics improve, the rest must fail.
    for spec in baseline["metrics"].values():
        spec["value"] = spec["value"] * 10 + 1
    code, text = gate(committed, synthesize_run(baseline))
    check("the committed baseline fails a run perturbed beyond every tolerance",
          code == 1 and text.startswith(f"bench gate: {count} tracked metric(s), ")
          and "  FAIL " in text)

    print("selftest: " + ("passed" if failed == 0 else f"{failed} failed"))
    return 1 if failed else 0


def main(argv):
    if argv == ["--selftest"]:
        return selftest()
    if len(argv) != 2:
        print("usage: bench_gate.py <baseline.json> <current.jsonl> | --selftest",
              file=sys.stderr)
        return 2
    texts = []
    for what, path in zip(("baseline", "current"), argv):
        try:
            with open(path, "rb") as f:
                texts.append(f.read().decode("utf-8"))
        except (OSError, UnicodeDecodeError) as e:
            print(f"bench_gate: cannot read {what} '{path}': {e}", file=sys.stderr)
            return 2
    code, text = gate(*texts)
    # Names come from the input; one that cannot be encoded must not crash
    # the gate into exit 1.
    out = sys.stdout if code < 2 else sys.stderr
    out.reconfigure(errors="backslashreplace")
    out.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
