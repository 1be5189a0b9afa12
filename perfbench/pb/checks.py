"""Output checkers. Each compares what the program answered against a
computation made apart from the path under test: the concrete
interpreter, the naive reference engine, an in-process scratch
analysis, the generator's own count of repeats. Each returns a list of
failure messages (empty when the outputs are right); nothing here runs
inside a timed region."""

import json


def fixpoint_mismatch(answer, reference):
    """The stats-free fields of a report (those of the reference, which
    is rendered without timing and solver statistics) must be equal; an
    answer may carry more fields (timing, solver and store counters)."""
    if not isinstance(answer, dict):
        return "no report"
    diff = [k for k, v in reference.items() if answer.get(k, KeyError) != v]
    return f"fields differ from a scratch analysis: {', '.join(diff)}" if diff else None


def reports(answers, references, label):
    """answers: list of (key, report dict or None); references: key ->
    stats-free report dict."""
    fails = []
    for key, ans in answers:
        why = fixpoint_mismatch(ans, references[key])
        if why:
            fails.append(f"{label} {key}: {why}")
    return fails


def parse(line):
    try:
        return json.loads(line)
    except (TypeError, ValueError):
        return None


# ---------------------------------------------------------------- cold

def cold(answers, references, uncovered, naive_lines, delta_lines, ladder):
    """answers: ((spec, inst), report) per timed analyze run.
    uncovered: (spec, inst) -> in-bounds observations of the concrete
    interpreter that the analysis fails to cover.
    naive_lines/delta_lines: stats-free reports of the naive reference
    engine and of delta on the same (spec, inst) list, in order."""
    fails = reports(answers, references, "analyze")
    for key, ans in answers:
        if key[0] in ladder and isinstance(ans, dict) and ans.get("degraded"):
            fails.append(f"analyze {key}: ladder program degraded")
    for key, n in uncovered.items():
        if n:
            fails.append(f"oracle {key}: {n} uncovered observations")
    if len(naive_lines) != len(delta_lines):
        fails.append("naive: reference count differs")
    for n, d in zip(naive_lines, delta_lines):
        if n != d:
            fails.append(f"naive: report differs from delta: {n[:80]}")
    return fails


# ---------------------------------------------------------------- watch

def watch(answers, references):
    """answers: ((version file, inst), report) per edit sent."""
    return reports(answers, references, "watch")


# ---------------------------------------------------------------- serve

def serve(responses, references, expected_hits):
    """responses: ((path, inst), response dict) per timed request of one
    round; the response's result (minus the store counter block) must
    equal a scratch analysis, and the store's hits over the round must
    equal the number of exact repeats the generator put in it."""
    fails = []
    hits = 0
    for key, resp in responses:
        if not isinstance(resp, dict) or resp.get("status") != "done":
            fails.append(f"serve {key}: not answered ({str(resp)[:80]})")
            continue
        result = dict(resp.get("result") or {})
        hits += (result.pop("store", None) or {}).get("hits", 0)
        why = fixpoint_mismatch(result, references[key])
        if why:
            fails.append(f"serve {key}: {why}")
    if hits != expected_hits:
        fails.append(f"serve: {hits} store hits, {expected_hits} exact repeats sent")
    return fails
