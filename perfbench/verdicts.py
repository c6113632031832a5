"""Judge species-forge CLI outputs against the workloads' reference facts.

An invocation fails when it crashes or times out, exits with another code
than its reference, prints something that is not the command's JSON report,
emits a ``fatal`` row or a failed row not declared as expected, or
contradicts one of its reference facts.  Check names and row counts are
never compared: later changes may rename or merge rows on purpose.
"""

from __future__ import annotations

import copy
import hashlib
import json

STATUS_KEYS = ("pass", "fail_expected", "fail_unexpected", "fatal", "skip")


def judge(argv: list[str], facts: dict, returncode: int | None, stdout: bytes,
          timed_out: bool = False) -> list[str]:
    """Reasons the invocation failed; an empty list means it passed."""
    if timed_out:
        return ["timed out"]
    reasons = []
    if returncode != facts.get("exit", 0):
        reasons.append(f"exit code {returncode}, expected {facts.get('exit', 0)}")
    try:
        payload = json.loads(stdout)
    except ValueError:
        return reasons + ["stdout is not a JSON report"]
    if not isinstance(payload, dict) or payload.get("command") != argv[0]:
        return reasons + [f"stdout is not a {argv[0]!r} report"]
    if argv[0] == "check":
        reasons += _judge_check(payload, facts, returncode)
    elif argv[0] == "primitives":
        reasons += _judge_primitives(payload, facts)
    return reasons


def _judge_check(payload: dict, facts: dict, returncode: int | None) -> list[str]:
    reasons = []
    rows = payload.get("checks")
    if not isinstance(rows, list) or not rows:
        return ["no check rows"]
    counts = dict.fromkeys(STATUS_KEYS, 0)
    witnesses: dict[str, list] = {}
    for row in rows:
        status = row.get("status")
        if status == "fail":
            status = "fail_expected" if row.get("expected") is True else "fail_unexpected"
        if status not in counts:
            reasons.append(f"row {row.get('check')!r} has status {row.get('status')!r}")
            continue
        counts[status] += 1
        if status in ("fatal", "fail_unexpected"):
            reasons.append(f"{status} row {row.get('check')!r}")
        if status == "pass" and isinstance(row.get("witness"), dict):
            for key, value in row["witness"].items():
                witnesses.setdefault(key, []).append(value)
    if counts["pass"] == 0:
        reasons.append("no passing row")
    if counts["fail_expected"] < facts.get("expected_fail_min", 0):
        reasons.append(f"{counts['fail_expected']} declared failures, "
                       f"expected at least {facts['expected_fail_min']}")
    summary = payload.get("summary")
    if not isinstance(summary, dict) or any(summary.get(k, 0) != n for k, n in counts.items()):
        reasons.append(f"summary {summary} disagrees with rows {counts}")
    if payload.get("exit_code") != returncode:
        reasons.append(f"report exit_code {payload.get('exit_code')} but process "
                       f"exited {returncode}")
    for key, want in facts.get("witness", {}).items():
        if want not in witnesses.get(key, []):
            reasons.append(f"no passing row with {key} = {want}; got {witnesses.get(key)}")
    return reasons


def _judge_primitives(payload: dict, facts: dict) -> list[str]:
    comps = payload.get("components")
    if not isinstance(comps, list):
        return ["no components"]
    reasons = []
    for c in comps:
        if c.get("dim") != len(c.get("basis", ())):
            reasons.append(f"n={c.get('n')}: dim {c.get('dim')} but "
                           f"{len(c.get('basis', ()))} basis vectors")
    dims = [c.get("dim") for c in comps]
    if "primitive_dims" in facts and dims != facts["primitive_dims"]:
        reasons.append(f"primitive dims {dims}, expected {facts['primitive_dims']}")
    return reasons


def digest(stdout: bytes) -> str:
    return hashlib.sha256(stdout).hexdigest()


def split_runs(digests: list[str]) -> set[int]:
    """Indices of the runs of one invocation whose stdout differs from the
    first run's (each run has its own PYTHONHASHSEED)."""
    return {j for j, d in enumerate(digests) if d != digests[0]}


def row_count(argv: list[str], stdout: bytes) -> int:
    """Report rows emitted: check rows, or primitive components."""
    try:
        payload = json.loads(stdout)
    except ValueError:
        return 0
    key = "checks" if argv[0] == "check" else "components"
    return len(payload.get(key, ())) if isinstance(payload, dict) else 0


def negative_controls(argv: list[str], facts: dict, returncode: int,
                      stdout: bytes) -> dict[str, bool]:
    """Doctor one real, passing output in ways the judge must catch.

    Returns, per doctoring, whether the judge counted it as a failed
    operation.  Every value must be True for the benchmark to be trusted.
    """
    payload = json.loads(stdout)
    caught = {}

    def bites(doctored_payload, code=returncode) -> bool:
        raw = json.dumps(doctored_payload, indent=2).encode()
        return bool(judge(argv, facts, code, raw))

    caught["nonzero_exit"] = bites(payload, code=1)
    caught["hash_seed_split"] = split_runs([digest(stdout), digest(stdout + b" ")]) == {1}
    if argv[0] == "check":
        flipped = copy.deepcopy(payload)
        row = next(r for r in flipped["checks"] if r["status"] == "pass")
        row["status"] = "fail"
        flipped["summary"]["pass"] -= 1
        flipped["summary"]["fail_unexpected"] += 1
        caught["flipped_status"] = bites(flipped)
        fatal = copy.deepcopy(payload)
        fatal["checks"].append({"check": "doctored", "species": payload["species"],
                                "n": 0, "status": "fatal", "elapsed_ms": 0})
        fatal["summary"]["fatal"] += 1
        caught["fatal_row"] = bites(fatal)
    elif argv[0] == "primitives":
        wrong = copy.deepcopy(payload)
        wrong["components"][-1]["dim"] += 1
        wrong["components"][-1]["basis"].append("0")
        caught["wrong_dimension"] = bites(wrong)
    return caught
