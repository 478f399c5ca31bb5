"""Correctness gate for one benchmark run.

A scenario run fails the gate when it raises, returns exit code 2,
returns another exit code than recorded, writes another set of files,
reports certificate verdicts or notes other than those recorded in
``expected_verdicts.json``, or writes any byte that differs from its
first run in the same benchmark run.
"""

import hashlib
import json
import os
import re

_CERT_LINE = re.compile(r"^(?P<name>[^#].*?): (?P<verdict>PASS|FAIL)(?: \(.*\))?$")


def load_expected(path, workload):
    with open(path) as handle:
        return json.load(handle)["workloads"][workload]


def parse_report(text):
    """Certificate name -> PASS/FAIL (the overall line included) and the
    '# ' note lines of a report.txt."""
    verdicts, notes = {}, []
    for line in text.splitlines():
        if line.startswith("# "):
            notes.append(line[2:])
            continue
        match = _CERT_LINE.match(line)
        if match:
            verdicts[match["name"]] = match["verdict"]
    return verdicts, notes


def digest_dir(out_dir):
    """File name -> sha256 of every file the run wrote."""
    digests = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as handle:
            digests[name] = hashlib.sha256(handle.read()).hexdigest()
    return digests


class Gate:
    """Checks every scenario run of one workload and counts failures."""

    def __init__(self, expected):
        self.expected = expected
        self.first_digests = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, case, out_dir, exit_code, error=None):
        """Gate one finished run; returns its problems (empty if it passed)."""
        problems = _problems(self.expected[case.kind], self.first_digests,
                             case, out_dir, exit_code, error)
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{case.ident}: {p}" for p in problems)
        return problems

    @property
    def failed_frac(self):
        return self.failed / self.attempted


def _problems(expected, first_digests, case, out_dir, exit_code, error):
    if error is not None:
        return [f"raised {error!r}"]
    if exit_code == 2:
        return ["exit code 2 (invalid config or run)"]
    problems = []
    if exit_code != expected["exit"]:
        problems.append(f"exit code {exit_code}, expected {expected['exit']}")
    if not os.path.isdir(out_dir):
        return problems + ["no output directory"]
    digests = digest_dir(out_dir)
    if sorted(digests) != sorted(expected["files"]):
        problems.append(f"wrote {sorted(digests)}, expected {sorted(expected['files'])}")
    first = first_digests.setdefault(case.ident, digests)
    changed = sorted(name for name in set(first) | set(digests)
                     if first.get(name) != digests.get(name))
    if changed:
        problems.append(f"not byte-identical to its first run: {changed}")
    if "report.txt" in digests:
        with open(os.path.join(out_dir, "report.txt")) as handle:
            verdicts, notes = parse_report(handle.read())
        if verdicts != expected["verdicts"]:
            wrong = sorted(name for name in set(verdicts) | set(expected["verdicts"])
                           if verdicts.get(name) != expected["verdicts"].get(name))
            problems.append(f"verdicts differ from the recorded ones: {wrong}")
        for note in expected["notes"]:
            if not any(note in line for line in notes):
                problems.append(f"missing note {note!r}")
    return problems
