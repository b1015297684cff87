#!/usr/bin/env python3
"""Report where two replay dumps first differ.

A dump is the hexfloat text the golden fixtures under tests/golden/ hold:
a `run NAME ...` line opens each run, a

    request IDX TENANT ARRIVAL START END

line holds one request's record (times printed with C's %a), and every
other line (scheduler counters, makespan, devices, faults) belongs to
the run above it. Runs pair up by name and, when a name repeats, by its
occurrence. For each run that differs this prints how many request
records differ, the request whose earliest differing timestamp is
earliest (both records, and that time in decimal), and every other
line that differs. A golden break then names the first request, by
simulated time, where two replays part, not only that they part.

Usage:
  trace_diff.py OLD NEW
  trace_diff.py --self-test

Exits 0 when the dumps are equal and 1 otherwise. --self-test runs the
diff on every committed golden in this format: a golden must equal
itself, and perturbed copies must be reported with the right request
and time.
"""

import argparse
import difflib
import io
import math
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN_DIR = os.path.join(ROOT, "tests", "golden")


def parse(lines):
    """Splits a dump into runs: a list of (label, requests, other lines).

    requests maps a request index to (line, tenant, (arrival, start,
    end)); lines before the first run form a run labelled "(preamble)".
    """
    runs = []
    seen = {}
    current = None
    for raw in lines:
        line = raw.rstrip("\n")
        fields = line.split()
        if fields and fields[0] == "run" and len(fields) >= 2:
            name = fields[1]
            seen[name] = seen.get(name, 0) + 1
            label = name if seen[name] == 1 else "%s#%d" % (name, seen[name])
            current = (label, {}, [line])
            runs.append(current)
            continue
        if current is None:
            current = ("(preamble)", {}, [])
            runs.append(current)
        if fields and fields[0] == "request" and len(fields) == 6:
            times = tuple(float.fromhex(f) for f in fields[3:])
            current[1][int(fields[1])] = (line, fields[2], times)
        elif line:
            current[2].append(line)
    return runs


def divergence(old, new):
    """The simulated time at which two records of one request part: the
    earliest timestamp, of either side, among the fields that differ.
    A record present on one side only parts at its earliest timestamp."""
    if old is None or new is None:
        return min((old or new)[2])
    parted = [min(a, b) for a, b in zip(old[2], new[2]) if a != b]
    return min(parted) if parted else min(old[2] + new[2])


def diff_run(label, old, new, out):
    """Prints how the run named label differs; returns whether it does."""
    _, old_reqs, old_other = old
    _, new_reqs, new_other = new
    differing = []
    for idx in sorted(set(old_reqs) | set(new_reqs)):
        a, b = old_reqs.get(idx), new_reqs.get(idx)
        if a is None or b is None or a[1:] != b[1:]:
            differing.append((divergence(a, b), idx, a, b))
    other = [l for l in difflib.unified_diff(old_other, new_other, n=0,
                                             lineterm="")
             if l[:1] in "+-" and l[:3] not in ("+++", "---")]
    if not differing and not other:
        return False
    total = len(set(old_reqs) | set(new_reqs))
    out.write("run %s: %d of %d request records differ\n" %
              (label, len(differing), total))
    if differing:
        at, idx, a, b = min(differing)
        out.write("  first: request %d at t=%.17g\n" % (idx, at))
        out.write("    old: %s\n" % (a[0] if a else "(absent)"))
        out.write("    new: %s\n" % (b[0] if b else "(absent)"))
    for line in other:
        out.write("  %s\n" % line)
    return True


def diff(old_lines, new_lines, out):
    """Prints every difference between two dumps; returns 0 when they are
    equal, 1 otherwise."""
    old_runs = {run[0]: run for run in parse(old_lines)}
    new_runs = {run[0]: run for run in parse(new_lines)}
    status = 0
    for label, run in old_runs.items():
        if label not in new_runs:
            out.write("run %s: only in OLD\n" % label)
            status = 1
        elif diff_run(label, run, new_runs[label], out):
            status = 1
    for label in new_runs:
        if label not in old_runs:
            out.write("run %s: only in NEW\n" % label)
            status = 1
    return status


def run_files(old_path, new_path, out):
    with open(old_path) as f:
        old_lines = f.readlines()
    with open(new_path) as f:
        new_lines = f.readlines()
    return diff(old_lines, new_lines, out)


def goldens():
    """The committed goldens in the run/request format."""
    for name in sorted(os.listdir(GOLDEN_DIR)):
        path = os.path.join(GOLDEN_DIR, name)
        with open(path) as f:
            lines = f.readlines()
        if any(l.startswith("run ") for l in lines) and any(
                l.startswith("request ") and len(l.split()) == 6
                for l in lines):
            yield name, lines


def later_end(line):
    """A request line with its end time one ULP later."""
    fields = line.rstrip("\n").split()
    fields[5] = math.nextafter(float.fromhex(fields[5]), math.inf).hex()
    return " ".join(fields) + "\n"


def expect(name, got_status, want_status, text, needles):
    missing = [n for n in needles if n not in text]
    if got_status != want_status or missing:
        print("self-test FAILED (%s): exit %d, expected %d; missing %r in:"
              % (name, got_status, want_status, missing))
        print(text)
        return 1
    return 0


def self_test_one(name, lines):
    # A dump equals itself.
    out = io.StringIO()
    status = diff(lines, lines, out)
    if expect(name, status, 0, out.getvalue(), []) or out.getvalue():
        return 1

    # Two requests perturbed by one ULP at their end: where the file has
    # a later request that ends before an earlier one, the later one
    # parts first in simulated time and must be the one reported.
    reqs = []
    for i, l in enumerate(lines):
        if l.startswith("run ") and reqs:
            break  # Both must be in one run, the first that has requests.
        if l.startswith("request ") and len(l.split()) == 6:
            reqs.append(i)
    end = lambda i: float.fromhex(lines[i].split()[5])
    first, second = reqs[0], reqs[1]
    latest = reqs[0]
    for i in reqs[1:]:
        if end(i) < end(latest):
            first, second = i, latest
            break
        if end(i) > end(latest):
            latest = i
    changed = list(lines)
    for i in (first, second):
        changed[i] = later_end(lines[i])
    out = io.StringIO()
    status = diff(lines, changed, out)
    if expect(name, status, 1, out.getvalue(),
              ["2 of ", "first: request %s at t=%.17g" %
               (lines[first].split()[1], end(first)),
               "old: " + lines[first].rstrip("\n"),
               "new: " + changed[first].rstrip("\n")]):
        return 1

    # A differing non-request line is reported as such.
    other = next(i for i, l in enumerate(lines)
                 if not l.startswith(("request ", "run ")) and l.strip())
    changed = list(lines)
    changed[other] = lines[other].rstrip("\n") + " 1\n"
    out = io.StringIO()
    status = diff(lines, changed, out)
    if expect(name, status, 1, out.getvalue(),
              ["0 of ", "-" + lines[other].rstrip("\n"),
               "+" + changed[other].rstrip("\n")]):
        return 1

    # A run missing from one side is reported.
    last_run = max(i for i, l in enumerate(lines) if l.startswith("run "))
    label = parse(lines)[-1][0]
    changed = list(lines)
    changed[last_run] = "run renamed\n"
    out = io.StringIO()
    status = diff(lines, changed, out)
    if expect(name, status, 1, out.getvalue(),
              ["run %s: only in OLD" % label, "run renamed: only in NEW"]):
        return 1

    print("self-test passed (%s): equal dumps exit 0; a perturbed request, "
          "a changed counter line and a missing run are reported" % name)
    return 0


def self_test():
    status = 0
    found = 0
    for name, lines in goldens():
        found += 1
        status |= self_test_one(name, lines)
    # The file interface: equal files exit 0, differing files exit 1.
    name, lines = next(goldens())
    with tempfile.TemporaryDirectory() as tmp:
        old = os.path.join(tmp, "old")
        new = os.path.join(tmp, "new")
        with open(old, "w") as f:
            f.writelines(lines)
        with open(new, "w") as f:
            f.writelines(lines[:-1])
        if run_files(old, old, io.StringIO()) != 0 or \
                run_files(old, new, io.StringIO()) != 1:
            print("self-test FAILED (files): wrong exit status")
            status = 1
    if found == 0:
        print("self-test FAILED: no golden in the run/request format")
        status = 1
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("old", nargs="?", help="the reference dump")
    parser.add_argument("new", nargs="?", help="the dump to compare")
    parser.add_argument("--self-test", action="store_true",
                        help="check the diff against the committed goldens")
    args = parser.parse_args()
    if args.self_test:
        if args.old or args.new:
            parser.error("--self-test takes no positional arguments")
        return self_test()
    if not args.new:
        parser.error("OLD and NEW dumps required unless --self-test")
    return run_files(args.old, args.new, sys.stdout)


if __name__ == "__main__":
    sys.exit(main())
