#!/usr/bin/env python3
"""Test-ID stability check: every discovered test name is the same on every build.

gtest names a value-parameterised case by its printed parameter, and CMake's
gtest_discover_tests copies that text into the ctest name. A parameter
struct without a PrintTo() prints as its raw bytes ("24-byte object <...>"):
pointers and padding, which differ on every run under ASLR. Each build then
registers fresh test names, and no two test lists can be compared by name.

Usage:
  check_test_ids.py --ctest CTEST --build-dir DIR   check a configured tree
  check_test_ids.py --self-test                     check the check

Exit status: 0 clean, 1 unstable names found (or the self-test failed),
2 usage/internal error.
"""

from __future__ import annotations

import argparse
import re
import subprocess
import sys

# `ctest -N` prints one "  Test  #12: Suite.Name" line per test.
TEST_LINE_RE = re.compile(r"^\s*Test\s+#\d+:\s(.*)$")
UNSTABLE_MARKER = "byte object"


def test_names(listing: str) -> list[str]:
    return [m.group(1) for line in listing.splitlines()
            if (m := TEST_LINE_RE.match(line))]


def unstable(listing: str) -> list[str]:
    return [name for name in test_names(listing) if UNSTABLE_MARKER in name]


def self_test() -> int:
    bad = ("  Test  #1: Cases/GlobTest.Matches/24-byte object <33-C0 2C-90>\n"
           "  Test  #2: ClockTest.SystemClockAdvances\n"
           "Total Tests: 2\n")
    good = ("  Test  #1: Cases/GlobTest.Matches/'a*b' matches 'ab'\n"
            "  Test  #2: ClockTest.SystemClockAdvances\n"
            "Total Tests: 2\n")
    failures = []
    if unstable(bad) != ["Cases/GlobTest.Matches/24-byte object <33-C0 2C-90>"]:
        failures.append("a raw-bytes test name was not flagged")
    if unstable(good):
        failures.append("a printed test name was flagged")
    if len(test_names(good)) != 2:
        failures.append("the ctest -N listing was not parsed")
    for failure in failures:
        print(f"self-test FAILED: {failure}")
    if failures:
        return 1
    print("check_test_ids self-test: ok")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ctest", default="ctest", help="ctest executable")
    parser.add_argument("--build-dir", help="configured build tree to list")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the check flags a raw-bytes name")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.build_dir:
        parser.error("--build-dir is required")
    listing = subprocess.run([args.ctest, "-N"], cwd=args.build_dir,
                             capture_output=True, text=True, check=True).stdout
    if not test_names(listing):
        print("check_test_ids: ctest -N listed no tests", file=sys.stderr)
        return 2
    bad = unstable(listing)
    for name in bad:
        print(f"unstable test name (give the parameter a PrintTo): {name}")
    if bad:
        return 1
    print(f"check_test_ids: {len(test_names(listing))} stable test names")
    return 0


if __name__ == "__main__":
    sys.exit(main())
