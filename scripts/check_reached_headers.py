#!/usr/bin/env python3
"""Fails when a src/ header is reached by no bench, example or perfbench.

Starts from every translation unit under bench/, examples/ and perfbench/ and
follows `g++ -MM -MG` includes transitively; a src/x/y.cc counts as reached
once src/x/y.h is. Prints each unreached src/**/*.h and exits 1 if any.

    python3 scripts/check_reached_headers.py    # from the repository root
"""
import pathlib
import subprocess
import sys

roots = [p for d in ("bench", "examples", "perfbench") for p in pathlib.Path(d).rglob("*")
         if p.suffix in (".cc", ".cpp")]
pending, seen_units, reached = [str(p) for p in roots], set(), set()
while pending:
    unit = pending.pop()
    if unit in seen_units:
        continue
    seen_units.add(unit)
    deps = subprocess.run(["g++", "-std=c++20", "-I.", "-MM", "-MG", unit], check=True,
                          capture_output=True, text=True).stdout
    for dep in deps.replace("\\\n", " ").split(":", 1)[1].split():
        header = pathlib.Path(dep)
        if header.suffix == ".h" and header.parts[0] == "src" and dep not in reached:
            reached.add(dep)
            if header.with_suffix(".cc").exists():
                pending.append(str(header.with_suffix(".cc")))
unreached = sorted(str(h) for h in pathlib.Path("src").rglob("*.h") if str(h) not in reached)
for header in unreached:
    print(f"FAIL: {header} is reached by no bench, example or perfbench source", file=sys.stderr)
sys.exit(1 if unreached else 0)
