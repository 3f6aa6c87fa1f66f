#!/usr/bin/env python3
"""Checks the CFD library's machine code for the two rules that keep its
fields bitwise the same at every lane width (src/cfd/packs.hpp):

  1. no FMA instruction anywhere: an FMA rounds once where the scalar
     expression rounds twice;
  2. no function with external linkage touches the wide registers: the
     AVX2 and AVX-512 code lives only in the internal per-width entry
     points, so the linker can never hand a wide copy of a shared
     function (a COMDAT template) to a narrower caller.

Usage:
  tools/cfd_isa_check.py LIB.a [--wide REG ...]

--wide names the register classes rule 2 forbids (default: ymm zmm). A
build whose baseline already has AVX2 (-march=x86-64-v3) passes
--wide zmm. Exits 1 and lists the offenders if a rule is broken.
"""
import argparse
import re
import subprocess
import sys

FMA = re.compile(r"\bv?f(n)?m(add|sub|addsub|subadd)\d*[ps][sd]\b")
SYMBOL = re.compile(r"^[0-9a-f]+ <(.+)>:$")


def run(*cmd):
    return subprocess.run(cmd, check=True, capture_output=True, text=True).stdout


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("lib")
    ap.add_argument("--wide", nargs="+", default=["ymm", "zmm"])
    args = ap.parse_args()

    external = set()
    for line in run("nm", "--defined-only", args.lib).splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[1] in ("T", "W", "V", "u"):
            external.add(parts[2])

    wide = re.compile(r"%(" + "|".join(args.wide) + r")\d+")
    fma, leaks = {}, {}
    functions = 0
    symbol = None
    dump = run("objdump", "-d", "--no-show-raw-insn", args.lib)
    for line in dump.splitlines():
        m = SYMBOL.match(line)
        if m:
            symbol = m.group(1)
            functions += 1
            continue
        if symbol is None or "\t" not in line:
            continue
        insn = line.split("\t", 1)[1]
        if FMA.search(insn):
            fma[symbol] = fma.get(symbol, 0) + 1
        if symbol in external and wide.search(insn):
            leaks[symbol] = leaks.get(symbol, 0) + 1

    def names(found):
        demangled = run("c++filt", *found.keys()).splitlines()
        return [f"  {n} ({c} instructions)"
                for n, c in zip(demangled, found.values())]

    ok = True
    if fma:
        ok = False
        print(f"{args.lib}: FMA instructions in:", *names(fma), sep="\n")
    if leaks:
        ok = False
        print(f"{args.lib}: external functions using {'/'.join(args.wide)}:",
              *names(leaks), sep="\n")
    if ok:
        print(f"{args.lib}: {functions} functions, {len(external)} external; "
              f"no FMA, no {'/'.join(args.wide)} outside internal entry points")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
