#!/usr/bin/env python3
"""Check that VEX-encoded instructions stay inside the AVX2 lane engine.

    python3 tools/check_vex.py build-release/libgpudiff.a build-release/tools/gpudiff-*

Disassembles every archive member, object file or executable given with
`objdump -d` and exits 1 when a function other than an `Avx2Lanes`
instantiation or `run_group_avx2_*` holds a VEX- or EVEX-encoded
instruction.  Such code would run, and fault, on a host without AVX2.
The usual cause is an inline function that bytecode_simd_avx2.cpp
(compiled with -mavx2 -mfma) used without inlining: its VEX-encoded weak
copy can win the link over the baseline copies in other objects.

An instruction is VEX (EVEX) when its first opcode byte, after any segment
or address-size prefixes, is C4 or C5 (62); in 64-bit mode those bytes
have no other meaning.
"""

import re
import subprocess
import sys

ALLOWED = re.compile(r"Avx2Lanes|run_group_avx2_(32|64)\b")
# Prefixes that may precede a VEX/EVEX escape byte (segment, address size).
PASS_PREFIXES = {"26", "2e", "36", "3e", "64", "65", "67"}
VEX_ESCAPES = {"c4", "c5", "62"}

FILE_RE = re.compile(r"^(\S+):\s+file format ")
FUNC_RE = re.compile(r"^[0-9a-f]+ <(.+)>:$")
# "  1c:\tc5 fb 10 05 00 00 00 00 \tvmovsd 0x0(%rip),%xmm0"
INSN_RE = re.compile(r"^\s*[0-9a-f]+:\t((?:[0-9a-f]{2} )+)\s*\t(\S+)")


def is_vex(raw_bytes):
    for byte in raw_bytes:
        if byte not in PASS_PREFIXES:
            return byte in VEX_ESCAPES
    return False


def offenders(path):
    """(file, function, mnemonic, count) for every disallowed function."""
    done = subprocess.run(["objdump", "-d", "-w", "-C", path],
                          stdout=subprocess.PIPE, text=True, check=True)
    found = {}
    member = path
    func = None
    for line in done.stdout.splitlines():
        m = FILE_RE.match(line)
        if m:
            member, func = m.group(1), None
            continue
        m = FUNC_RE.match(line)
        if m:
            func = m.group(1)
            continue
        m = INSN_RE.match(line)
        if not m or func is None or ALLOWED.search(func):
            continue
        if is_vex(m.group(1).split()):
            key = (member, func)
            first, count = found.get(key, (m.group(2), 0))
            found[key] = (first, count + 1)
    return [(f, fn, first, n) for (f, fn), (first, n) in sorted(found.items())]


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    bad = []
    for path in argv[1:]:
        bad.extend(offenders(path))
    for member, func, first, count in bad:
        print(f"{member}: {func}: {count} VEX instruction(s), first {first}")
    if bad:
        print(f"check_vex: {len(bad)} function(s) outside the AVX2 lane "
              "engine hold VEX code", file=sys.stderr)
        return 1
    print(f"check_vex: {len(argv) - 1} file(s) clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
