#!/usr/bin/env python3
"""Checks that the GP's hot linalg kernels really run at full vector width.

src/linalg/simd_clones.hpp compiles four kernels into a baseline copy
and an AVX2 copy. If a kernel's loops sit in a helper the compiler does
not inline, its AVX2 copy is just a call into baseline code. Results and
every other test stay the same; only the speed is lost. This script
disassembles libsdl_linalg.a and requires:

  * for each dispatched kernel, an `[clone .avx2]` that uses ymm
    registers;
  * a `[clone .default]` of rbf_from_sq_dist that uses packed divpd and
    mulpd, i.e. fast_exp vectorized at baseline width too.

Usage: check_simd_clones.py <objdump> <libsdl_linalg.a>
"""

import re
import subprocess
import sys

# Demangled name prefixes of the dispatched kernels.
KERNELS = (
    "sdl::linalg::(anonymous namespace)::forward_sweep(",
    "sdl::linalg::(anonymous namespace)::factor_lower(",
    "sdl::linalg::(anonymous namespace)::cross_sq_dist_kernel(",
    "sdl::linalg::rbf_from_sq_dist(",
)
RBF = KERNELS[3]
HEADER = re.compile(r"^[0-9a-f]+ <(.+)>:$")


def functions(listing):
    """Maps each demangled symbol in an objdump -d listing to its
    instruction lines."""
    funcs, name = {}, None
    for line in listing.splitlines():
        match = HEADER.match(line)
        if match:
            name = match.group(1)
            funcs[name] = []
        elif name is not None and line.strip():
            funcs[name].append(line)
    return funcs


def find_clone(funcs, kernel, clone):
    for name, body in funcs.items():
        if name.startswith(kernel) and name.endswith(f"[clone .{clone}]"):
            return body
    return None


def uses(body, mnemonic):
    pattern = re.compile(rf"\s{mnemonic}\s")
    return any(pattern.search(line) for line in body)


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    objdump, library = argv[1], argv[2]
    listing = subprocess.run(
        [objdump, "-d", "-C", "--no-show-raw-insn", library],
        check=True, capture_output=True, text=True).stdout
    funcs = functions(listing)

    errors = []
    for kernel in KERNELS:
        body = find_clone(funcs, kernel, "avx2")
        if body is None:
            errors.append(f"{kernel}...) has no [clone .avx2]")
        elif not any("%ymm" in line for line in body):
            errors.append(f"{kernel}...) [clone .avx2] uses no ymm register")
    body = find_clone(funcs, RBF, "default")
    if body is None:
        errors.append(f"{RBF}...) has no [clone .default]")
    else:
        for mnemonic in ("divpd", "mulpd"):
            if not uses(body, mnemonic):
                errors.append(f"{RBF}...) [clone .default] has no packed "
                              f"{mnemonic}: fast_exp did not vectorize")

    for error in errors:
        print(f"FAIL: {error}")
    if errors:
        return 1
    print(f"OK: {len(KERNELS)} kernels have a ymm [clone .avx2]; the "
          f"baseline RBF map is packed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
