#!/usr/bin/env python3
"""Atomics-discipline lint for the wm::Atomic shim.

The weak-memory checker (`codlock_wmc`) can only explore code whose
every atomic access goes through the `codlock::wm::Atomic` /
`codlock::wm::Var` shim (src/util/wm_atomic.h): under CODLOCK_WMC the
shim records each access into the exploration runtime, and in a normal
build it compiles to the identical `std::atomic` call.  A raw
`std::atomic` (or `std::memory_order_*`, or `#include <atomic>`) inside
src/lock or src/wm would escape any kernel built over that code, so this
script fails CI on any such token outside the shim itself.

It also emits (with --json) the full inventory of shim declarations and
access sites with their memory-order expressions — the machine-readable
counterpart of the per-field table in DESIGN.md §12.  Comments and
string literals are stripped before matching, so prose mentions of
`std::atomic` are fine.

Usage:
    tools/check_atomics.py [--root DIR] [--json] [--quiet]

Exit codes: 0 clean, 1 escapes found, 2 usage/IO error.
"""

import argparse
import json
import os
import re
import sys

# Directories whose atomics must go through the shim.  src/util is
# deliberately absent: wm_atomic.h / wm_order.h are the shim and name
# std tokens by design.
CHECKED_DIRS = ("src/lock", "src/wm")

FORBIDDEN = [
    (re.compile(r"std\s*::\s*atomic\b"), "std::atomic"),
    (re.compile(r"std\s*::\s*memory_order"), "std::memory_order"),
    (re.compile(r"#\s*include\s*<atomic>"), "#include <atomic>"),
    # atomic_thread_fence / atomic_signal_fence bypass the shim entirely;
    # the checker has no fence modeling, so fences are banned outright.
    (re.compile(r"\batomic_(thread|signal)_fence\b"), "atomic fence"),
]

DECL_RE = re.compile(
    r"wm::(Atomic|Var)<\s*(?P<type>[^>]+?)\s*>\s+(?P<name>\w+)")

# One atomic access: receiver.method(args...) where method is part of the
# shim API.  The order expression is extracted from the argument list.
ACCESS_RE = re.compile(
    r"(?P<recv>[\w\.\->\[\]\(\)]+?)\s*(?:\.|->)\s*"
    r"(?P<method>load|store|exchange|fetch_add|fetch_sub|fetch_or|"
    r"fetch_and|compare_exchange_strong|compare_exchange_weak|"
    r"AwaitPred|AwaitEq|Get|Set)\s*\(")

ORDER_RE = re.compile(r"wm::(relaxed|acquire|release|acq_rel|seq_cst)")


def strip_comments_and_strings(text):
    """Replaces comments and string/char literals with spaces, keeping
    line numbers stable."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            out.append("".join(ch if ch == "\n" else " "
                               for ch in text[i:j]))
            i = j
        elif c in "\"'":
            quote, j = c, i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            out.append(" " * (j - i))
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def balanced_args(code, start):
    """Returns the argument text of the call whose '(' is at start."""
    depth, j = 0, start
    while j < len(code):
        if code[j] == "(":
            depth += 1
        elif code[j] == ")":
            depth -= 1
            if depth == 0:
                return code[start + 1:j]
        j += 1
    return code[start + 1:]


def order_of(args):
    """Extracts the memory-order expression(s) from an access's argument
    list: the wm:: order names, else 'none' (plain Get/Set) / 'variable'
    (order held in a local)."""
    orders = ["wm::" + m.group(1) for m in ORDER_RE.finditer(args)]
    if orders:
        return ", ".join(orders)
    if re.search(r"\b\w*mo\w*\b", args):
        return "variable"
    return "none"


def scan_file(root, rel, escapes, decls, sites):
    path = os.path.join(root, rel)
    with open(path, encoding="utf-8") as f:
        text = f.read()
    code = strip_comments_and_strings(text)
    lines = code.split("\n")

    for lineno, line in enumerate(lines, 1):
        for rx, label in FORBIDDEN:
            if rx.search(line):
                escapes.append({"file": rel, "line": lineno,
                                "token": label,
                                "text": text.split("\n")[lineno - 1].strip()})
        for m in DECL_RE.finditer(line):
            decls.append({"file": rel, "line": lineno,
                          "kind": "wm::" + m.group(1),
                          "type": re.sub(r"\s+", " ", m.group("type")),
                          "name": m.group("name")})

    # Access sites need cross-line argument lists, so scan the flat text.
    offsets, pos = [], 0
    for line in code.split("\n"):
        offsets.append(pos)
        pos += len(line) + 1
    for m in ACCESS_RE.finditer(code):
        args = balanced_args(code, m.end() - 1)
        lineno = next(i for i, off in enumerate(offsets, 1)
                      if off + len(lines[i - 1]) >= m.start())
        recv = m.group("recv").strip()
        # Drop obvious non-shim receivers (std:: containers etc. have no
        # overlap with the method list above except Get/Set, which only
        # wm::Var defines in these directories).
        sites.append({"file": rel, "line": lineno, "object": recv,
                      "method": m.group("method"),
                      "order": order_of(args)})


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--root", default=None,
                    help="repo root (default: parent of this script)")
    ap.add_argument("--json", action="store_true",
                    help="emit the full inventory as JSON")
    ap.add_argument("--quiet", action="store_true",
                    help="suppress the per-site inventory summary")
    opts = ap.parse_args()

    root = opts.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    escapes, decls, sites = [], [], []
    files = []
    for d in CHECKED_DIRS:
        base = os.path.join(root, d)
        if not os.path.isdir(base):
            print("check_atomics: missing directory %s" % base,
                  file=sys.stderr)
            return 2
        for dirpath, _, names in os.walk(base):
            for name in sorted(names):
                if name.endswith((".h", ".cc", ".cpp")):
                    files.append(os.path.relpath(
                        os.path.join(dirpath, name), root))
    for rel in sorted(files):
        scan_file(root, rel, escapes, decls, sites)

    if opts.json:
        print(json.dumps({
            "tool": "check_atomics",
            "checked_dirs": list(CHECKED_DIRS),
            "files_scanned": len(files),
            "escapes": escapes,
            "declarations": decls,
            "access_sites": sites,
            "ok": not escapes,
        }, indent=2))
    else:
        if not opts.quiet:
            print("check_atomics: scanned %d files, %d wm::Atomic/Var "
                  "declarations, %d access sites"
                  % (len(files), len(decls), len(sites)))
        for e in escapes:
            print("%s:%d: raw %s escapes the wm::Atomic shim: %s"
                  % (e["file"], e["line"], e["token"], e["text"]))
        print("check_atomics: %s"
              % ("FAIL (%d escapes)" % len(escapes) if escapes else "PASS"))
    return 1 if escapes else 0


if __name__ == "__main__":
    sys.exit(main())
