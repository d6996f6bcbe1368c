#!/usr/bin/env bash
# Dead-export guard: fail when a `val` declared in a lib/**/*.mli is used
# nowhere outside its own module (.ml/.mli) under lib, bin, bench, test,
# perfbench or examples.  An export nothing else uses is either dead code
# or an internal helper that belongs out of the interface.
#
# Only qualified uses count, in code (comments and string literals are
# skipped).  For a value v of module Mod (a value of a nested signature,
# such as Budget.Fault.arm, is reached through its path Mod.Sub.v):
#   - Mod.v, with or without a library prefix (Ddb_core.Mod.v);
#   - Alias.v, in a file that has `module Alias = ...Mod`;
#   - v inside a local open Mod.( ... );
#   - a bare v in a file that opens or includes Mod (`open Mod`,
#     `let open Mod in`, `include Mod`).
# A bare word elsewhere (another module's value, a record field, a
# comment) does not keep an export alive.
#
# Usage: scripts/dead_exports.sh   (from the repository root; exit 1 lists
# the offending Module.value names)
set -euo pipefail
cd "$(dirname "$0")/.."

exec python3 - <<'EOF'
import os, re, sys

# Exports kept without an outside use, one reason each.
ALLOW = {
    "Dsm.is_stable": "model checker kept for a per-semantics `check` field",
    "Circ.is_circ_model": "model checker kept for a per-semantics `check` field",
    "Icwa.is_icwa_model": "model checker kept for a per-semantics `check` field",
    "Icwa.prepare": "the only way to build the instance is_icwa_model takes",
}

ROOTS = ["lib", "bin", "bench", "test", "perfbench", "examples"]
MODPATH = r"[A-Z]\w*(?:\.[A-Z]\w*)*"
QUOTED = re.compile(r"\{([a-z_]*)\|")
CHAR = re.compile(r"'(\\[^']+|[^\\'])'")


def sources():
    for root in ROOTS:
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = [d for d in dirnames if d != "_build"]
            for f in filenames:
                if f.endswith((".ml", ".mli")):
                    yield os.path.join(dirpath, f)


def strip(text):
    """The code of an OCaml source: comments, string literals and quoted
    strings become one space each (comments nest, and a string inside a
    comment is skipped whole; character literals are told apart from type
    variables)."""
    out, i, n, depth = [], 0, len(text), 0
    while i < n:
        start = i
        if text.startswith("(*", i):
            depth, i = depth + 1, i + 2
            continue
        if depth and text.startswith("*)", i):
            depth, i = depth - 1, i + 2
            continue
        if text[i] == '"':
            i += 1
            while i < n and text[i] != '"':
                i += 2 if text[i] == "\\" else 1
            i += 1
        elif QUOTED.match(text, i):
            m = QUOTED.match(text, i)
            end = text.find("|" + m.group(1) + "}", m.end())
            i = n if end < 0 else end + len(m.group(1)) + 2
        elif CHAR.match(text, i):
            i = CHAR.match(text, i).end()
        else:
            if not depth:
                out.append(text[i])
            i += 1
            continue
        if not depth:
            out.append(" ")
        assert i > start
    return "".join(out)


def exports(mli):
    """(path, value) for every `val` of the interface; the path of a value
    inside `module Fault : sig ... end` of budget.mli is (Budget, Fault)."""
    path, found = [os.path.basename(mli)[:-4].capitalize()], []
    for line in strip(open(mli).read()).splitlines():
        m = re.match(r"\s*module\s+([A-Z]\w*)\s*:\s*sig\b", line)
        if m:
            path.append(m.group(1))
        elif re.match(r"\s*end\b", line) and len(path) > 1:
            path.pop()
        else:
            m = re.match(r"\s*val\s+([a-z_][\w']*)", line)
            if m:
                found.append((tuple(path), m.group(1)))
    return found


def balanced(code, i):
    """The text inside the parenthesised group opening at code[i]."""
    depth = 0
    for j in range(i, len(code)):
        depth += {"(": 1, ")": -1}.get(code[j], 0)
        if depth == 0:
            return code[i + 1 : j]
    return code[i + 1 :]


def suffixes(dotted):
    parts = dotted.split(".")
    return {".".join(parts[i:]) for i in range(len(parts))}


class Uses:
    """What one source file names: every qualified name (with each of its
    suffixes, so Ddb_core.Cwa.v also counts as Cwa.v), its module aliases,
    the modules it opens, the words inside each local open, and every
    word."""

    def __init__(self, code):
        self.qualified = set()
        for m in re.finditer(r"(?<![\w.'])" + MODPATH + r"\.[a-z_][\w']*", code):
            self.qualified |= suffixes(m.group(0))
        self.aliases = [
            (m.group(1), suffixes(m.group(2)))
            for m in re.finditer(
                r"\bmodule\s+([A-Z]\w*)\s*=\s*(" + MODPATH + ")", code)
        ]
        self.opens = set()
        for m in re.finditer(r"\b(?:open!?|include)\s+(" + MODPATH + ")", code):
            self.opens |= suffixes(m.group(1))
        self.local = {}
        for m in re.finditer(r"(?<![\w.])(" + MODPATH + r")\.\(", code):
            words = set(re.findall(r"(?<![\w'.~?])[\w'.]+",
                                   balanced(code, m.end() - 1)))
            for s in suffixes(m.group(1)):
                self.local.setdefault(s, set()).update(words)
        # a label (~v, ?v) is not a use of v
        self.words = set(re.findall(r"(?<![\w'.~?])[\w'.]+", code))

    def names(self, path, v):
        """Whether value [v] of module [path] is used in one of the four
        accepted ways."""
        for k in range(len(path)):
            head, tail = ".".join(path[: k + 1]), ".".join(path[k + 1 :] + (v,))
            if (
                head + "." + tail in self.qualified
                or any(alias + "." + tail in self.qualified
                       for alias, target in self.aliases if head in target)
                or tail in self.local.get(head, ())
                or (head in self.opens and tail in self.words)
            ):
                return True
        return False


files = sorted(sources())
uses = {f: Uses(strip(open(f).read())) for f in files}
dead = []
for mli in (f for f in files if f.startswith("lib/") and f.endswith(".mli")):
    own = {mli, mli[:-1]}
    for path, v in exports(mli):
        name = ".".join(path + (v,))
        if name not in ALLOW and not any(
            uses[f].names(path, v) for f in files if f not in own
        ):
            dead.append(name)
if dead:
    print("export with no use outside its module: " + " ".join(sorted(dead)))
    sys.exit(1)
print("dead-export guard: every lib export has an outside use")
EOF
