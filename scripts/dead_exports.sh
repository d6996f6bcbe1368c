#!/usr/bin/env bash
# Dead-export guard: fail when a `val` declared in a lib/**/*.mli has no
# word-match in any OCaml source outside its own module (.ml/.mli) under
# lib, bin, bench, test, perfbench or examples.  An export nothing else
# names is either dead code or an internal helper that belongs out of the
# interface.
#
# Usage: scripts/dead_exports.sh   (from the repository root; exit 1 lists
# the offending Module.value names)
set -euo pipefail
cd "$(dirname "$0")/.."

# Exports kept without an outside caller, one reason each.
allow=(
  Dsm.is_stable        # model checker kept for a per-semantics `check` field
  Circ.is_circ_model   # model checker kept for a per-semantics `check` field
  Icwa.is_icwa_model   # model checker kept for a per-semantics `check` field
  Icwa.prepare         # the only way to build the instance is_icwa_model takes
)

files=$(find lib bin bench test perfbench examples -name _build -prune -o \
  -type f \( -name '*.ml' -o -name '*.mli' \) -print)
dead=()
for mli in $(find lib -name _build -prune -o -name '*.mli' -print); do
  base=${mli%.mli}
  mod=$(basename "$base")
  mod=${mod^}
  others=$(grep -vxF -e "$mli" -e "$base.ml" <<<"$files")
  for v in $(sed -n 's/^ *val \([a-z_][A-Za-z0-9_]*\).*/\1/p' "$mli" | sort -u); do
    [[ " ${allow[*]} " == *" $mod.$v "* ]] && continue
    # shellcheck disable=SC2086
    grep -qw -- "$v" $others || dead+=("$mod.$v")
  done
done
if ((${#dead[@]})); then
  printf 'export with no caller outside its module: %s\n' "${dead[@]}"
  exit 1
fi
echo "dead-export guard: every lib export has an outside caller"
