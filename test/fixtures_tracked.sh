#!/bin/sh
# Fails when a file that a (deps ...) stanza of test/dune pulls in, by
# (glob_files PATTERN) or by name, is not tracked by git.  A fixture kept
# out of a commit (say by a .gitignore pattern) passes every local run
# and only breaks on a clean checkout; this turns that into a local
# failure.  Runs from anywhere inside the work tree:
#   sh test/fixtures_tracked.sh
# Outside a git work tree there is nothing to compare against, and the
# check says so and passes.
set -eu
if ! top=$(git rev-parse --show-toplevel 2>/dev/null); then
  echo "fixtures-tracked: not inside a git work tree; skipped"
  exit 0
fi
cd "$top/test"
# One token per line, comments dropped; then print "glob PATTERN" for
# each (glob_files PATTERN) and "file PATH" for each plain atom that is
# a direct child of a (deps ...) form.
deps=$(sed -e 's/;.*//' -e 's/[()]/ & /g' dune | tr -s ' \t' '\n\n' | awk '
  $0 == "" { next }
  $0 == "(" { depth++; opened = 1; next }
  $0 == ")" { if (in_deps == depth) in_deps = 0; depth--; glob = 0; next }
  opened {
    opened = 0
    if ($0 == "deps") in_deps = depth
    glob = in_deps && depth == in_deps + 1 && $0 == "glob_files"
    next
  }
  glob { print "glob " $0; glob = 0; next }
  in_deps && depth == in_deps && $0 !~ /^%/ { print "file " $0 }
')
status=0
check() {
  if ! git ls-files --error-unmatch -- "$1" >/dev/null 2>&1; then
    echo "fixtures-tracked: test/$1 is a test dependency but is not tracked by git"
    status=1
  fi
}
echo "$deps" | {
  while read -r kind path; do
    case $kind in
      glob) for f in $path; do if [ -f "$f" ]; then check "$f"; fi; done ;;
      file) if [ -f "$path" ]; then check "$path"; fi ;;
    esac
  done
  exit $status
}
