#!/usr/bin/env bash
# Install-rule check: `cmake --install` a configured, built tree into a
# temporary prefix and fail if any library declared under src/ with
# add_library(hotc_* ...) (INTERFACE and ALIAS targets excepted) is
# missing from <prefix>/lib as libhotc_*.a.  A library left out of the
# top-level install(TARGETS ...) rule leaves an installed tree that
# cannot link.
#
# Usage: tools/check_install.sh [build-dir]   (default: <repo>/build)
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD="${1:-$ROOT/build}"
PREFIX="$(mktemp -d)"
trap 'rm -rf "$PREFIX"' EXIT

cmake --install "$BUILD" --prefix "$PREFIX" >/dev/null

libs=$(grep -rhE 'add_library\(hotc_[a-z_]+' "$ROOT/src" \
  --include=CMakeLists.txt | grep -vE 'INTERFACE|ALIAS' |
  sed -E 's/.*add_library\((hotc_[a-z_]+).*/\1/' | sort -u)
missing=0
for lib in $libs; do
  if [ ! -f "$PREFIX/lib/lib$lib.a" ]; then
    echo "install: lib/lib$lib.a missing; add $lib to install(TARGETS ...)"
    missing=1
  fi
done
[ "$missing" -ne 0 ] ||
  echo "install: all $(echo "$libs" | wc -w) hotc_* libraries installed"
exit "$missing"
