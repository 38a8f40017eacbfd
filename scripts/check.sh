#!/usr/bin/env bash
# Repository lint gate: custom lint + clang-format + clang-tidy.
#
#   scripts/check.sh [--require-tools] [--build-dir DIR]
#
# Exit 0 only when every stage that ran is clean.  The custom lint always
# runs (plain bash + grep, no external tools).  clang-format and clang-tidy
# run when installed; when missing they are skipped with a notice — pass
# --require-tools (the CI tidy job does) to turn a missing tool into a
# failure, so the blocking job can never silently degrade.
#
# clang-tidy needs a compile database: any configured preset exports
# compile_commands.json (CMAKE_EXPORT_COMPILE_COMMANDS is ON globally);
# --build-dir selects one explicitly, otherwise the first configured build
# directory wins.
set -u -o pipefail

cd "$(dirname "$0")/.."

require_tools=0
build_dir=""
while [ $# -gt 0 ]; do
  case "$1" in
    --require-tools) require_tools=1 ;;
    --build-dir) shift; build_dir="${1:?--build-dir needs an argument}" ;;
    *) echo "usage: scripts/check.sh [--require-tools] [--build-dir DIR]" >&2
       exit 2 ;;
  esac
  shift
done

failures=0
fail() { echo "FAIL: $*" >&2; failures=$((failures + 1)); }
note() { echo "  -- $*"; }

# Tracked C++ sources; the lint and format sets are identical.
mapfile -t sources < <(git ls-files \
  'src/**/*.hpp' 'src/**/*.cpp' 'src/*.hpp' \
  'tests/*.cpp' 'tests/*.hpp' 'bench/*.cpp' 'bench/*.hpp' 'examples/*.cpp')
mapfile -t headers < <(git ls-files 'src/**/*.hpp' 'src/*.hpp' 'tests/*.hpp' 'bench/*.hpp')
mapfile -t src_files < <(git ls-files 'src/**/*.hpp' 'src/**/*.cpp' 'src/*.hpp')

# ---- stage 1: custom lint ------------------------------------------------
echo "[1/3] custom lint (${#src_files[@]} src files, ${#headers[@]} headers)"

# Every header is include-once via #pragma once (no include guards).
for h in "${headers[@]}"; do
  if ! grep -q '^#pragma once$' "$h"; then
    fail "$h: missing '#pragma once'"
  fi
done

# Strips // line comments so commentary about `new` or mutexes never trips
# the lint.  (Block comments are rare in this tree and reviewed by eye.)
strip_comments() { sed 's@//.*$@@' "$1"; }

# No naked `new`: ownership goes through containers and make_unique.  The
# word boundary keeps `renew`/`new_size` etc. out.
for f in "${src_files[@]}"; do
  while IFS=: read -r line _; do
    fail "$f:$line: naked 'new' (use std::make_unique or a container)"
  done < <(strip_comments "$f" \
           | grep -nE '(^|[^[:alnum:]_."])new[[:space:]]+[[:alnum:]_:<(]' \
           | cut -d: -f1 | sed 's/$/:/')
done

# All locking goes through the annotated wrappers in src/util/sync.hpp so
# the Clang thread-safety analysis sees every acquire/release.
for f in "${src_files[@]}"; do
  case "$f" in src/util/sync.hpp) continue ;; esac
  while IFS=: read -r line _; do
    fail "$f:$line: raw synchronization primitive (use util/sync.hpp: Mutex/LockGuard/CondVar)"
  done < <(strip_comments "$f" \
           | grep -nE 'std::(mutex|shared_mutex|recursive_mutex|timed_mutex|condition_variable|lock_guard|unique_lock|scoped_lock|shared_lock)|pthread_[a-z]' \
           | cut -d: -f1 | sed 's/$/:/')
done

# Raw socket plumbing stays confined to src/net/: no other library code may
# include the socket headers (and so can never grow a second, unframed wire
# path).  Tests/bench/examples sit outside src_files on purpose — forged-frame
# tests need raw sends.
for f in "${src_files[@]}"; do
  case "$f" in src/net/*) continue ;; esac
  while IFS=: read -r line _; do
    fail "$f:$line: socket header outside src/net/ (all wire I/O goes through net/wire.hpp)"
  done < <(strip_comments "$f" \
           | grep -nE '#[[:space:]]*include[[:space:]]*<(sys/socket\.h|sys/un\.h|netinet/[^>]+|arpa/[^>]+|netdb\.h)>' \
           | cut -d: -f1 | sed 's/$/:/')
done

# Archives are read with one checked pread per coalesced run (FileSource),
# never through a memory mapping: a file truncated under a mapping kills the
# process with SIGBUS where a short pread is a typed error.  The one exception
# is util/huge_pages.hpp, which includes the header for madvise only.
for f in "${src_files[@]}"; do
  case "$f" in src/util/huge_pages.hpp) continue ;; esac
  while IFS=: read -r line _; do
    fail "$f:$line: <sys/mman.h> in src/ (archives are read through FileSource's pread)"
  done < <(strip_comments "$f" \
           | grep -nE '#[[:space:]]*include[[:space:]]*<sys/mman\.h>' \
           | cut -d: -f1 | sed 's/$/:/')
done

# Raw I/O syscalls (::read/::write/::send/::recv) stay behind the two seams
# that verify and fault-inject them: net/wire.cpp (FrameChannel, the only
# wire path) and the src/io/ storage sources.  Anywhere else they would
# bypass the integrity checks and the FaultInjector hooks that make failure
# handling testable.
for f in "${src_files[@]}"; do
  case "$f" in src/net/wire.cpp | src/io/*) continue ;; esac
  while IFS=: read -r line _; do
    fail "$f:$line: direct ::read/::write/::send/::recv (route raw I/O through net/wire.cpp or src/io/ sources)"
  done < <(strip_comments "$f" \
           | grep -nE '(^|[^:[:alnum:]_])::(read|write|send|recv)[[:space:]]*\(' \
           | cut -d: -f1 | sed 's/$/:/')
done

# NOLINT policy: only the narrow check-scoped forms are allowed —
# NOLINT(check), NOLINTNEXTLINE(check), NOLINTBEGIN(check)/NOLINTEND(check).
for f in "${sources[@]}"; do
  while IFS=: read -r line _; do
    fail "$f:$line: bare NOLINT (use NOLINT(check-name) with a reason)"
  done < <(grep -nE 'NOLINT(NEXTLINE|BEGIN|END)?([^(A-Z]|$)' "$f" \
           | cut -d: -f1 | sed 's/$/:/')
done

# A comment may name a Markdown file only if git tracks it (by path, or by
# basename for a bare name), so no comment sends readers to a document that
# is not in the repository.
mapfile -t tracked_md < <(git ls-files '*.md')
md_tracked() {
  local t
  for t in "${tracked_md[@]}"; do
    case "$t" in "$1" | */"$1") return 0 ;; esac
  done
  return 1
}
for f in "${sources[@]}"; do
  while IFS=: read -r line text; do
    for name in $(grep -oE '[[:alnum:]_./-]+\.md\b' <<< "${text#*//}"); do
      md_tracked "$name" || fail "$f:$line: comment names $name, which git does not track"
    done
  done < <(grep -nE '//.*\.md\b' "$f")
done

[ "$failures" -eq 0 ] && echo "  custom lint: clean"

# ---- stage 2: clang-format ----------------------------------------------
if command -v clang-format > /dev/null 2>&1; then
  echo "[2/3] clang-format --dry-run --Werror (${#sources[@]} files)"
  if ! clang-format --dry-run --Werror "${sources[@]}"; then
    fail "clang-format reports formatting drift (run: clang-format -i \$(git ls-files '*.cpp' '*.hpp'))"
  else
    echo "  clang-format: clean"
  fi
else
  if [ "$require_tools" -eq 1 ]; then
    fail "clang-format not installed but --require-tools was given"
  else
    note "clang-format not installed: format check skipped"
  fi
fi

# ---- stage 3: clang-tidy -------------------------------------------------
if command -v clang-tidy > /dev/null 2>&1; then
  if [ -z "$build_dir" ]; then
    for d in build/release build/tsan build/asan build/openmp build; do
      if [ -f "$d/compile_commands.json" ]; then build_dir="$d"; break; fi
    done
  fi
  if [ -z "$build_dir" ] || [ ! -f "$build_dir/compile_commands.json" ]; then
    fail "clang-tidy installed but no compile_commands.json found (configure any preset first, e.g. cmake --preset release)"
  else
    mapfile -t tidy_files < <(git ls-files 'src/**/*.cpp')
    echo "[3/3] clang-tidy over ${#tidy_files[@]} translation units (db: $build_dir)"
    jobs="$(nproc 2> /dev/null || echo 2)"
    if command -v run-clang-tidy > /dev/null 2>&1; then
      if ! run-clang-tidy -p "$build_dir" -quiet -j "$jobs" "${tidy_files[@]}"; then
        fail "clang-tidy reports findings"
      fi
    else
      tidy_rc=0
      printf '%s\n' "${tidy_files[@]}" \
        | xargs -P "$jobs" -n 4 clang-tidy -p "$build_dir" --quiet || tidy_rc=$?
      [ "$tidy_rc" -ne 0 ] && fail "clang-tidy reports findings"
    fi
    [ "$failures" -eq 0 ] && echo "  clang-tidy: clean"
  fi
else
  if [ "$require_tools" -eq 1 ]; then
    fail "clang-tidy not installed but --require-tools was given"
  else
    note "clang-tidy not installed: tidy check skipped"
  fi
fi

if [ "$failures" -gt 0 ]; then
  echo "check.sh: $failures finding(s)" >&2
  exit 1
fi
echo "check.sh: all stages clean"
