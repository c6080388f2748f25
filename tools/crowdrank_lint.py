#!/usr/bin/env python3
"""Nondeterminism-hazard linter for crowdrank.

The library promises bitwise-reproducible results (DESIGN.md): same votes +
same seed -> same ranking, at any thread count. A handful of C++ constructs
quietly break that promise, so this script bans them in src/:

  rand              libc rand()/srand() — unseeded/global PRNG; all
                    randomness must flow through util/rng.hpp.
  unordered-iter    iterating a std::unordered_* container — iteration
                    order is hash/libc++-version dependent, so anything
                    order-sensitive (float accumulation, output emission)
                    becomes nondeterministic. Keyed lookup is fine; this
                    rule only fires on declared-unordered variables that
                    are ranged-over or .begin()/.end()'d in the same file.
  wall-clock        system_clock / std::time / localtime / gmtime in result
                    computation. Timing utilities (util/timer.hpp,
                    util/trace.*) are allowlisted; results must not be.
  raw-new           raw new/delete expressions — own memory with
                    containers or smart pointers ('= delete' is fine).
  stderr-outside-logger
                    writing std::cerr / fprintf(stderr, ...) directly —
                    diagnostics in src/ go through util/logging.hpp's
                    log_warn so line-atomic output holds everywhere; its
                    own sink (src/util/logging.cpp) carries the one
                    lint:allow.
  raw-intrinsics    including <immintrin.h> or naming _mm*/__m128/__m256/
                    __m512 vector types and intrinsics outside the simd
                    layer (src/util/simd.hpp, src/util/kernels_avx2.cpp).
                    Hot loops call the dispatched simd:: kernels, whose
                    scalar/AVX2 pairs are proven bitwise-identical by
                    tests/util/test_simd.cpp; an intrinsic anywhere else
                    is an unproven rounding hazard with no scalar twin.
  raw-mutex         naming std::mutex / std::condition_variable /
                    std::lock_guard / std::unique_lock / std::scoped_lock
                    in src/. Locking goes through the annotated
                    crowdrank::Mutex / CondVar / MutexLock wrappers
                    (util/mutex.hpp) so the thread-safety preset can prove
                    the discipline; the wrapper's own internals carry the
                    sanctioned lint:allow escapes.

Two rules are scoped to a subtree rather than all of src/:

  fs-write-in-service    opening, writing, renaming, or deleting files from
                         src/service/ anywhere except the artifact module
                         (src/service/artifact.cpp). Every byte the service
                         persists must flow through the framed, checksummed
                         artifact format — an ofstream elsewhere in the
                         service layer is an unversioned side channel that
                         the result cache, `crowdrank query`, and crash
                         recovery cannot read back. Flags std::ofstream /
                         std::fstream / fopen / fwrite and the mutating
                         std::filesystem calls (create_director*, remove,
                         rename, copy, resize_file).
  dense-in-propagation   constructing a dense Matrix (or materializing one
                         via .to_dense()) inside src/core/propagation.cpp.
                         The Perron branch stays on the graph's CSR
                         (DESIGN.md §7c), and the pre-closure graph turns
                         dense only at sanctioned sites, which carry
                         lint:allow annotations: dense_weights, where the
                         doubling starts and the dense-by-nature
                         BoundedWalks/ExactPaths engines take their direct
                         matrix, and the closure fill (pair_normalize,
                         which every engine's closure goes through, the
                         Perron limit's included). The
                         rule flags `Matrix(...)`, `Matrix name(...)`,
                         `Matrix::zero/identity`, and `.to_dense(` — but
                         not bare `Matrix m;` declarations, `Matrix x =
                         <kernel call>` assignments (no allocation beyond
                         what the kernel returns), or a column-0 `Matrix`
                         (a function signature's return type).

Beyond src/, the script also enforces the public-API facade
(src/crowdrank.hpp) over out-of-tree consumers:

  engine-outside-facade   naming InferenceEngine in bench/, examples/, or
                          tools/ — consumers drive the pipeline through
                          crowdrank::api::rank (or the batch service), so
                          internal engine refactors cannot break them.
  submodule-include       #include "core/..." (or any other sub-module
                          header) from examples/ — examples are the copy-
                          paste template for downstream users and must
                          compile against the umbrella crowdrank.hpp only.

Suppress a finding for one line with a trailing comment:
    // lint:allow(<rule>)

Also runs clang-format --dry-run -Werror over the C++ sources when a
clang-format binary is available (check-only; never rewrites). Pure
stdlib; exits 0 when clean, 1 on findings, 2 on usage errors.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CPP_EXTENSIONS = (".cpp", ".hpp", ".h", ".cc")

# Files whose whole job is to touch the wall clock.
WALL_CLOCK_ALLOWLIST = (
    "src/util/timer.hpp",
    "src/util/trace.hpp",
    "src/util/trace.cpp",
)

ALLOW_RE = re.compile(r"//\s*lint:allow\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\)")

UNORDERED_DECL_RE = re.compile(
    r"\bstd::unordered_(?:map|set|multimap|multiset)\s*<[^;{]*?>\s*"
    r"&?\s*(\w+)\s*[;({=,)]"
)

RULES = {
    "rand": re.compile(r"\b(?:std::)?s?rand\s*\("),
    "wall-clock": re.compile(
        r"\bsystem_clock\b|\bstd::time\s*\(|\blocaltime\b|\bgmtime\b"
    ),
    "raw-new": re.compile(
        r"\bnew\s+[A-Za-z_:(]|\bdelete\s*(?:\[\s*\])?\s+?[A-Za-z_(*]"
    ),
    "stderr-outside-logger": re.compile(
        r"\bstd::cerr\b|\bfprintf\s*\(\s*stderr\b"
    ),
    "raw-mutex": re.compile(
        r"\bstd::(?:mutex|shared_mutex|recursive_mutex|timed_mutex|"
        r"condition_variable(?:_any)?|lock_guard|unique_lock|scoped_lock)\b"
    ),
}

# Vectorization choke point: raw intrinsics live only in the simd layer,
# where every AVX2 kernel has a scalar twin and an identity test. The
# dispatch header is allowlisted for the (currently hypothetical) case of
# an inline-intrinsic helper shared by both TUs.
RAW_INTRINSICS_ALLOWED_FILES = (
    "src/util/simd.hpp",
    "src/util/kernels_avx2.cpp",
)
RAW_INTRINSICS_RE = re.compile(
    r"immintrin\.h|\b_mm(?:256|512)?_\w+\s*\(|\b__m(?:128|256|512)\w*\b"
)

# Dense-materialization guard for the propagation stage: the Perron branch
# stays on the CSR, and the pre-closure graph turns dense only at
# lint:allow sites. Construction-with-args and dense materialization only:
# `Matrix m;` declarations and assignments from dense kernel returns stay
# unflagged (they alias or move a result, they do not decide the
# representation).
DENSE_IN_PROPAGATION_FILE = "src/core/propagation.cpp"
DENSE_IN_PROPAGATION_RE = re.compile(
    r"\bMatrix\s*\(|\bMatrix\s+\w+\s*\(|\bMatrix::(?:zero|identity)\b"
    r"|\.to_dense\s*\("
)

# Persistence choke point for the service layer. Everything the service
# writes to disk goes through the artifact module (framed + checksummed);
# any other filesystem write in src/service/ is an unversioned side channel.
# Read-only constructs (ifstream, exists, file_size, directory iteration)
# are deliberately not matched.
FS_WRITE_DIR = "src/service/"
FS_WRITE_ALLOWED_FILES = ("src/service/artifact.cpp",)
FS_WRITE_RE = re.compile(
    r"\bstd::ofstream\b|\bstd::fstream\b|\bfopen\s*\(|\bfwrite\s*\("
    r"|\bstd::filesystem::(?:create_director\w*|remove\w*|rename|copy\w*|"
    r"resize_file)\b"
)

# Facade enforcement over out-of-tree consumers. src/ and tests/ may touch
# the engine directly (tests pin its exact contract); everything else goes
# through crowdrank::api or the batch service.
FACADE_DIRS = ("bench", "examples", "tools")
ENGINE_RE = re.compile(r"\bInferenceEngine\b")
SUBMODULE_INCLUDE_RE = re.compile(
    r'#include\s+"(?:analysis|baselines|core|crowd|graph|io|metrics|'
    r'service|util)/'
)


def strip_noise(line: str) -> str:
    """Remove string/char literals and // comments so regexes only see code.

    Line-based and deliberately simple: block comments spanning lines can
    slip through, which at worst produces a finding the author silences
    with lint:allow.
    """
    line = re.sub(r'"(?:\\.|[^"\\])*"', '""', line)
    line = re.sub(r"'(?:\\.|[^'\\])*'", "''", line)
    return re.sub(r"//.*$", "", line)


def source_files() -> list[str]:
    out = subprocess.run(
        ["git", "ls-files", "src"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
    ).stdout.splitlines()
    return [f for f in out if f.endswith(CPP_EXTENSIONS)]


def allowed_rules(line: str) -> set[str]:
    m = ALLOW_RE.search(line)
    if not m:
        return set()
    return {r.strip() for r in m.group(1).split(",")}


def lint_file(path: str) -> list[tuple[str, int, str, str]]:
    with open(os.path.join(ROOT, path), encoding="utf-8") as f:
        lines = f.read().splitlines()
    return lint_lines(path, lines)


def lint_lines(path: str, lines: list[str]) -> list[tuple[str, int, str, str]]:
    findings = []
    stripped = [strip_noise(l) for l in lines]

    # Pass 1: names declared as unordered containers anywhere in this file
    # (locals and members alike — scope-blind on purpose; keyed lookups
    # never match the iteration patterns below, so over-collection is
    # harmless).
    unordered_names = set()
    for code in stripped:
        for m in UNORDERED_DECL_RE.finditer(code):
            unordered_names.add(m.group(1))

    iter_res = []
    if unordered_names:
        names = "|".join(re.escape(n) for n in sorted(unordered_names))
        iter_res = [
            # range-for:  for (auto& kv : table)
            re.compile(r":\s*(?:%s)\s*\)" % names),
            # explicit iterators: table.begin() / table.cbegin(). A lone
            # .end() is not flagged — comparing find() against the end
            # sentinel is keyed lookup, not iteration.
            re.compile(r"\b(?:%s)\s*\.\s*c?r?begin\s*\(" % names),
        ]

    for lineno, (raw, code) in enumerate(zip(lines, stripped), start=1):
        allow = allowed_rules(raw)
        for rule, pattern in RULES.items():
            if rule == "wall-clock" and path in WALL_CLOCK_ALLOWLIST:
                continue
            m = pattern.search(code)
            if m and rule not in allow:
                findings.append((path, lineno, rule, raw.strip()))
        if (path not in RAW_INTRINSICS_ALLOWED_FILES
                and "raw-intrinsics" not in allow
                and RAW_INTRINSICS_RE.search(code)):
            findings.append((path, lineno, "raw-intrinsics", raw.strip()))
        if (path.startswith(FS_WRITE_DIR)
                and path not in FS_WRITE_ALLOWED_FILES
                and "fs-write-in-service" not in allow
                and FS_WRITE_RE.search(code)):
            findings.append(
                (path, lineno, "fs-write-in-service", raw.strip())
            )
        if (path == DENSE_IN_PROPAGATION_FILE
                and "dense-in-propagation" not in allow):
            m = DENSE_IN_PROPAGATION_RE.search(code)
            # A match at column 0 is a top-level function signature whose
            # return type is Matrix, not a dense construction.
            if m and m.start() > 0:
                findings.append(
                    (path, lineno, "dense-in-propagation", raw.strip())
                )
        if "unordered-iter" not in allow:
            for pattern in iter_res:
                if pattern.search(code):
                    findings.append(
                        (path, lineno, "unordered-iter", raw.strip())
                    )
                    break
    return findings


def facade_files() -> list[str]:
    out = subprocess.run(
        ["git", "ls-files", *FACADE_DIRS],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
    ).stdout.splitlines()
    return [f for f in out if f.endswith(CPP_EXTENSIONS)]


def lint_facade_file(path: str) -> list[tuple[str, int, str, str]]:
    with open(os.path.join(ROOT, path), encoding="utf-8") as f:
        lines = f.read().splitlines()
    return lint_facade_lines(path, lines)


def lint_facade_lines(
        path: str, lines: list[str]) -> list[tuple[str, int, str, str]]:
    findings = []
    in_examples = path.startswith("examples/")
    for lineno, raw in enumerate(lines, start=1):
        allow = allowed_rules(raw)
        # Includes live inside string literals, so match the raw line here.
        if (in_examples and "submodule-include" not in allow
                and SUBMODULE_INCLUDE_RE.search(raw)):
            findings.append((path, lineno, "submodule-include", raw.strip()))
        if ("engine-outside-facade" not in allow
                and ENGINE_RE.search(strip_noise(raw))):
            findings.append(
                (path, lineno, "engine-outside-facade", raw.strip())
            )
    return findings


def find_clang_format() -> str | None:
    env = os.environ.get("CLANG_FORMAT")
    if env and shutil.which(env):
        return shutil.which(env)
    for name in ("clang-format", "clang-format-19", "clang-format-18",
                 "clang-format-17", "clang-format-16", "clang-format-15",
                 "clang-format-14"):
        path = shutil.which(name)
        if path:
            return path
    return None


def check_format() -> int:
    binary = find_clang_format()
    if binary is None:
        print("lint: clang-format not found on PATH; skipping format check")
        return 0
    files = subprocess.run(
        ["git", "ls-files", "src", "tests", "tools", "bench", "examples"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
    ).stdout.splitlines()
    files = [f for f in files if f.endswith(CPP_EXTENSIONS)]
    result = subprocess.run(
        [binary, "--dry-run", "-Werror", "--style=file", *files],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    if result.returncode != 0:
        sys.stderr.write(result.stderr)
        print("lint: clang-format check failed (check-only; fix with "
              "clang-format -i)", file=sys.stderr)
        return 1
    print("lint: clang-format clean over %d files" % len(files))
    return 0


# ---------------------------------------------------------------------------
# Self-test: every rule must fire on an embedded bad snippet, stay quiet on
# a good one, and honor its lint:allow escape. Run with --self-test.
# Each case: (rule, path the snippet pretends to live at, snippet lines).
# ---------------------------------------------------------------------------

SELF_TEST_BAD = [
    ("rand", "src/core/x.cpp", ["int r = rand();"]),
    ("rand", "src/core/x.cpp", ["std::srand(42);"]),
    ("unordered-iter", "src/core/x.cpp", [
        "std::unordered_map<int, int> table;",
        "for (auto& kv : table) {",
    ]),
    ("unordered-iter", "src/core/x.cpp", [
        "std::unordered_set<int> seen;",
        "auto it = seen.begin();",
    ]),
    ("wall-clock", "src/core/x.cpp",
     ["auto t = std::chrono::system_clock::now();"]),
    ("raw-new", "src/core/x.cpp", ["int* p = new int[8];"]),
    ("stderr-outside-logger", "src/core/x.cpp",
     ['std::cerr << "oops";']),
    ("stderr-outside-logger", "src/core/x.cpp",
     ['fprintf(stderr, "oops");']),
    ("raw-intrinsics", "src/core/x.cpp", ["#include <immintrin.h>"]),
    ("raw-intrinsics", "src/util/matrix.cpp",
     ["__m256d v = _mm256_loadu_pd(p);"]),
    ("raw-intrinsics", "src/util/simd.cpp",
     ["t = _mm_add_pd(t, _mm_mul_pd(a, b));"]),
    ("raw-mutex", "src/core/x.cpp", ["std::mutex mu;"]),
    ("raw-mutex", "src/core/x.cpp",
     ["std::lock_guard<std::mutex> lock(mu);"]),
    ("raw-mutex", "src/core/x.cpp", ["std::condition_variable cv;"]),
    ("dense-in-propagation", DENSE_IN_PROPAGATION_FILE,
     ["  Matrix dense = Matrix::zero(n, n);"]),
    ("dense-in-propagation", DENSE_IN_PROPAGATION_FILE,
     ["  auto d = sparse.to_dense();"]),
    ("fs-write-in-service", "src/service/result_cache.cpp",
     ["std::ofstream out(path, std::ios::binary);"]),
    ("fs-write-in-service", "src/service/service.cpp",
     ["std::filesystem::create_directories(dir, ec);"]),
    ("fs-write-in-service", "src/service/service.cpp",
     ["std::filesystem::rename(tmp, final_path, ec);"]),
    ("fs-write-in-service", "src/service/job.hpp",
     ['FILE* f = fopen(path.c_str(), "wb");']),
]

SELF_TEST_GOOD = [
    ("rand", "src/core/x.cpp", ["Rng rng(seed); rng.uniform();"]),
    ("unordered-iter", "src/core/x.cpp", [
        "std::unordered_map<int, int> table;",
        "auto it = table.find(k);",
        "if (it != table.end()) {",
    ]),
    ("wall-clock", "src/core/x.cpp",
     ["auto t = std::chrono::steady_clock::now();"]),
    ("raw-new", "src/core/x.cpp",
     ["auto p = std::make_unique<int[]>(8);"]),
    ("raw-new", "src/core/x.cpp",
     ["Widget(const Widget&) = delete;"]),
    ("stderr-outside-logger", "src/core/x.cpp",
     ['log_warn() << "oops";']),
    ("raw-mutex", "src/core/x.cpp",
     ["MutexLock lock(mutex_);", "CondVar cv;"]),
    # The simd layer is the sanctioned intrinsics site.
    ("raw-intrinsics", "src/util/kernels_avx2.cpp",
     ["#include <immintrin.h>",
      "t0 = _mm256_add_pd(t0, _mm256_mul_pd(av, _mm256_loadu_pd(row)));"]),
    # Calling the dispatched kernels is what everyone else does.
    ("raw-intrinsics", "src/util/matrix.cpp",
     ["simd::axpy(out.data(), x.data(), a, n);"]),
    ("dense-in-propagation", DENSE_IN_PROPAGATION_FILE,
     ["Matrix propagate(const SparseMatrix& m) {"]),
    # The artifact module is the sanctioned persistence site.
    ("fs-write-in-service", "src/service/artifact.cpp",
     ["std::ofstream out(tmp, std::ios::binary | std::ios::trunc);"]),
    # Reads are fine anywhere in the service layer.
    ("fs-write-in-service", "src/service/result_cache.cpp",
     ["std::ifstream in(path, std::ios::binary);",
      "if (std::filesystem::exists(path)) {"]),
    # Same constructs outside src/service/ are not this rule's business.
    ("fs-write-in-service", "src/io/commands.cpp",
     ["std::ofstream out(path);"]),
]

SELF_TEST_FACADE_BAD = [
    ("engine-outside-facade", "bench/b.cpp",
     ["InferenceEngine engine(config);"]),
    ("submodule-include", "examples/e.cpp",
     ['#include "core/pipeline.hpp"']),
]

SELF_TEST_FACADE_GOOD = [
    ("engine-outside-facade", "bench/b.cpp",
     ["auto result = crowdrank::api::rank(votes, config);"]),
    ("submodule-include", "examples/e.cpp",
     ['#include "crowdrank.hpp"']),
]


def run_self_test() -> int:
    cases = []

    def check(kind, rule, path, lines, lint_fn, expect_fire):
        findings = lint_fn(path, lines)
        fired = {f[2] for f in findings}
        if expect_fire:
            ok = rule in fired
            detail = "fired" if ok else "did NOT fire (got %s)" % sorted(fired)
        else:
            ok = rule not in fired
            detail = ("quiet" if ok
                      else "false positive: %s" % sorted(fired))
        cases.append(("%s %s [%s]" % (kind, rule, path), ok, detail))

    for rule, path, lines in SELF_TEST_BAD:
        check("bad-snippet", rule, path, lines, lint_lines, True)
        # The same snippet with lint:allow on every line must be quiet.
        allowed = ["%s  // lint:allow(%s)" % (l, rule) for l in lines]
        check("lint:allow", rule, path, allowed, lint_lines, False)
    for rule, path, lines in SELF_TEST_GOOD:
        check("good-snippet", rule, path, lines, lint_lines, False)
    for rule, path, lines in SELF_TEST_FACADE_BAD:
        check("bad-snippet", rule, path, lines, lint_facade_lines, True)
        allowed = ["%s  // lint:allow(%s)" % (l, rule) for l in lines]
        check("lint:allow", rule, path, allowed, lint_facade_lines, False)
    for rule, path, lines in SELF_TEST_FACADE_GOOD:
        check("good-snippet", rule, path, lines, lint_facade_lines, False)

    # Every rule the linter knows must appear in at least one bad snippet,
    # so adding a rule without self-test coverage fails here.
    covered = {rule for rule, _, _ in SELF_TEST_BAD}
    covered |= {rule for rule, _, _ in SELF_TEST_FACADE_BAD}
    all_rules = set(RULES) | {
        "unordered-iter", "dense-in-propagation", "fs-write-in-service",
        "raw-intrinsics", "engine-outside-facade", "submodule-include",
    }
    for rule in sorted(all_rules - covered):
        cases.append(("coverage %s" % rule, False,
                      "no bad snippet exercises this rule"))

    failed = [c for c in cases if not c[1]]
    for name, ok, detail in cases:
        print("  %s  %s: %s" % ("PASS" if ok else "FAIL", name, detail))
    if failed:
        print("lint --self-test: %d/%d cases FAILED"
              % (len(failed), len(cases)), file=sys.stderr)
        return 1
    print("lint --self-test: all %d cases passed" % len(cases))
    return 0


def main() -> int:
    if len(sys.argv) == 2 and sys.argv[1] == "--self-test":
        return run_self_test()
    if len(sys.argv) > 1:
        print("usage: tools/crowdrank_lint.py [--self-test]", file=sys.stderr)
        return 2

    files = source_files()
    findings = []
    for path in files:
        findings.extend(lint_file(path))
    consumer_files = facade_files()
    for path in consumer_files:
        findings.extend(lint_facade_file(path))

    for path, lineno, rule, text in findings:
        print("%s:%d: [%s] %s" % (path, lineno, rule, text), file=sys.stderr)

    status = 0
    if findings:
        print(
            "lint: %d finding(s) — see rules in "
            "tools/crowdrank_lint.py; suppress a deliberate use with "
            "// lint:allow(<rule>)" % len(findings),
            file=sys.stderr,
        )
        status = 1
    else:
        print(
            "lint: %d source + %d consumer files clean"
            % (len(files), len(consumer_files))
        )

    if check_format() != 0:
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
