// Build identification: version, git revision, compiler, build type (all
// stamped at build time via the generated crowdrank/version.hpp) plus
// the runtime thread-count resolution. Exposed by `crowdrank --version`
// and stamped into every trace::RunReport so perf numbers are always
// attributable to an exact build.
#pragma once

#include <cstddef>
#include <string>

namespace crowdrank {

struct BuildInfo {
  std::string version;           ///< project version (CMake)
  std::string git_revision;      ///< `git describe --always --dirty --tags`
  std::string compiler;          ///< "<id> <version>", e.g. "GNU 12.2.0"
  std::string build_type;        ///< CMAKE_BUILD_TYPE at configure time
  std::size_t threads = 1;       ///< configured_thread_count() right now
  std::string thread_source;     ///< "CROWDRANK_THREADS" or "hardware"
};

/// Snapshot of the build stamp + current thread resolution.
BuildInfo build_info();

/// Multi-line human-readable form (the `crowdrank --version` output).
std::string build_info_string();

}  // namespace crowdrank
