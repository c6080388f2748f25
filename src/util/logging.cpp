#include "util/logging.hpp"

#include <iostream>

#include "util/mutex.hpp"

namespace crowdrank::detail {

WarnLine::~WarnLine() {
  // One lock per line: concurrent lanes may warn freely without tearing a
  // line apart. This is the single sanctioned raw-stderr write in src/ —
  // everything else routes through log_warn so the format stays in one
  // place.
  static Mutex write_mutex;
  const MutexLock lock(write_mutex);
  std::cerr << "[WARN ] "  // lint:allow(stderr-outside-logger)
            << stream_.str() << '\n';
}

}  // namespace crowdrank::detail
