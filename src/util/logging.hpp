// Line-atomic warnings on stderr.
//
// The library is silent except for warnings (Core Guidelines: libraries
// should not write to stdout): an environment variable it cannot honour,
// a telemetry file it cannot write. `log_warn()` builds one message and
// writes it as a single "[WARN ] ..." line under a process-wide mutex, so
// lines from concurrent pipeline lanes never interleave mid-message (the
// TSan suite covers concurrent logging).
#pragma once

#include <sstream>

namespace crowdrank {

namespace detail {
/// Stream-style one-shot message builder: writes its line on destruction.
/// Must not be used while another WarnLine of this thread is being
/// written (re-entrant logging from inside the sink would self-deadlock).
class WarnLine {
 public:
  WarnLine() = default;
  WarnLine(const WarnLine&) = delete;
  WarnLine& operator=(const WarnLine&) = delete;
  ~WarnLine();

  template <typename T>
  WarnLine& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  std::ostringstream stream_;
};
}  // namespace detail

/// `log_warn() << "x = " << 1;` writes "[WARN ] x = 1" to stderr.
inline detail::WarnLine log_warn() { return detail::WarnLine(); }

}  // namespace crowdrank
