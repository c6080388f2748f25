// The one JSON string escaper. The trace and run-report exporters
// (util/trace), the telemetry exporters (obs/exposition) and
// `crowdrank serve`'s JSONL records (io/job_record) all write strings
// through it; obs/json's parser and the jobs reader read them back.
#pragma once

#include <iosfwd>
#include <string_view>

namespace crowdrank {

/// Writes `s` as a JSON string literal: `"` and `\` backslash-escaped,
/// newline, carriage return and tab as `\n`, `\r` and `\t`, and every
/// other byte below 0x20 as `\u00XX`, so no raw control byte reaches the
/// output. Other bytes pass through unchanged.
void write_json_string(std::ostream& os, std::string_view s);

}  // namespace crowdrank
