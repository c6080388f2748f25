// The crowdrank CLI's subcommands, as a testable library.
//
//   crowdrank assign   — generate the fair task graph for a budget
//   crowdrank simulate — run one full simulated round (votes + truth out)
//   crowdrank infer    — aggregate a votes.csv into a ranking.csv
//   crowdrank eval     — score a ranking against a reference
//   crowdrank plan     — cheapest budget for a target accuracy
//
// Each command reads/writes the CSV record formats of io/records.hpp,
// prints a human-readable summary to `out`, and returns a process exit
// code. main() is a thin dispatcher around run_cli().
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace crowdrank::io {

/// Executes one CLI invocation (argv[0] ignored; argv[1] is the
/// subcommand). Writes human output to `out` and errors to `err`.
/// Returns the process exit code (0 success, 1 usage/runtime error): a
/// std::exception a command throws, std::bad_alloc included, ends as one
/// `error: ...` line on `err` and exit code 1.
int run_cli(const std::vector<std::string>& argv, std::ostream& out,
            std::ostream& err);

/// The usage/help text.
std::string cli_usage();

}  // namespace crowdrank::io
