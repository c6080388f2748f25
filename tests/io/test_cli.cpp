// End-to-end tests of the CLI subcommands through run_cli().
#include "io/commands.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "io/records.hpp"
#include "metrics/kendall.hpp"

namespace crowdrank::io {
namespace {

namespace fs = std::filesystem;

/// Scratch dir per test, removed on destruction.
struct TempDir {
  fs::path path;
  TempDir() {
    path = fs::temp_directory_path() /
           ("crowdrank_cli_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter()++));
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string file(const std::string& name) const {
    return (path / name).string();
  }
  static int& counter() {
    static int c = 0;
    return c;
  }
};

int run(std::initializer_list<std::string> args, std::string* out_text,
        std::string* err_text = nullptr) {
  std::vector<std::string> argv{"crowdrank"};
  argv.insert(argv.end(), args.begin(), args.end());
  std::ostringstream out;
  std::ostringstream err;
  const int code = run_cli(argv, out, err);
  if (out_text != nullptr) *out_text = out.str();
  if (err_text != nullptr) *err_text = err.str();
  return code;
}

TEST(Cli, HelpAndUnknownCommand) {
  std::string out;
  std::string err;
  EXPECT_EQ(run({"help"}, &out, &err), 0);
  EXPECT_NE(out.find("usage:"), std::string::npos);
  EXPECT_EQ(run({"frobnicate"}, &out, &err), 1);
  EXPECT_NE(err.find("unknown command"), std::string::npos);
  std::ostringstream so;
  std::ostringstream se;
  EXPECT_EQ(run_cli({"crowdrank"}, so, se), 1);  // no subcommand
}

TEST(Cli, AssignWritesTasks) {
  const TempDir dir;
  std::string out;
  const int code = run({"assign", "--object-count", "12",
                        "--selection-ratio", "0.5", "--tasks-out",
                        dir.file("tasks.csv")},
                       &out);
  EXPECT_EQ(code, 0);
  const auto tasks = load_tasks(dir.file("tasks.csv"));
  EXPECT_EQ(tasks.size(), 33u);  // 0.5 * C(12,2)
  EXPECT_NE(out.find("comparisons 33"), std::string::npos);
}

TEST(Cli, AssignAcceptsDollarBudget) {
  const TempDir dir;
  std::string out;
  // $3 at $0.025 x 3 workers buys 40 comparisons.
  const int code = run({"assign", "--object-count", "12", "--budget", "3",
                        "--tasks-out", dir.file("tasks.csv")},
                       &out);
  EXPECT_EQ(code, 0);
  EXPECT_EQ(load_tasks(dir.file("tasks.csv")).size(), 40u);
}

TEST(Cli, SimulateInferEvalPipeline) {
  const TempDir dir;
  std::string out;
  ASSERT_EQ(run({"simulate", "--object-count", "25", "--selection-ratio",
                 "0.4", "--seed", "11", "--quality", "high", "--votes-out",
                 dir.file("votes.csv"), "--truth-out",
                 dir.file("truth.csv")},
                &out),
            0);
  ASSERT_EQ(run({"infer", "--votes", dir.file("votes.csv"),
                 "--ranking-out", dir.file("ranking.csv"), "--seed", "2"},
                &out),
            0);
  EXPECT_NE(out.find("inferred full ranking of 25 objects"),
            std::string::npos);

  std::string eval_out;
  ASSERT_EQ(run({"eval", "--reference", dir.file("truth.csv"), "--ranking",
                 dir.file("ranking.csv"), "--k", "5"},
                &eval_out),
            0);
  EXPECT_NE(eval_out.find("accuracy"), std::string::npos);
  EXPECT_NE(eval_out.find("top-5"), std::string::npos);

  // The written artifacts must agree with in-process evaluation.
  const Ranking truth = load_ranking(dir.file("truth.csv"));
  const Ranking ranking = load_ranking(dir.file("ranking.csv"));
  EXPECT_GT(ranking_accuracy(truth, ranking), 0.85);
}

TEST(Cli, InferSearchMethodsAgreeOnExactInstances) {
  const TempDir dir;
  std::string out;
  ASSERT_EQ(run({"simulate", "--object-count", "9", "--selection-ratio",
                 "1.0", "--seed", "3", "--votes-out", dir.file("votes.csv"),
                 "--truth-out",
                 dir.file("truth.csv")},
                &out),
            0);
  ASSERT_EQ(run({"infer", "--votes", dir.file("votes.csv"), "--search",
                 "taps", "--ranking-out", dir.file("taps.csv")},
                &out),
            0);
  ASSERT_EQ(run({"infer", "--votes", dir.file("votes.csv"), "--search",
                 "heldkarp", "--ranking-out", dir.file("hk.csv")},
                &out),
            0);
  const Ranking taps = load_ranking(dir.file("taps.csv"));
  const Ranking hk = load_ranking(dir.file("hk.csv"));
  // Both exact searches must report equally probable optima; on ties they
  // may differ as rankings but usually coincide — compare agreement.
  EXPECT_GT(ranking_accuracy(taps, hk), 0.9);
}

TEST(Cli, PlanReportsAPlanOrHonestFailure) {
  std::string out;
  const int code =
      run({"plan", "--object-count", "20", "--target-accuracy", "0.8",
           "--quality", "high", "--seed", "4"},
          &out);
  EXPECT_EQ(code, 0);
  EXPECT_NE(out.find("cheapest plan"), std::string::npos);

  std::string fail_out;
  const int fail_code =
      run({"plan", "--object-count", "20", "--target-accuracy", "0.999",
           "--quality", "low", "--seed", "4"},
          &fail_out);
  EXPECT_EQ(fail_code, 1);
  EXPECT_NE(fail_out.find("no budget"), std::string::npos);
}

TEST(Cli, DiagnoseReportsAndSetsExitCode) {
  const TempDir dir;
  std::string out;
  ASSERT_EQ(run({"simulate", "--object-count", "15", "--selection-ratio",
                 "0.5", "--seed", "21", "--votes-out", dir.file("votes.csv")},
                &out),
            0);
  std::string report;
  EXPECT_EQ(run({"diagnose", "--votes", dir.file("votes.csv")}, &report), 0);
  EXPECT_NE(report.find("RANKABLE"), std::string::npos);
  EXPECT_NE(report.find("coverage"), std::string::npos);

  // A batch with an uncovered object exits 2.
  save_votes(dir.file("sparse.csv"), {Vote{0, 0, 1, true}});
  std::string sparse_report;
  EXPECT_EQ(run({"diagnose", "--votes", dir.file("sparse.csv"),
                 "--object-count", "4"},
                &sparse_report),
            2);
  EXPECT_NE(sparse_report.find("NOT CLEANLY RANKABLE"), std::string::npos);
}

TEST(Cli, ErrorsAreReportedNotThrown) {
  std::string out;
  std::string err;
  EXPECT_EQ(run({"infer", "--votes", "/nonexistent/votes.csv"}, &out, &err),
            1);
  EXPECT_NE(err.find("error:"), std::string::npos);
  EXPECT_EQ(run({"assign"}, &out, &err), 1);  // missing --object-count
  EXPECT_EQ(run({"simulate", "--object-count", "10", "--quality", "bogus"},
                &out, &err),
            1);
  EXPECT_NE(err.find("quality"), std::string::npos);
}

TEST(Cli, ExactSearchSizeLimitReportedGracefully) {
  // Held-Karp is capped at n <= 20; asking for it on a larger instance
  // must produce a readable error, not a crash.
  const TempDir dir;
  std::string out;
  ASSERT_EQ(run({"simulate", "--object-count", "25", "--selection-ratio", "1.0",
                 "--votes-out", dir.file("votes.csv")},
                &out),
            0);
  std::string err;
  EXPECT_EQ(run({"infer", "--votes", dir.file("votes.csv"), "--search",
                 "heldkarp"},
                &out, &err),
            1);
  EXPECT_NE(err.find("error:"), std::string::npos);
}

TEST(Cli, EvalRejectsMismatchedSizes) {
  const TempDir dir;
  save_ranking(dir.file("a.csv"), Ranking::identity(4));
  save_ranking(dir.file("b.csv"), Ranking::identity(5));
  std::string out;
  std::string err;
  EXPECT_EQ(run({"eval", "--reference", dir.file("a.csv"), "--ranking",
                 dir.file("b.csv")},
                &out, &err),
            1);
  EXPECT_NE(err.find("different object counts"), std::string::npos);
}

TEST(Cli, InferReportsBoundaryConfidence) {
  const TempDir dir;
  std::string out;
  ASSERT_EQ(run({"simulate", "--object-count", "12", "--selection-ratio", "0.6",
                 "--votes-out", dir.file("votes.csv")},
                &out),
            0);
  ASSERT_EQ(run({"infer", "--votes", dir.file("votes.csv")}, &out), 0);
  EXPECT_NE(out.find("boundary confidence"), std::string::npos);
  EXPECT_NE(out.find("tie threshold"), std::string::npos);
}

TEST(Cli, InferSizesStepOneByTheWorkersThatVoted) {
  // Worker ids 7 and 4,000,000,000 are renumbered 0 and 1 in order, so
  // step 1 sizes two workers, not four billion, and every printed figure
  // matches the batch written with ids 0 and 1.
  const TempDir dir;
  const auto write_votes = [&](const std::string& name, WorkerId first,
                               WorkerId second) {
    VoteBatch votes;
    for (VertexId i = 0; i < 6; ++i) {
      for (VertexId j = i + 1; j < 6; ++j) {
        votes.push_back({first, i, j, (i + j) % 4 != 0});
        votes.push_back({second, i, j, (i * j) % 3 != 1});
      }
    }
    save_votes(dir.file(name), votes);
    return dir.file(name);
  };
  const std::string sparse = write_votes("sparse.csv", 7, 4'000'000'000);
  const std::string dense = write_votes("dense.csv", 0, 1);
  std::string sparse_out;
  std::string dense_out;
  ASSERT_EQ(run({"infer", "--votes", sparse}, &sparse_out), 0);
  ASSERT_EQ(run({"infer", "--votes", dense}, &dense_out), 0);
  EXPECT_NE(sparse_out.find("from 30 votes by 2 workers"), std::string::npos)
      << sparse_out;
  const auto line = [](const std::string& text, const std::string& key) {
    const std::size_t at = text.find(key);
    return at == std::string::npos
               ? std::string()
               : text.substr(at, text.find('\n', at) - at);
  };
  for (const char* key :
       {"ranking:", "log preference probability:", "boundary confidence:"}) {
    EXPECT_FALSE(line(dense_out, key).empty()) << key;
    EXPECT_EQ(line(sparse_out, key), line(dense_out, key)) << key;
  }
}

TEST(Cli, VersionPrintsBuildInfo) {
  for (const char* spelling : {"version", "--version"}) {
    std::string out;
    EXPECT_EQ(run({spelling}, &out), 0) << spelling;
    EXPECT_NE(out.find("crowdrank "), std::string::npos) << out;
    EXPECT_NE(out.find("compiler"), std::string::npos) << out;
    EXPECT_NE(out.find("threads"), std::string::npos) << out;
  }
}

TEST(Cli, InferWritesTraceAndMetricsFiles) {
  const TempDir dir;
  std::string out;
  ASSERT_EQ(run({"simulate", "--object-count", "15", "--selection-ratio",
                 "0.4", "--seed", "5", "--votes-out", dir.file("votes.csv")},
                &out),
            0);
  ASSERT_EQ(run({"infer", "--votes", dir.file("votes.csv"), "--seed", "2",
                 "--trace", dir.file("trace.json"), "--metrics",
                 dir.file("report.json")},
                &out),
            0);
  EXPECT_NE(out.find("wrote " + dir.file("trace.json")), std::string::npos);
  EXPECT_NE(out.find("wrote " + dir.file("report.json")),
            std::string::npos);
  EXPECT_NE(out.find(" Perron iterations, residual ratio "),
            std::string::npos);
  EXPECT_NE(out.find(" over every task), "), std::string::npos) << out;
  EXPECT_NE(out.find(" tasks contested, "), std::string::npos) << out;

  // Spot-check content: the Chrome trace names the pipeline steps and
  // carries step 3's rankability figures, the report carries build info,
  // per-stage timings and the same figures as run notes and metrics.
  std::ifstream trace_in(dir.file("trace.json"));
  std::stringstream trace_text;
  trace_text << trace_in.rdbuf();
  EXPECT_NE(trace_text.str().find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace_text.str().find("step1_truth_discovery"),
            std::string::npos);
  EXPECT_NE(trace_text.str().find("step4_find_best_ranking"),
            std::string::npos);
  EXPECT_NE(trace_text.str().find("\"perron_fallback\""), std::string::npos);
  EXPECT_NE(trace_text.str().find("\"full_passes\""), std::string::npos);

  std::ifstream report_in(dir.file("report.json"));
  std::stringstream report_text;
  report_text << report_in.rdbuf();
  EXPECT_NE(report_text.str().find("\"build\""), std::string::npos);
  // The phases are the infer span's four steps, in order.
  const std::string report = report_text.str();
  const std::size_t phases_at = report.find("\"phases_ms\": {");
  ASSERT_NE(phases_at, std::string::npos);
  const std::string phases =
      report.substr(phases_at, report.find('}', phases_at) - phases_at);
  std::size_t previous = 0;
  for (const char* step :
       {"step1_truth_discovery", "step2_smoothing", "step3_propagation",
        "step4_find_best_ranking"}) {
    const std::size_t at = phases.find(std::string("\"") + step + "\": ");
    ASSERT_NE(at, std::string::npos) << step;
    EXPECT_GT(at, previous) << step;
    previous = at;
  }
  EXPECT_EQ(std::count(phases.begin(), phases.end(), ':'), 5);
  EXPECT_NE(report_text.str().find("truth_discovery.delta"),
            std::string::npos);
  for (const char* key :
       {"\"perron_iterations\"", "\"perron_ratio\"", "\"perron_fallback\"",
        "\"propagation.perron_iterations\"", "\"propagation.perron_ratio\"",
        "\"propagation.perron_fallback\"", "\"contested_tasks\"",
        "\"truth_discovery_full_passes\"",
        "\"truth_discovery.contested_tasks\"",
        "\"truth_discovery.full_passes\""}) {
    EXPECT_NE(report_text.str().find(key), std::string::npos) << key;
  }
}

TEST(Cli, TracingDoesNotChangeTheInferredRanking) {
  const TempDir dir;
  std::string out;
  ASSERT_EQ(run({"simulate", "--object-count", "15", "--selection-ratio",
                 "0.4", "--seed", "9", "--votes-out", dir.file("votes.csv")},
                &out),
            0);
  ASSERT_EQ(run({"infer", "--votes", dir.file("votes.csv"), "--seed", "3",
                 "--ranking-out", dir.file("plain.csv")},
                &out),
            0);
  ASSERT_EQ(run({"infer", "--votes", dir.file("votes.csv"), "--seed", "3",
                 "--ranking-out", dir.file("traced.csv"), "--trace",
                 dir.file("trace.json"), "--metrics",
                 dir.file("report.json")},
                &out),
            0);
  const Ranking plain = load_ranking(dir.file("plain.csv"));
  const Ranking traced = load_ranking(dir.file("traced.csv"));
  const std::vector<VertexId> plain_order(plain.order().begin(),
                                          plain.order().end());
  const std::vector<VertexId> traced_order(traced.order().begin(),
                                           traced.order().end());
  EXPECT_EQ(plain_order, traced_order);
}

TEST(Cli, OnlyCanonicalSpellingsAreOptions) {
  // Each option has one spelling, the api:: field name's: a short form
  // is an unknown option, and so is a knob only tests ever set.
  std::string out;
  std::string err;
  EXPECT_EQ(run({"assign", "--objects", "12"}, &out, &err), 1);
  EXPECT_NE(err.find("unknown option --objects"), std::string::npos) << err;
  EXPECT_EQ(run({"assign", "--object-count", "12", "--ratio", "0.5"}, &out,
                &err),
            1);
  EXPECT_NE(err.find("unknown option --ratio"), std::string::npos) << err;
  EXPECT_EQ(run({"infer", "--votes", "v.csv", "--propagation-fill-threshold",
                 "0.2"},
                &out, &err),
            1);
  EXPECT_NE(err.find("unknown option --propagation-fill-threshold"),
            std::string::npos)
      << err;
  EXPECT_EQ(cli_usage().find("fill-threshold"), std::string::npos);
  EXPECT_EQ(run({"infer", "--votes", "v.csv", "--propagation-horizon", "8"},
                &out, &err),
            1);
  EXPECT_NE(err.find("unknown option --propagation-horizon"),
            std::string::npos)
      << err;
  EXPECT_EQ(cli_usage().find("propagation-horizon"), std::string::npos);
}

TEST(Cli, ServeProcessesJobsFile) {
  const TempDir dir;
  std::string out;
  ASSERT_EQ(run({"simulate", "--object-count", "15", "--selection-ratio",
                 "0.5", "--seed", "5", "--votes-out",
                 dir.file("votes.csv")},
                &out),
            0);
  {
    std::ofstream jobs(dir.file("jobs.jsonl"));
    jobs << "{\"id\": 1, \"votes\": \"" << dir.file("votes.csv")
         << "\", \"seed\": 2}\n";
    jobs << "{\"id\": 2, \"votes\": \"" << dir.file("votes.csv")
         << "\", \"seed\": 3, \"search\": \"taps\"}\n";
    jobs << "{\"id\": 3, \"votes\": \"" << dir.file("missing.csv")
         << "\"}\n";
  }
  // One job's votes file is missing: exit 2, but the other jobs still
  // complete and every job gets a structured result line.
  const int code = run({"serve", "--jobs", dir.file("jobs.jsonl"),
                        "--results", dir.file("results.jsonl"),
                        "--service-workers", "2", "--metrics",
                        dir.file("metrics.json")},
                       &out);
  EXPECT_EQ(code, 2);
  EXPECT_NE(out.find("2 completed"), std::string::npos);
  EXPECT_NE(out.find("1 failed"), std::string::npos);

  std::ifstream results(dir.file("results.jsonl"));
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(results, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[0].find("\"id\": 1"), std::string::npos);
  EXPECT_NE(lines[0].find("\"outcome\": \"completed\""),
            std::string::npos);
  EXPECT_NE(lines[1].find("\"outcome\": \"completed\""),
            std::string::npos);
  EXPECT_NE(lines[2].find("\"outcome\": \"failed\""), std::string::npos);
  EXPECT_TRUE(fs::exists(dir.file("metrics.json")));
}

TEST(Cli, ServeIsDeterministicAcrossServiceWorkerCounts) {
  const TempDir dir;
  std::string out;
  ASSERT_EQ(run({"simulate", "--object-count", "12", "--selection-ratio",
                 "0.6", "--seed", "8", "--votes-out",
                 dir.file("votes.csv")},
                &out),
            0);
  {
    std::ofstream jobs(dir.file("jobs.jsonl"));
    for (int k = 1; k <= 4; ++k) {
      jobs << "{\"id\": " << k << ", \"votes\": \"" << dir.file("votes.csv")
           << "\", \"seed\": " << k << "}\n";
    }
  }
  const auto results_text = [&](const std::string& workers) {
    std::string serve_out;
    EXPECT_EQ(run({"serve", "--jobs", dir.file("jobs.jsonl"), "--results",
                   dir.file("results_" + workers + ".jsonl"),
                   "--service-workers", workers},
                  &serve_out),
              0);
    std::ifstream in(dir.file("results_" + workers + ".jsonl"));
    std::ostringstream text;
    std::string line;
    // Timing fields differ run to run; compare everything before them.
    while (std::getline(in, line)) {
      text << line.substr(0, line.find(", \"queue_ms\"")) << "\n";
    }
    return text.str();
  };
  EXPECT_EQ(results_text("1"), results_text("3"));
}

TEST(Cli, ServeTraceRecordsEveryJobsEngineSteps) {
  const TempDir dir;
  std::string out;
  ASSERT_EQ(run({"simulate", "--object-count", "12", "--selection-ratio",
                 "0.6", "--seed", "8", "--votes-out",
                 dir.file("votes.csv")},
                &out),
            0);
  constexpr int kJobs = 4;
  {
    std::ofstream jobs(dir.file("jobs.jsonl"));
    for (int k = 1; k <= kJobs; ++k) {
      jobs << "{\"id\": " << k << ", \"votes\": \"" << dir.file("votes.csv")
           << "\", \"seed\": " << k << "}\n";
    }
  }
  ASSERT_EQ(run({"serve", "--jobs", dir.file("jobs.jsonl"),
                 "--service-workers", "2", "--trace", dir.file("trace.json")},
                &out),
            0);
  std::ifstream in(dir.file("trace.json"));
  std::stringstream text;
  text << in.rdbuf();
  const auto count = [&](const std::string& name) {
    const std::string needle = "\"name\":\"" + name + "\"";
    int found = 0;
    for (std::size_t at = text.str().find(needle); at != std::string::npos;
         at = text.str().find(needle, at + 1)) {
      ++found;
    }
    return found;
  };
  for (const char* name :
       {"service.job", "infer", "step1_truth_discovery", "step2_smoothing",
        "step3_propagation", "step4_find_best_ranking"}) {
    EXPECT_EQ(count(name), kJobs) << name;
  }
}

TEST(Cli, ServeTelemetryWritesArtifactsAndTopRendersThem) {
  const TempDir dir;
  std::string out;
  ASSERT_EQ(run({"simulate", "--object-count", "15", "--selection-ratio",
                 "0.5", "--seed", "5", "--votes-out",
                 dir.file("votes.csv")},
                &out),
            0);
  {
    std::ofstream jobs(dir.file("jobs.jsonl"));
    jobs << "{\"id\": 1, \"votes\": \"" << dir.file("votes.csv")
         << "\", \"seed\": 2}\n";
    jobs << "{\"id\": 2, \"votes\": \"" << dir.file("votes.csv")
         << "\", \"seed\": 3, \"fail_before\": \"rank_search\", "
            "\"fail_reason\": \"drill\"}\n";
  }
  // One injected failure: serve exits 2, and the telemetry plane must
  // leave all three artifact kinds behind.
  EXPECT_EQ(run({"serve", "--jobs", dir.file("jobs.jsonl"),
                 "--service-workers", "2", "--telemetry",
                 dir.file("telemetry"), "--telemetry-period-ms", "50"},
                &out),
            2);
  EXPECT_NE(out.find("wrote telemetry to"), std::string::npos);
  const fs::path telemetry = dir.path / "telemetry";
  EXPECT_TRUE(fs::exists(telemetry / "telemetry.jsonl"));
  EXPECT_TRUE(fs::exists(telemetry / "metrics.prom"));
  EXPECT_TRUE(
      fs::exists(telemetry / "postmortems" / "job_2_failed.json"));

  // `top` renders the stream one-shot from the directory or the file.
  std::string top_out;
  EXPECT_EQ(run({"top", "--telemetry", dir.file("telemetry")}, &top_out),
            0);
  EXPECT_NE(top_out.find("jobs/s"), std::string::npos);
  EXPECT_NE(top_out.find("outcomes:"), std::string::npos);
  EXPECT_NE(top_out.find("failed 1"), std::string::npos);
  EXPECT_NE(top_out.find("hardening"), std::string::npos);
  std::string from_file;
  EXPECT_EQ(run({"top", "--telemetry",
                 (telemetry / "telemetry.jsonl").string()},
                &from_file),
            0);
  EXPECT_EQ(from_file, top_out);
}

TEST(Cli, TopReportsMissingAndEmptyTelemetry) {
  const TempDir dir;
  std::string out;
  std::string err;
  EXPECT_EQ(run({"top", "--telemetry", dir.file("nope")}, &out, &err), 1);
  EXPECT_NE(err.find("cannot open telemetry file"), std::string::npos);
  {
    std::ofstream empty(dir.file("empty.jsonl"));
  }
  EXPECT_EQ(run({"top", "--telemetry", dir.file("empty.jsonl")}, &out,
                &err),
            2);
}

TEST(Cli, TopSkipsALineNestedTooDeep) {
  // A line of 200,000 '[' is skipped like any other malformed line: the
  // JSON reader's nesting cap throws before its recursion can overflow
  // the stack.
  const TempDir dir;
  {
    std::ofstream os(dir.file("telemetry.jsonl"));
    os << std::string(200000, '[') << "\n"
       << "{\"seq\": 1, \"t_us\": 1000000}\n";
  }
  std::string out;
  EXPECT_EQ(run({"top", "--telemetry", dir.file("telemetry.jsonl")}, &out),
            0);
  EXPECT_NE(out.find("jobs/s"), std::string::npos) << out;
}

TEST(Cli, IndexThenQueryServesFromArtifacts) {
  const TempDir dir;
  std::string out;
  ASSERT_EQ(run({"simulate", "--object-count", "10", "--selection-ratio",
                 "0.6", "--seed", "7", "--votes-out",
                 dir.file("votes.csv")},
                &out),
            0);

  // index ranks and persists exactly one artifact: the ranked result,
  // named by its content key.
  ASSERT_EQ(run({"index", "--votes", dir.file("votes.csv"), "--artifacts",
                 dir.file("bundle"), "--seed", "3"},
                &out),
            0);
  const std::string key_label = "artifact key ";
  const std::size_t key_at = out.find(key_label);
  ASSERT_NE(key_at, std::string::npos);
  const std::size_t key_begin = key_at + key_label.size();
  const std::string key =
      out.substr(key_begin, out.find(' ', key_begin) - key_begin);
  std::vector<std::string> written;
  for (const auto& entry : fs::directory_iterator(dir.path / "bundle")) {
    written.push_back(entry.path().filename().string());
  }
  EXPECT_EQ(written, std::vector<std::string>{key + ".crart"});

  // query serves the stored result (a later invocation = fresh cache
  // instance, so the answer can only come from the disk artifacts) and
  // never runs inference.
  std::string query_out;
  ASSERT_EQ(run({"query", "--votes", dir.file("votes.csv"), "--artifacts",
                 dir.file("bundle"), "--seed", "3", "--ranking-out",
                 dir.file("query_ranking.csv")},
                &query_out),
            0);
  EXPECT_NE(query_out.find("served from artifact "), std::string::npos);

  // The served ranking matches what `infer` computes directly for the
  // same work — the cached facade answer and the engine agree end to end.
  ASSERT_EQ(run({"infer", "--votes", dir.file("votes.csv"), "--seed", "3",
                 "--ranking-out", dir.file("infer_ranking.csv")},
                &out),
            0);
  const Ranking from_query = load_ranking(dir.file("query_ranking.csv"));
  const Ranking from_infer = load_ranking(dir.file("infer_ranking.csv"));
  ASSERT_EQ(from_query.size(), from_infer.size());
  for (std::size_t p = 0; p < from_query.size(); ++p) {
    EXPECT_EQ(from_query.object_at(p), from_infer.object_at(p)) << p;
  }
}

TEST(Cli, QueryExitsNonZeroOnForcedMiss) {
  const TempDir dir;
  std::string out;
  ASSERT_EQ(run({"simulate", "--object-count", "8", "--selection-ratio",
                 "0.6", "--seed", "7", "--votes-out",
                 dir.file("votes.csv")},
                &out),
            0);
  ASSERT_EQ(run({"index", "--votes", dir.file("votes.csv"), "--artifacts",
                 dir.file("bundle"), "--seed", "3"},
                &out),
            0);
  // Different seed = different content key = no stored artifact: exit 2
  // (distinct from usage errors, which exit 1), never a silent recompute.
  EXPECT_EQ(run({"query", "--votes", dir.file("votes.csv"), "--artifacts",
                 dir.file("bundle"), "--seed", "4"},
                &out),
            2);
  EXPECT_NE(out.find("query miss"), std::string::npos);
}

TEST(Cli, ServeServesRepeatJobsFromTheCache) {
  const TempDir dir;
  std::string out;
  ASSERT_EQ(run({"simulate", "--object-count", "8", "--selection-ratio",
                 "0.6", "--seed", "5", "--votes-out",
                 dir.file("votes.csv")},
                &out),
            0);
  {
    std::ofstream jobs(dir.file("jobs.jsonl"));
    for (int id = 1; id <= 3; ++id) {
      jobs << "{\"id\": " << id << ", \"votes\": \""
           << dir.file("votes.csv") << "\", \"seed\": 2}\n";
    }
  }
  // Three identical jobs: one cold computation, two memory hits.
  ASSERT_EQ(run({"serve", "--jobs", dir.file("jobs.jsonl"),
                 "--cache-capacity", "8", "--cache-dir",
                 dir.file("cache")},
                &out),
            0);
  EXPECT_NE(out.find("cache: 2 hits (0 disk), 1 misses"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("3 completed"), std::string::npos);

  // A second serve run starts with a cold memory tier but finds all three
  // artifacts on disk — warm across restarts.
  ASSERT_EQ(run({"serve", "--jobs", dir.file("jobs.jsonl"), "--cache-dir",
                 dir.file("cache")},
                &out),
            0);
  EXPECT_NE(out.find("0 misses"), std::string::npos) << out;
  EXPECT_NE(out.find("3 completed"), std::string::npos);
}

}  // namespace
}  // namespace crowdrank::io
