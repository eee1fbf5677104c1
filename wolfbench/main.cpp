// wolfbench — one command, four workloads, every end-to-end metric by name
// and unit, each answer checked against a reference from outside the code
// under test. See README.md.
//
//   wolfbench --workload <ingest-dedup|churn-live|classify-suite|serve-pair>
//             --seed N --seconds S --trace 0|1 [--spans-out FILE]
//             [--source DIGEST] [--work-dir DIR]
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics (end-to-end with --trace 0, per-layer with --trace 1).
// Exit code 0 only when every answer was right.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <unistd.h>

#include "checks.hpp"
#include "tracer.hpp"
#include "workload.hpp"

using namespace wolfbench;

namespace {

#if defined(__OPTIMIZE__) && !defined(__SANITIZE_ADDRESS__) && \
    !defined(__SANITIZE_THREAD__)
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

// Refuses to report timings from an unoptimized or sanitizer build.
std::string build_refusal() {
  const std::string type = WOLFBENCH_BUILD_TYPE;
  const std::string flags = WOLFBENCH_CXX_FLAGS;
  if (!kOptimized) return "compiled without optimization or with a sanitizer";
  if (type != "Release" && type != "RelWithDebInfo")
    return "build type '" + type + "' (need Release or RelWithDebInfo)";
  if (flags.find("-fsanitize") != std::string::npos ||
      flags.find("-O0") != std::string::npos)
    return "compiler flags '" + flags + "'";
  return "";
}

struct Args {
  RunOptions run;
  std::string spans_out;
  std::string source = "unknown";
};

bool parse_args(int argc, char** argv, Args& a, std::string& error) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      error = "expected --key value pairs, got '" + key + "'";
      return false;
    }
    kv[key.substr(2)] = argv[++i];
  }
  for (const char* required : {"workload", "seed", "seconds", "trace"})
    if (kv.count(required) == 0) {
      error = std::string("missing --") + required;
      return false;
    }
  try {
    a.run.workload = kv["workload"];
    a.run.seed = std::stoull(kv["seed"]);
    a.run.seconds = std::stod(kv["seconds"]);
    const std::string trace = kv["trace"];
    if (trace != "0" && trace != "1") throw std::invalid_argument("trace");
    a.run.trace = trace == "1";
  } catch (const std::exception&) {
    error = "bad --seed/--seconds/--trace value";
    return false;
  }
  if (!(a.run.seconds > 0 && a.run.seconds <= 600)) {
    error = "--seconds must be in (0, 600]";
    return false;
  }
  if (kv.count("spans-out")) a.spans_out = kv["spans-out"];
  if (kv.count("source")) a.source = kv["source"];
  if (kv.count("work-dir")) a.run.work_dir = kv["work-dir"];
  return true;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  std::string error;
  if (!parse_args(argc, argv, args, error)) {
    std::cerr << "wolfbench: " << error << '\n';
    return 2;
  }
  const std::string refusal = build_refusal();
  if (!refusal.empty()) {
    std::cerr << "wolfbench: refusing to report from this build: " << refusal
              << '\n';
    return 2;
  }
  using Runner = WorkloadResult (*)(const RunOptions&, TraceRun&);
  const std::map<std::string, Runner> runners = {
      {"ingest-dedup", run_ingest_dedup},
      {"churn-live", run_churn_live},
      {"classify-suite", run_classify_suite},
      {"serve-pair", run_serve_pair},
  };
  const auto runner = runners.find(args.run.workload);
  if (runner == runners.end()) {
    std::cerr << "wolfbench: unknown workload '" << args.run.workload << "'\n";
    return 2;
  }

  std::cout << "wolfbench: workload=" << args.run.workload
            << " seed=" << args.run.seed << " seconds=" << args.run.seconds
            << " trace=" << (args.run.trace ? 1 : 0) << '\n'
            << "source: " << args.source << '\n'
            << "nproc: " << std::thread::hardware_concurrency() << '\n'
            << "build: " << WOLFBENCH_BUILD_TYPE << ", " << WOLFBENCH_COMPILER
            << ", flags '" << WOLFBENCH_CXX_FLAGS << "'\n";

  const std::string self_test = checker_self_test();
  if (!self_test.empty()) {
    std::cerr << "wolfbench: checker self-test failed: " << self_test << '\n';
    return 2;
  }

  const std::string run_id = args.run.workload + "-seed" +
                             std::to_string(args.run.seed) + "-pid" +
                             std::to_string(::getpid());
  TraceRun trace_run(args.run.trace, run_id);
  WorkloadResult result = runner->second(args.run, trace_run);

  for (const std::string& line : result.input) std::cout << line << '\n';
  for (const std::string& line : result.lines) std::cout << line << '\n';
  std::cout << "failed_frac: "
            << (result.attempted == 0
                    ? 1.0
                    : static_cast<double>(result.failed) /
                          static_cast<double>(result.attempted))
            << " (" << result.failed << " of " << result.attempted << ")\n";
  for (const std::string& f : result.failures)
    std::cout << "FAILED: " << f << '\n';
  bool correct = result.failed == 0 && result.attempted > 0;
  for (const Metric& m : result.metrics) {
    std::cout << m.name << ": " << json_number(m.value) << ' ' << m.unit
              << '\n';
    if (!std::isfinite(m.value)) {
      std::cout << "FAILED: metric " << m.name << " is not finite\n";
      correct = false;
    }
  }

  if (args.run.trace && !args.spans_out.empty()) {
    std::ofstream os(args.spans_out);
    trace_run.write_jsonl(os);
    if (!os) {
      std::cerr << "wolfbench: cannot write " << args.spans_out << '\n';
      correct = false;
    } else {
      std::cout << "spans: " << args.spans_out << " (run " << run_id << ")\n";
    }
  }

  std::ostringstream json;
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << result.attempted
       << ", \"failed\": " << result.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    json << (i == 0 ? "" : ", ") << '"' << m.name << "\": {\"value\": "
         << json_number(std::isfinite(m.value) ? m.value : 0)
         << ", \"unit\": \"" << m.unit << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return correct ? 0 : 1;
}
