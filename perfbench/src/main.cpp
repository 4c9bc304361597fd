// szx_perfbench: runs one named workload, checks every output, and prints
// its metrics as the last stdout line (see ../README.md).
//
//   szx_perfbench --workload dump_large|roi_query|serve_mixed --seed N
//                 --seconds S --trace 0|1 [--size full|tiny]
//                 [--trace-out FILE]
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"
#include "workloads.hpp"

namespace {

[[noreturn]] void Usage(const std::string& msg) {
  std::fprintf(stderr,
               "szx_perfbench: %s\n"
               "usage: szx_perfbench --workload dump_large|roi_query|"
               "serve_mixed --seed N --seconds S --trace 0|1 "
               "[--size full|tiny] [--trace-out FILE]\n",
               msg.c_str());
  std::exit(2);
}

pb::Options Parse(int argc, char** argv) {
  pb::Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + arg);
    const std::string v = argv[++i];
    if (arg == "--workload") {
      o.workload = v;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(v.c_str(), nullptr);
      if (!(o.seconds > 0)) Usage("--seconds must be > 0");
    } else if (arg == "--trace") {
      if (v != "0" && v != "1") Usage("--trace must be 0 or 1");
      o.trace = v == "1";
    } else if (arg == "--size") {
      if (v != "full" && v != "tiny") Usage("--size must be full or tiny");
      o.size = v == "tiny" ? pb::Size::kTiny : pb::Size::kFull;
    } else if (arg == "--trace-out") {
      o.trace_out = v;
    } else {
      Usage("unknown flag " + arg);
    }
  }
  if (o.workload.empty()) Usage("--workload is required");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const pb::Options opts = Parse(argc, argv);
  pb::Result r;
  try {
    if (opts.workload == "dump_large") {
      r = pb::RunDumpLarge(opts);
    } else if (opts.workload == "roi_query") {
      r = pb::RunRoiQuery(opts);
    } else if (opts.workload == "serve_mixed") {
      r = pb::RunServeMixed(opts);
    } else {
      Usage("unknown workload " + opts.workload);
    }

    std::string ctx = "{\"workload\":" + pb::JsonString(opts.workload) +
                      ",\"seed\":" + std::to_string(opts.seed) +
                      ",\"seconds\":" + pb::JsonNumber(opts.seconds) +
                      ",\"trace\":" + (opts.trace ? "1" : "0") +
                      ",\"size\":" + (opts.size == pb::Size::kTiny ? "\"tiny\"" : "\"full\"") +
                      ",\"nproc\":" + std::to_string(pb::Nproc()) +
                      ",\"llc_bytes\":" + std::to_string(pb::LlcBytes());
    for (const auto& [k, v] : r.context) ctx += "," + pb::JsonString(k) + ":" + v;
    std::printf("{\"context\":%s}\n", (ctx + "}").c_str());

    std::string metrics;
    for (const auto& [name, m] : r.metrics) {
      if (!metrics.empty()) metrics += ", ";
      metrics += pb::JsonString(name) + ": {\"value\": " +
                 pb::JsonNumber(m.value) + ", \"unit\": " +
                 pb::JsonString(m.unit) + "}";
    }
    const bool correct = r.setup_ok && r.failed == 0 && r.attempted > 0;
    std::printf(
        "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
        "\"metrics\": {%s}}\n",
        correct ? "true" : "false",
        static_cast<unsigned long long>(r.attempted),
        static_cast<unsigned long long>(r.failed), metrics.c_str());
    std::fflush(stdout);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "szx_perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
