// Host-simulator throughput bench: simulated MIPS per app x method for both
// execution paths (decode-per-step oracle vs predecoded fast path), written
// as machine-readable JSON so CI and EXPERIMENTS.md can track the speedup.
//
//   bench_throughput [--quick] [--out FILE] [--metrics-out FILE]
//
// Emits BENCH_sim_throughput.json with one row per (app, method, path),
// where path is "oracle" (decode-per-step) or "fast" (predecoded + superblock
// fusion):
//   { "app", "method", "path", "instructions", "wall_ns", "mips", "speedup" }
// plus the geometric-mean "fast" speedup over all (app, method) pairs. The binary
// re-reads and validates the emitted file against that schema and exits
// nonzero on any violation, so the bench-smoke ctest catches format drift.
//
// Wall-clock here measures the *simulator*, not the modeled device — the
// modeled cycle counts are identical on both paths by construction (see
// tests/test_fastpath.cpp).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "apps/runner.hpp"
#include "obs/metrics.hpp"

namespace {

namespace apps = raptrack::apps;
using raptrack::u64;

enum class Path { kOracle, kFast };

const char* path_name(Path p) {
  switch (p) {
    case Path::kOracle: return "oracle";
    case Path::kFast: return "fast";
  }
  return "?";
}

struct Row {
  std::string app;
  std::string method;
  std::string path;  // "oracle" or "fast"
  u64 instructions = 0;
  u64 wall_ns = 0;
  double mips = 0.0;
  double speedup = 1.0;  // oracle_wall / wall for the same (app, method)
};

using MethodFn = apps::MethodRun (*)(const apps::PreparedApp&, u64,
                                     const raptrack::sim::MachineConfig&);

apps::MethodRun naive_fn(const apps::PreparedApp& p, u64 seed,
                         const raptrack::sim::MachineConfig& c) {
  return apps::run_naive(p, seed, c);
}
apps::MethodRun rap_fn(const apps::PreparedApp& p, u64 seed,
                       const raptrack::sim::MachineConfig& c) {
  return apps::run_rap(p, seed, c);
}
apps::MethodRun traces_fn(const apps::PreparedApp& p, u64 seed,
                          const raptrack::sim::MachineConfig& c) {
  return apps::run_traces(p, seed, c);
}
apps::MethodRun baseline_fn(const apps::PreparedApp& p, u64 seed,
                            const raptrack::sim::MachineConfig& c) {
  return apps::run_baseline(p, seed, c);
}

/// Best-of-N wall time for one method run on one path.
Row measure(const std::string& app, const std::string& method, MethodFn fn,
            const apps::PreparedApp& prepared, Path path, int reps) {
  raptrack::sim::MachineConfig config;
  // Large enough that no registry app fills the buffer mid-run (the longest
  // logs ~14k packets = 112 KiB), so no watermark pauses perturb the timing;
  // small enough that per-rep Machine teardown does not dominate tiny apps.
  config.mtb_buffer_bytes = 1 << 18;
  config.fast_path = path != Path::kOracle;
  // The oracle tracer is test instrumentation (ground-truth branch history
  // for the differential harness); it is not part of the simulated device,
  // so the throughput bench measures the machine without it.
  config.enable_oracle = false;

  Row row;
  row.app = app;
  row.method = method;
  row.path = path_name(path);
  row.wall_ns = ~0ull;
  for (int rep = 0; rep < reps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    const apps::MethodRun run = fn(prepared, 42, config);
    const auto t1 = std::chrono::steady_clock::now();
    row.instructions = run.attestation.metrics.instructions;
    row.wall_ns = std::min(
        row.wall_ns, static_cast<u64>(
                         std::chrono::duration_cast<std::chrono::nanoseconds>(
                             t1 - t0)
                             .count()));
  }
  if (row.wall_ns == 0) row.wall_ns = 1;
  row.mips = static_cast<double>(row.instructions) * 1000.0 /
             static_cast<double>(row.wall_ns);
  return row;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

std::string render_json(const std::vector<Row>& rows, double geomean,
                        bool release, bool quick) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"bench\": \"sim_throughput\",\n";
  os << "  \"release\": " << (release ? "true" : "false") << ",\n";
  os << "  \"quick\": " << (quick ? "true" : "false") << ",\n";
  os << "  \"geomean_speedup\": " << geomean << ",\n";
  os << "  \"rows\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    os << "    {\"app\": \"" << json_escape(r.app) << "\", \"method\": \""
       << json_escape(r.method) << "\", \"path\": \"" << r.path
       << "\", \"instructions\": " << r.instructions
       << ", \"wall_ns\": " << r.wall_ns << ", \"mips\": " << r.mips
       << ", \"speedup\": " << r.speedup << "}"
       << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  os << "  ]\n";
  os << "}\n";
  return os.str();
}

/// Minimal schema check over the emitted text: every row object must carry
/// all seven keys with a sane value, and the top level must carry the bench
/// id and geomean. (Not a JSON parser — a drift tripwire for the exact
/// format this binary writes.)
bool validate(const std::string& text, size_t expected_rows,
              std::string& error) {
  for (const char* key :
       {"\"bench\": \"sim_throughput\"", "\"geomean_speedup\": ",
        "\"release\": ", "\"quick\": ", "\"rows\": ["}) {
    if (text.find(key) == std::string::npos) {
      error = std::string("missing top-level key: ") + key;
      return false;
    }
  }
  size_t rows = 0;
  size_t at = 0;
  while ((at = text.find("{\"app\": ", at)) != std::string::npos) {
    const size_t end = text.find('}', at);
    if (end == std::string::npos) {
      error = "unterminated row object";
      return false;
    }
    const std::string row = text.substr(at, end - at + 1);
    for (const char* key : {"\"app\": \"", "\"method\": \"", "\"path\": \"",
                            "\"instructions\": ", "\"wall_ns\": ",
                            "\"mips\": ", "\"speedup\": "}) {
      if (row.find(key) == std::string::npos) {
        error = "row " + std::to_string(rows) + " missing key " + key;
        return false;
      }
    }
    if (row.find("\"path\": \"fast\"") == std::string::npos &&
        row.find("\"path\": \"oracle\"") == std::string::npos) {
      error = "row " + std::to_string(rows) + " has an unknown path";
      return false;
    }
    const u64 wall = std::strtoull(
        row.c_str() + row.find("\"wall_ns\": ") + strlen("\"wall_ns\": "),
        nullptr, 10);
    if (wall == 0) {
      error = "row " + std::to_string(rows) + " has wall_ns == 0";
      return false;
    }
    ++rows;
    at = end;
  }
  if (rows != expected_rows) {
    error = "expected " + std::to_string(expected_rows) + " rows, found " +
            std::to_string(rows);
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_sim_throughput.json";
  std::string metrics_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics-out") == 0 && i + 1 < argc) {
      metrics_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--quick] [--out FILE] [--metrics-out FILE]\n",
                   argv[0]);
      return 2;
    }
  }

#ifdef RAP_RELEASE_BUILD
  const bool release = true;
#else
  const bool release = false;
  std::fprintf(stderr,
               "warning: not a RAP_RELEASE build — wall-clock numbers are "
               "not representative (use: cmake --preset release)\n");
#endif

  const struct { const char* name; MethodFn fn; } methods[] = {
      {"baseline", baseline_fn},
      {"naive", naive_fn},
      {"rap", rap_fn},
      {"traces", traces_fn},
  };

  // Best-of-N wall time: N high enough to shake off scheduler noise on
  // small single-core runners (each rep is well under a millisecond).
  const int reps = quick ? 1 : 9;
  std::vector<Row> all;
  double log_sum = 0.0;
  size_t pairs = 0;
  for (const auto& app : apps::app_registry()) {
    if (quick && pairs >= 2 * std::size(methods)) break;  // 2 apps suffice
    const apps::PreparedApp prepared = apps::prepare_app(app);
    for (const auto& method : methods) {
      Row oracle = measure(app.name, method.name, method.fn, prepared,
                           Path::kOracle, reps);
      Row fast = measure(app.name, method.name, method.fn, prepared,
                         Path::kFast, reps);
      fast.speedup = static_cast<double>(oracle.wall_ns) /
                     static_cast<double>(fast.wall_ns);
      log_sum += std::log(fast.speedup);
      ++pairs;
      std::printf(
          "%-14s %-8s oracle %7.2f MIPS   fast %8.2f MIPS %5.2fx\n",
          app.name.c_str(), method.name, oracle.mips, fast.mips, fast.speedup);
      all.push_back(std::move(oracle));
      all.push_back(std::move(fast));
    }
  }
  const double geomean = std::exp(log_sum / static_cast<double>(pairs));
  std::printf("geomean speedup over %zu app x method pairs: %.2fx%s\n", pairs,
              geomean, release ? "" : "  (non-release build)");

  const std::string json = render_json(all, geomean, release, quick);
  {
    std::ofstream out(out_path);
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
      return 1;
    }
    out << json;
  }

  // Self-validate what actually landed on disk.
  std::ifstream in(out_path);
  std::stringstream readback;
  readback << in.rdbuf();
  std::string error;
  if (!validate(readback.str(), all.size(), error)) {
    std::fprintf(stderr, "error: %s failed schema validation: %s\n",
                 out_path.c_str(), error.c_str());
    return 1;
  }
  std::printf("wrote %s (%zu rows, schema ok)\n", out_path.c_str(),
              all.size());

  // Scrape the observability registry alongside the timing rows, so a bench
  // run leaves the same counters CI dashboards consume (JSON-lines).
  if (!metrics_path.empty()) {
    if (!raptrack::obs::kEnabled) {
      std::fprintf(stderr,
                   "warning: --metrics-out requested but this is a "
                   "RAP_OBS=OFF build; writing an empty metrics file\n");
    }
    std::ofstream metrics(metrics_path);
    if (!metrics) {
      std::fprintf(stderr, "error: cannot write %s\n", metrics_path.c_str());
      return 1;
    }
    metrics << raptrack::obs::registry().scrape().json_lines();
    std::printf("wrote %s\n", metrics_path.c_str());
  }
  return 0;
}
