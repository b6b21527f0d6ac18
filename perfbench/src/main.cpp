// mcnet_perf: runs one benchmark workload and prints one JSON object.
//
//   mcnet_perf --workload <fig710-knee|mesh32-light|coll-allreduce>
//              --seed <n> --seconds <s> --trace <0|1> [--quick]
//
// A run measures R seeded replications, R = round(seconds / the
// workload's nominal replication time) (at least 2; 1 with --quick),
// replication r using seed derive_seed(seed, r).
// Each run first warms up on replication 0, unmeasured.  --trace 0 warms up
// with a traced replay, which must reproduce the untraced digest, then
// times untraced replications and reports the end-to-end metrics; peak
// memory is read over the untraced replications only.
// --trace 1 runs about half as many replications, each both untraced and
// traced (digests must match), and reports the per-layer metrics.
// perfbench/run.py builds this binary, checks the digests against the
// recorded references and prints the result line.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#if defined(__GLIBC__)
#include <malloc.h>
#endif
#include <vector>

#include "evsim/random.hpp"
#include "obs/json.hpp"
#include "workloads.hpp"

namespace {

using perfbench::LayerTotals;
using perfbench::RepOutcome;
using mcnet::obs::Json;

/// Set-up builds timed per --trace 0 run.
constexpr int kSetups = 51;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool quick = false;
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "error: %s\nusage: mcnet_perf --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--quick]\n",
               msg);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    char* end = nullptr;
    if (a == "--workload") {
      o.workload = value();
    } else if (a == "--seed") {
      const std::string v = value();
      o.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') usage("--seed must be a non-negative integer");
    } else if (a == "--seconds") {
      const std::string v = value();
      o.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(o.seconds > 0.0)) usage("--seconds must be > 0");
    } else if (a == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") usage("--trace must be 0 or 1");
      o.trace = v == "1";
    } else if (a == "--quick") {
      o.quick = true;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  return o;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const auto k = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return v[k];
}

double ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

/// Peak resident set of this process image: VmHWM from /proc/self/status.
/// (getrusage's ru_maxrss would also count the parent's RSS at fork, which
/// execve carries over.)
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kib / 1024.0;
}

/// Restart the VmHWM high-water mark at the current resident set, after
/// handing freed heap back to the system, so that peak_rss_mb() covers
/// only what runs after this call.
void reset_peak_rss() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return;
  std::fputs("5", f);
  std::fclose(f);
}

void put(Json& metrics, const char* name, double value, const char* unit) {
  Json m = Json::object();
  m["value"] = Json(value);
  m["unit"] = Json(unit);
  metrics[name] = std::move(m);
}

/// Per-layer metrics from the traced replications.  Host seconds carry
/// unit "s" (or "us" for per-call percentiles); simulated quantities carry
/// a "sim_" unit.  Totals are over the traced replications.
Json layer_metrics(const LayerTotals& t) {
  Json m = Json::object();
  const auto reps = static_cast<double>(std::max<std::uint64_t>(t.reps, 1));
  // evsim/stats
  put(m, "stats.converged_calls", static_cast<double>(t.stats_converged.calls), "count");
  put(m, "stats.converged_s", t.stats_converged.seconds, "s");
  put(m, "stats.converged_share", ratio(t.stats_converged.seconds, t.traced_wall_s), "ratio");
  put(m, "stats.add_s", t.stats_add.seconds, "s");
  // core
  const double route_s = t.algorithm.route.seconds;
  put(m, "core.requests",
      static_cast<double>(t.cache_hits + t.cache_misses), "count");
  put(m, "core.route_calls", static_cast<double>(t.algorithm.route.calls), "count");
  put(m, "core.route_s", route_s, "s");
  put(m, "core.route_p50_us", quantile(t.algorithm.route_samples, 0.50) * 1e6, "us");
  put(m, "core.route_p99_us", quantile(t.algorithm.route_samples, 0.99) * 1e6, "us");
  put(m, "core.cache_s", t.cache_separable ? t.outer.route.seconds - route_s : 0.0, "s");
  put(m, "core.cache_hits", static_cast<double>(t.cache_hits), "count");
  put(m, "core.cache_hit_rate",
      ratio(static_cast<double>(t.cache_hits), static_cast<double>(t.cache_hits + t.cache_misses)),
      "ratio");
  put(m, "core.specs_s", t.algorithm.specs.seconds, "s");
  // wormhole
  put(m, "wormhole.inject_calls", static_cast<double>(t.messages_injected), "count");
  put(m, "wormhole.inject_s", t.inject.seconds, "s");
  put(m, "wormhole.worms_per_msg",
      ratio(static_cast<double>(t.algorithm.worms), static_cast<double>(t.algorithm.specs.calls)),
      "ratio");
  put(m, "wormhole.peak_backlog", static_cast<double>(t.peak_backlog), "count");
  put(m, "wormhole.blocked_us_per_msg",
      ratio(t.blocked_sim_s, static_cast<double>(t.messages_completed)) * 1e6, "sim_us");
  put(m, "wormhole.utilization", t.utilization_sum / reps, "sim_ratio");
  put(m, "wormhole.worms_killed", static_cast<double>(t.worms_killed), "count");
  // evsim kernel
  put(m, "evsim.events", static_cast<double>(t.events), "count");
  put(m, "evsim.events_per_delivery",
      ratio(static_cast<double>(t.events), static_cast<double>(t.deliveries)), "ratio");
  put(m, "evsim.peak_pending", static_cast<double>(t.peak_pending), "count");
  put(m, "evsim.cancelled", static_cast<double>(t.cancelled), "count");
  put(m, "evsim.step_self_s", t.step_self.seconds, "s");
  // service / coll
  put(m, "group.sends", static_cast<double>(t.group_sends), "count");
  put(m, "group.heartbeats", static_cast<double>(t.group_heartbeats), "count");
  put(m, "group.view_installs", static_cast<double>(t.group_view_installs), "count");
  put(m, "coll.phases", static_cast<double>(t.coll_phases), "count");
  put(m, "coll.chunks_sent", static_cast<double>(t.coll_chunks_sent), "count");
  put(m, "coll.chunks_reissued", static_cast<double>(t.coll_chunks_reissued), "count");
  put(m, "coll.restarts", static_cast<double>(t.coll_restarts), "count");
  put(m, "coll.allreduce_s", t.coll_allreduce.seconds, "s");
  // the traced run itself
  put(m, "trace.wall_s", t.traced_wall_s, "s");
  put(m, "trace.overhead_ratio", ratio(t.traced_wall_s, t.untraced_wall_s), "ratio");
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  std::unique_ptr<perfbench::Workload> workload;
  if (opt.workload == "fig710-knee") {
    workload = perfbench::make_fig710_knee(opt.quick);
  } else if (opt.workload == "mesh32-light") {
    workload = perfbench::make_mesh32_light(opt.quick);
  } else if (opt.workload == "coll-allreduce") {
    workload = perfbench::make_coll_allreduce(opt.quick);
  } else {
    usage(("unknown workload " + opt.workload).c_str());
  }

  int reps = opt.quick ? 1
                       : std::max(2, static_cast<int>(std::lround(opt.seconds /
                                                                  workload->nominal_rep_s())));
  if (opt.trace) reps = std::max(1, (reps + 1) / 2);

  Json digests = Json::array();
  Json errors = Json::array();
  int failed = 0;
  const auto record = [&](int rep, const RepOutcome& o, const char* what) {
    for (const std::string& e : o.errors) {
      errors.push_back(Json("rep " + std::to_string(rep) + " " + what + ": " + e));
    }
  };

  Json metrics = Json::object();
  if (!opt.trace) {
    // Warm-up: replication 0 replayed traced, unmeasured.  It must
    // reproduce the untraced digest, and its own checks (drops, killed
    // worms, deadlock) must hold.
    RepOutcome replay;
    {
      LayerTotals scratch;
      replay = workload->run_traced(mcnet::evsim::derive_seed(opt.seed, 0), scratch);
    }
    record(0, replay, "traced replay");
    // Set-up, timed apart from the runs: the median of kSetups builds.
    std::vector<double> setup;
    for (int i = 0; i < kSetups; ++i) {
      setup.push_back(workload->setup(mcnet::evsim::derive_seed(opt.seed, i)));
    }
    // Replications differ in length (the stopping rule is met after a
    // random number of messages, and the rule's own cost grows with it), so
    // times are medians over the replications.
    std::vector<double> wall;
    std::vector<double> rate;
    std::uint64_t allocs = 0;
    std::uint64_t deliveries = 0;
    reset_peak_rss();
    for (int r = 0; r < reps; ++r) {
      const RepOutcome o = workload->run(mcnet::evsim::derive_seed(opt.seed, r));
      record(r, o, "untraced");
      bool ok = o.errors.empty();
      if (r == 0 && (!replay.errors.empty() || replay.digest != o.digest)) {
        errors.push_back(Json("rep 0 traced replay digest differs: " + replay.digest));
        ok = false;
      }
      failed += ok ? 0 : 1;
      digests.push_back(Json(o.digest));
      wall.push_back(o.wall_s);
      rate.push_back(ratio(static_cast<double>(o.deliveries), o.wall_s));
      allocs += o.allocations;
      deliveries += o.deliveries;
    }
    put(metrics, "setup_s", median(setup), "s");
    put(metrics, "wall_s", median(wall), "s");
    put(metrics, "deliveries_per_s", median(rate), "1/s");
    put(metrics, "peak_rss_mb", peak_rss_mb(), "MB");
    put(metrics, "allocs_per_delivery",
        ratio(static_cast<double>(allocs), static_cast<double>(deliveries)), "count");
  } else {
    // Warm-up: replication 0 untraced, unmeasured.  Then each replication
    // runs untraced and traced, alternating which goes first.
    const RepOutcome warm = workload->run(mcnet::evsim::derive_seed(opt.seed, 0));
    LayerTotals layers;
    for (int r = 0; r < reps; ++r) {
      const std::uint64_t seed = mcnet::evsim::derive_seed(opt.seed, r);
      RepOutcome plain;
      RepOutcome traced;
      if (r % 2 == 0) {
        plain = workload->run(seed);
        traced = workload->run_traced(seed, layers);
      } else {
        traced = workload->run_traced(seed, layers);
        plain = workload->run(seed);
      }
      layers.untraced_wall_s += plain.wall_s;
      record(r, plain, "untraced");
      record(r, traced, "traced");
      bool ok = plain.errors.empty() && traced.errors.empty();
      if (traced.digest != plain.digest || (r == 0 && warm.digest != plain.digest)) {
        errors.push_back(Json("rep " + std::to_string(r) + " digests differ: traced " +
                              traced.digest + " untraced " + plain.digest));
        ok = false;
      }
      failed += ok ? 0 : 1;
      digests.push_back(Json(plain.digest));
    }
    metrics = layer_metrics(layers);
  }

  Json out = Json::object();
  out["workload"] = Json(opt.workload);
  out["seed"] = Json(std::to_string(opt.seed));
  out["trace"] = Json(opt.trace);
  out["quick"] = Json(opt.quick);
  out["attempted"] = Json(reps);
  out["failed"] = Json(failed);
  out["errors"] = std::move(errors);
  out["digests"] = std::move(digests);
  out["metrics"] = std::move(metrics);
  std::printf("%s\n", out.dump().c_str());
  return 0;
}
