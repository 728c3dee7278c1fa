// sqs_perfbench: the repository's benchmark program (see README.md).
//
//   sqs_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--commit ID]
//   sqs_perfbench --self-test [--seed N]
//
// The untraced run (--trace 0) prints the end-to-end metrics, the traced
// run (--trace 1) the per-layer metrics. The last line of standard output
// is one JSON object {"correct", "attempted", "failed", "metrics"}; the
// lines before it carry the host/build fingerprint and the workload's own
// named figures. Exit status 1 means an output check failed, 2 a usage
// error.

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "bench.h"
#include "faults/family_spec.h"
#include "runtime/thread_pool.h"

#ifndef SQS_PERFBENCH_COMPILER
#define SQS_PERFBENCH_COMPILER "unknown"
#endif
#ifndef SQS_PERFBENCH_BUILD_TYPE
#define SQS_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

namespace {

constexpr const char* kWorkloads[] = {"serve_reads", "serve_masking_writes",
                                      "mc_sweep", "chaos_sim"};
// set-up repeats per untraced run (setup_s is their median) and the least
// number of timed passes a run makes however short --seconds is.
constexpr int kSetups = 7;
constexpr int kMinPasses = 3;
constexpr int kChaosReplicates = 4;

// The per-layer metrics, in print order (README.md has the table).
constexpr const char* kLayerMetrics[] = {
    "message.decode_request_ns", "message.request_cert_ns",
    "message.encode_reply_ns", "message.replica_cert_ns",
    "runner.prologue_ns_per_op", "runner.solo_ns_per_op",
    "runner.epilogue_ns_per_op", "runner.solo_share", "runner.idle_share",
    "runner.cert_rejects_per_op", "probe.probes_per_op",
    "probe.write_acks_per_write", "transport.attempt_ns",
    "transport.drop_share", "replica.serve_read_ns", "replica.serve_write_ns",
    "replica.drop_share", "replica.max_busy_share", "load_gen.ns_per_op",
    "runtime.pool_start_ms", "runtime.chunk_us_p50", "runtime.chunk_us_p99",
    "runtime.steal_ns_p50", "runtime.arena_hit_share",
    "runtime.parallel_efficiency", "core.sample_worlds_ns_per_trial",
    "core.accepts_batch_ns_per_trial",
    "mismatch.sample_two_client_ns_per_trial",
    "mismatch.nonint_walk_ns_per_trial", "sim.events_per_op",
    "sim.ns_per_event", "sim.retry_share", "sim.net_drop_share",
    "chaos.cell_ms_p50", "chaos.cell_ms_max", "obs.traced_overhead_share"};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string commit = "unknown";
  bool self_test = false;
};

bool parse_u64(const std::string& text, std::uint64_t& out) {
  if (text.empty() || text.size() > 20 ||
      text.find_first_not_of("0123456789") != std::string::npos)
    return false;
  errno = 0;
  const unsigned long long v = std::strtoull(text.c_str(), nullptr, 10);
  if (errno != 0) return false;
  out = v;
  return true;
}

bool parse_args(int argc, char** argv, Args& args) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      args.self_test = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "%s needs a value\n", flag.c_str());
      return false;
    }
    const std::string value = argv[++i];
    std::uint64_t n = 0;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!parse_u64(value, n)) {
        std::fprintf(stderr, "--seed wants a whole number, got '%s'\n", value.c_str());
        return false;
      }
      args.seed = n;
    } else if (flag == "--seconds") {
      if (!parse_u64(value, n) || n < 1 || n > 3600) {
        std::fprintf(stderr, "--seconds wants 1..3600, got '%s'\n", value.c_str());
        return false;
      }
      args.seconds = static_cast<double>(n);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        std::fprintf(stderr, "--trace wants 0 or 1, got '%s'\n", value.c_str());
        return false;
      }
      args.trace = value == "1";
    } else if (flag == "--commit") {
      args.commit = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  if (!args.self_test && !have_workload) {
    std::fprintf(stderr, "--workload is required\n");
    return false;
  }
  return true;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_metrics(const MetricList& list) {
  std::string out = "{";
  for (std::size_t i = 0; i < list.entries.size(); ++i) {
    const MetricList::Entry& e = list.entries[i];
    if (i > 0) out += ", ";
    out += json_string(e.name) + ": {\"value\": " + json_number(e.value) +
           ", \"unit\": " + json_string(e.unit) + "}";
  }
  return out + "}";
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) break;
    return line.substr(line.find_first_not_of(' ', colon + 1));
  }
  return "unknown";
}

int host_cpus() {
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

void print_fingerprint(const Args& args, int threads) {
  std::printf(
      "{\"fingerprint\": {\"nproc\": %d, \"cpu_model\": %s, \"compiler\": %s, "
      "\"build_type\": %s, \"commit\": %s, \"threads\": %d, \"seed\": %llu, "
      "\"workload\": %s, \"trace\": %d, \"seconds\": %s}}\n",
      host_cpus(), json_string(cpu_model()).c_str(),
      json_string(SQS_PERFBENCH_COMPILER).c_str(),
      json_string(SQS_PERFBENCH_BUILD_TYPE).c_str(),
      json_string(args.commit).c_str(), threads,
      static_cast<unsigned long long>(args.seed),
      json_string(args.workload).c_str(), args.trace,
      json_number(args.seconds).c_str());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, int threads) {
  if (name == "serve_reads")
    return std::make_unique<ServeWorkload>(serve_reads_spec(), seed, threads);
  if (name == "serve_masking_writes")
    return std::make_unique<ServeWorkload>(serve_masking_writes_spec(), seed,
                                           threads);
  if (name == "mc_sweep") return std::make_unique<SweepWorkload>(seed, threads);
  if (name == "chaos_sim")
    return std::make_unique<ChaosWorkload>(seed, threads, kChaosReplicates);
  return nullptr;
}

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Failures failures;
  std::vector<PassStats> passes;
};

// Process CPU time (all threads). The gated figures are per CPU second:
// on a shared virtual machine the wall clock of the same pass swings by up
// to 40% over minutes as the host schedules other guests, while CPU time
// stays within a few percent (README.md, "Why CPU time").
double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

PassStats timed_pass(Workload& w) {
  const double cpu_start = process_cpu_s();
  PassStats pass = w.run_pass();
  pass.cpu_s = process_cpu_s() - cpu_start;
  return pass;
}

// Checks the outputs of the pass just run and books it in `outcome`.
void book_pass(Workload& w, const PassStats& pass, Outcome& outcome) {
  const Failures failures = w.check_pass();
  outcome.attempted += pass.units;
  if (!failures.empty()) {
    outcome.failed += pass.units;
    outcome.failures.insert(outcome.failures.end(), failures.begin(),
                            failures.end());
  }
  outcome.passes.push_back(pass);
}

// Runs timed passes until `seconds` have gone by (at least kMinPasses).
void run_passes(Workload& w, double seconds, Outcome& outcome) {
  const Clock::time_point begin = Clock::now();
  const std::size_t first = outcome.passes.size();
  while (outcome.passes.size() - first < static_cast<std::size_t>(kMinPasses) ||
         seconds_since(begin) < seconds)
    book_pass(w, timed_pass(w), outcome);
}

void print_result(const Outcome& outcome, const MetricList& metrics) {
  for (const std::string& f : outcome.failures)
    std::fprintf(stderr, "check failed: %s\n", f.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              outcome.failures.empty() ? "true" : "false",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed),
              json_metrics(metrics).c_str());
  std::fflush(stdout);
}

int run_untraced(const Args& args, int threads) {
  std::unique_ptr<Workload> w = make_workload(args.workload, args.seed, threads);
  std::vector<double> setup_cpu, setup_wall;
  for (int k = 0; k < kSetups; ++k) {
    const Clock::time_point start = Clock::now();
    const double cpu_start = process_cpu_s();
    w->setup();
    setup_cpu.push_back(process_cpu_s() - cpu_start);
    setup_wall.push_back(seconds_since(start));
  }
  Outcome outcome;
  run_passes(*w, args.seconds, outcome);

  std::vector<double> cpu_rates;
  for (const PassStats& p : outcome.passes)
    cpu_rates.push_back(static_cast<double>(p.units) / p.cpu_s);
  MetricList metrics;
  metrics.add("setup_s", median(setup_cpu), "s");
  metrics.add("peak_rss_mb", peak_rss_mb(), "MB");
  metrics.add("ops_per_cpu_s", median(cpu_rates), "1/s");

  MetricList detail;
  w->describe(outcome.passes, detail);
  detail.add("setup_wall_s", median(setup_wall), "s");
  detail.add("passes", static_cast<double>(outcome.passes.size()), "count");
  std::printf("{\"workload\": %s, \"detail\": %s}\n",
              json_string(args.workload).c_str(), json_metrics(detail).c_str());
  print_result(outcome, metrics);
  return outcome.failures.empty() ? 0 : 1;
}

// One traced pass (obs metrics on) with a fresh registry; returns its
// snapshot.
sqs::obs::MetricsSnapshot traced_pass(Workload& w, Outcome& outcome) {
  sqs::obs::TelemetryConfig config = sqs::obs::current_config();
  config.metrics = true;
  sqs::obs::configure(config);
  sqs::obs::Registry::instance().reset();
  const PassStats pass = timed_pass(w);
  sqs::obs::MetricsSnapshot snap = sqs::obs::Registry::instance().snapshot();
  config.metrics = false;
  sqs::obs::configure(config);
  book_pass(w, pass, outcome);
  return snap;
}

int run_traced(const Args& args, int threads) {
  MetricList layers;
  {
    const Clock::time_point start = Clock::now();
    sqs::ThreadPool::global(threads - 1).for_each_chunk(
        static_cast<std::uint64_t>(threads), threads, [](std::uint64_t) {});
    layers.add("runtime.pool_start_ms", seconds_since(start) * 1e3, "ms");
  }

  std::unique_ptr<Workload> w = make_workload(args.workload, args.seed, threads);
  w->setup();
  // Half the time untraced, half traced: their medians give the overhead.
  Outcome untraced, traced;
  run_passes(*w, args.seconds / 2, untraced);
  sqs::obs::MetricsSnapshot snap;
  const Clock::time_point traced_begin = Clock::now();
  std::vector<double> traced_walls;
  while (traced_walls.size() < static_cast<std::size_t>(kMinPasses) ||
         seconds_since(traced_begin) < args.seconds / 2) {
    snap = traced_pass(*w, traced);
    traced_walls.push_back(traced.passes.back().wall_s);
  }
  std::vector<double> untraced_walls;
  for (const PassStats& p : untraced.passes) untraced_walls.push_back(p.wall_s);
  const double base = median(untraced_walls);
  layers.add("obs.traced_overhead_share",
             (median(traced_walls) - base) / base, "ratio");
  const double wall_s = traced.passes.back().wall_s;

  // Layers this workload does not run are measured on a small reference
  // input of the workload that does, generated from the same seed.
  auto* serve = dynamic_cast<ServeWorkload*>(w.get());
  auto* sweep = dynamic_cast<SweepWorkload*>(w.get());
  auto* chaos = dynamic_cast<ChaosWorkload*>(w.get());
  runtime_layers(snap, wall_s, threads, serve != nullptr, layers);

  Outcome reference;
  std::unique_ptr<ServeWorkload> serve_ref;
  if (serve != nullptr) {
    service_layers(*serve, snap, wall_s, threads, layers);
  } else {
    ServeSpec spec = serve_reads_spec();
    spec.ops = 30000;
    spec.slo_ladder = false;
    serve_ref = std::make_unique<ServeWorkload>(spec, args.seed, threads);
    serve_ref->setup();
    const sqs::obs::MetricsSnapshot ref_snap = traced_pass(*serve_ref, reference);
    service_layers(*serve_ref, ref_snap, reference.passes.back().wall_s,
                   threads, layers);
  }
  if (chaos != nullptr)
    transport_layers_chaos(*chaos, layers);
  else
    transport_layers_served(serve != nullptr ? *serve : *serve_ref, layers);

  if (sweep != nullptr) {
    sweep_layers(*sweep, layers);
  } else {
    SweepWorkload ref(args.seed, threads, 16);
    ref.setup();
    sweep_layers(ref, layers);
  }
  if (chaos != nullptr) {
    chaos_layers(*chaos, wall_s, threads, layers);
  } else {
    ChaosWorkload ref(args.seed, threads, 1);
    ref.setup();
    traced_pass(ref, reference);
    chaos_layers(ref, reference.passes.back().wall_s, threads, layers);
  }

  // Print in the fixed order; a missing figure is a bug in this program.
  MetricList ordered;
  for (const char* name : kLayerMetrics) {
    const auto it = std::find_if(
        layers.entries.begin(), layers.entries.end(),
        [name](const MetricList::Entry& e) { return e.name == name; });
    if (it == layers.entries.end()) {
      std::fprintf(stderr, "internal error: no figure for %s\n", name);
      return 2;
    }
    ordered.entries.push_back(*it);
  }
  const char* own = serve != nullptr ? "service, transport"
                    : sweep != nullptr ? "core, mismatch"
                                       : "transport, sim, faults";
  std::printf("{\"workload\": %s, \"layers_from_workload\": %s, "
              "\"layers_from_reference\": %s}\n",
              json_string(args.workload).c_str(),
              json_string(std::string("runtime, obs, ") + own).c_str(),
              json_string("every other layer").c_str());

  Outcome all = untraced;
  all.attempted += traced.attempted + reference.attempted;
  all.failed += traced.failed + reference.failed;
  for (const Outcome* o : {&traced, &reference})
    all.failures.insert(all.failures.end(), o->failures.begin(), o->failures.end());
  print_result(all, ordered);
  return all.failures.empty() ? 0 : 1;
}

// --- self-test: every output check must fail on corrupted input ------------

bool report(const char* check, bool clean_ok, int caught, int tried) {
  const bool ok = clean_ok && caught == tried;
  std::printf("{\"self_test\": %s, \"clean_input_passes\": %s, "
              "\"corrupted_inputs_caught\": %d, \"corrupted_inputs\": %d, "
              "\"ok\": %s}\n",
              json_string(check).c_str(), clean_ok ? "true" : "false", caught,
              tried, ok ? "true" : "false");
  return ok;
}

int self_test(std::uint64_t seed, int threads) {
  bool ok = true;

  // serve: flip each byte of one reply in turn.
  ServeSpec spec = serve_reads_spec();
  spec.ops = 20000;
  spec.slo_ladder = false;
  ServeWorkload serve(spec, seed, threads);
  serve.setup();
  serve.run_pass();
  {
    const bool clean =
        check_served(serve.requests(), serve.replies(), serve.result()).empty();
    const std::size_t victim = serve.replies().size() / sqs::kReplyWireSize / 2;
    int caught = 0;
    std::vector<std::uint8_t> corrupted = serve.replies();
    for (std::size_t b = 0; b < sqs::kReplyWireSize; ++b) {
      std::uint8_t& byte = corrupted[victim * sqs::kReplyWireSize + b];
      byte ^= 0xFF;
      caught += !check_served(serve.requests(), corrupted, serve.result()).empty();
      byte ^= 0xFF;
    }
    ok = report("serve_reply_byte_flip", clean, caught,
                static_cast<int>(sqs::kReplyWireSize)) && ok;
  }

  // mc_sweep: shift the largest count of each grid by 10%.
  SweepWorkload sweep(seed, threads, 2);
  sweep.setup();
  sweep.run_pass();
  {
    const auto& exact_n = sweep.exact_nonint();
    const auto& exact_a = sweep.exact_avail();
    const bool clean =
        check_sweep_counts(sweep.nonint(), exact_n, sweep.avail(), exact_a).empty();
    auto nonint = sweep.nonint();
    auto top = std::max_element(nonint.begin(), nonint.end(),
                                [](const auto& a, const auto& b) {
                                  return a.nonintersection.successes <
                                         b.nonintersection.successes;
                                });
    top->nonintersection.successes += top->nonintersection.successes / 10;
    int caught =
        !check_sweep_counts(nonint, exact_n, sweep.avail(), exact_a).empty();
    auto avail = sweep.avail();
    auto low = std::min_element(avail.begin(), avail.end(),
                                [](const auto& a, const auto& b) {
                                  return a.live < b.live;
                                });
    low->live += low->live / 10;
    caught += !check_sweep_counts(sweep.nonint(), exact_n, avail, exact_a).empty();
    ok = report("sweep_shifted_count", clean, caught, 2) && ok;
  }

  // chaos_sim: the shipped designed-to-fail cells must fail the check.
  {
    ChaosWorkload chaos(seed, threads, 2);
    chaos.setup();
    const ChaosGrid& optd = chaos.grids().front();
    const bool clean =
        check_chaos_cells(sqs::run_chaos(*optd.family, {optd.scenarios.front()},
                                         2, chaos.options()))
            .empty();
    sqs::FamilySpec majority;
    majority.kind = "majority";
    majority.n = 12;
    majority.alpha = 2;
    const auto majority_family = majority.make();
    std::vector<sqs::ChaosScenario> stale = {
        sqs::stale_view_chaos_scenario(majority)};
    std::vector<sqs::ChaosScenario> liars = {
        sqs::byzantine_chaos_scenario(*optd.family, 1)};
    reseed_scenarios(stale, seed, 100);
    reseed_scenarios(liars, seed, 101);
    int caught = !check_chaos_cells(sqs::run_chaos(*majority_family, stale, 2,
                                                   chaos.options()))
                      .empty();
    caught += !check_chaos_cells(
                   sqs::run_chaos(*optd.family, liars, 2, chaos.options()))
                   .empty();
    ok = report("chaos_designed_to_fail", clean, caught, 2) && ok;
  }

  std::printf("{\"self_test_passed\": %s}\n", ok ? "true" : "false");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!parse_args(argc, argv, args)) return 2;
  const int threads = std::min(4, host_cpus());
  sqs::set_default_threads(threads);
  if (args.self_test) return self_test(args.seed, threads);

  if (std::find(std::begin(kWorkloads), std::end(kWorkloads), args.workload) ==
      std::end(kWorkloads)) {
    std::fprintf(stderr, "unknown workload '%s' (", args.workload.c_str());
    for (const char* name : kWorkloads) std::fprintf(stderr, " %s", name);
    std::fprintf(stderr, " )\n");
    return 2;
  }
  print_fingerprint(args, threads);
  return args.trace ? run_traced(args, threads) : run_untraced(args, threads);
}
