// The served-register workloads: ServiceRunner::serve over generate_load's
// open-loop request stream (virtual arrivals; the runner is never paced).

#include <algorithm>
#include <cmath>
#include <string>

#include "bench.h"
#include "core/constructions.h"
#include "core/masking.h"
#include "faults/fault_plan.h"

namespace perfbench {
namespace {

constexpr int kServers = 12;
constexpr int kClients = 64;
constexpr double kProbeTimeout = 0.25;
// slo_rate_ops_s: highest ladder rung whose virtual p99 stays within 1.5x
// the idle p99 (~1.0 s, about four probe timeouts) with at most 1% of ops
// failed.
constexpr double kSloP99Ms = 1500.0;
constexpr double kSloFailedShare = 0.01;
constexpr double kLadderRates[] = {250, 500, 750, 1000, 1250};
constexpr std::uint64_t kLadderOps = 60000;

std::unique_ptr<sqs::QuorumFamily> make_family(const ServeSpec& spec) {
  if (spec.masking) return std::make_unique<sqs::MaskingThresholdFamily>(kServers, 1);
  return std::make_unique<sqs::OptDFamily>(kServers, 2);
}

sqs::LoadGenConfig make_load(const ServeSpec& spec, double rate,
                             std::uint64_t ops, std::uint64_t seed) {
  sqs::LoadGenConfig load;
  load.rate = rate;
  load.duration = static_cast<double>(ops) / rate;
  load.read_fraction = spec.read_fraction;
  load.num_clients = kClients;
  load.seed = seed;
  return load;
}

sqs::ServiceConfig make_config(const ServeSpec& spec,
                               const sqs::QuorumFamily& family,
                               double duration, std::uint64_t seed,
                               int threads) {
  sqs::ServiceConfig config;
  config.num_clients = kClients;
  config.probe_timeout = kProbeTimeout;
  config.batch = 256;
  config.threads = threads;
  config.seed = seed;
  config.verify_replica_certs = true;
  if (spec.masking) {
    // One liar at the head of every probe order cycles all four lie modes
    // for 80% of the run; clients vote with b + 1 = 2 matching replies.
    config.plan = sqs::make_byzantine_plan(kServers, 1, 0.1 * duration,
                                           0.8 * duration);
    config.lie_tolerance = family.masking_b();
  }
  return config;
}

// Exact nearest-rank quantile of a sorted sample.
double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const std::size_t i = static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return sorted[std::min(i, sorted.size() - 1)];
}

// Virtual latency of every reply in milliseconds (failures included),
// sorted ascending.
std::vector<double> reply_latencies_ms(const std::vector<std::uint8_t>& replies) {
  const std::size_t n = replies.size() / sqs::kReplyWireSize;
  std::vector<double> ms;
  ms.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    sqs::Reply rep;
    if (sqs::decode_reply(replies.data() + i * sqs::kReplyWireSize, &rep))
      ms.push_back(static_cast<double>(rep.latency_us) / 1e3);
  }
  std::sort(ms.begin(), ms.end());
  return ms;
}

double failed_share(const sqs::ServiceResult& r) {
  return r.requests == 0 ? 0.0
                         : static_cast<double>(r.requests - r.ops_ok()) /
                               static_cast<double>(r.requests);
}

}  // namespace

ServeSpec serve_reads_spec() {
  ServeSpec spec;
  spec.masking = false;
  spec.rate = 750.0;
  spec.read_fraction = 0.8;
  spec.ops = 150000;
  spec.slo_ladder = true;
  return spec;
}

ServeSpec serve_masking_writes_spec() {
  ServeSpec spec;
  spec.masking = true;
  spec.rate = 200.0;
  spec.read_fraction = 0.5;
  spec.ops = 60000;
  return spec;
}

ServeWorkload::ServeWorkload(const ServeSpec& spec, std::uint64_t seed,
                             int threads)
    : spec_(spec), seed_(seed), threads_(threads) {}

void ServeWorkload::setup() {
  runner_.reset();
  family_ = make_family(spec_);
  load_ = make_load(spec_, spec_.rate, spec_.ops, seed_);
  config_ = make_config(spec_, *family_, load_.duration, seed_, threads_);
  sqs::TrialOptions opts;
  opts.threads = threads_;
  const Clock::time_point gen_start = Clock::now();
  requests_ = sqs::generate_load(load_, opts);
  load_gen_ns_per_op_ = seconds_since(gen_start) * 1e9 /
                        static_cast<double>(load_.total_ops());
  // Warm-up: one full serve on a throwaway runner touches every request
  // page and starts the pool before anything is timed.
  sqs::ServiceRunner warm(*family_, config_);
  warm.serve(requests_, &replies_);
}

PassStats ServeWorkload::run_pass() {
  runner_ = std::make_unique<sqs::ServiceRunner>(*family_, config_);
  result_ = runner_->serve(requests_, &replies_);
  PassStats stats;
  stats.units = requests_.size() / sqs::kRequestWireSize;
  stats.wall_s = result_.wall_ms / 1e3;
  return stats;
}

Failures check_served(const std::vector<std::uint8_t>& requests,
                      const std::vector<std::uint8_t>& replies,
                      const sqs::ServiceResult& result) {
  Failures failures;
  const std::size_t n = requests.size() / sqs::kRequestWireSize;
  if (replies.size() != n * sqs::kReplyWireSize) {
    failures.push_back("reply stream holds " + std::to_string(replies.size()) +
                       " bytes for " + std::to_string(n) + " requests");
    return failures;
  }
  if (result.requests != n)
    failures.push_back("runner counted " + std::to_string(result.requests) +
                       " requests, stream holds " + std::to_string(n));
  std::size_t bad = 0;
  std::string first_bad;
  for (std::size_t i = 0; i < n; ++i) {
    const sqs::Request req =
        sqs::decode_request(requests.data() + i * sqs::kRequestWireSize);
    sqs::Reply rep;
    const bool decoded =
        sqs::decode_reply(replies.data() + i * sqs::kReplyWireSize, &rep);
    const char* why = !req.valid ? "request does not decode"
                      : !decoded ? "reply fails decode or service cert"
                      : rep.seq != req.seq ? "reply seq differs from request"
                      : rep.kind != req.kind ? "reply kind differs from request"
                                             : nullptr;
    if (why == nullptr) continue;
    if (bad++ == 0) first_bad = "reply " + std::to_string(i) + ": " + why;
  }
  if (bad > 0)
    failures.push_back(std::to_string(bad) + " bad replies, first " + first_bad);
  const auto require_zero = [&failures](const char* what, std::uint64_t v) {
    if (v != 0) failures.push_back(std::string(what) + " = " + std::to_string(v));
  };
  require_zero("decode_failures", result.decode_failures);
  require_zero("lost_acked_writes", result.lost_acked_writes);
  require_zero("fabricated_reads", result.fabricated_reads);
  require_zero("retired_reads", result.retired_reads);
  return failures;
}

Failures ServeWorkload::check_pass() {
  Failures failures = check_served(requests_, replies_, result_);
  if (!have_first_) {
    first_fingerprint_ = result_.reply_fingerprint;
    have_first_ = true;
  } else if (result_.reply_fingerprint != first_fingerprint_) {
    failures.push_back("reply stream differs from the first pass's");
  }
  return failures;
}

void ServeWorkload::describe(const std::vector<PassStats>& passes,
                             MetricList& out) {
  std::vector<double> rates;
  for (const PassStats& p : passes)
    rates.push_back(static_cast<double>(p.units) / p.wall_s);
  out.add("served_ops_per_s", median(rates), "ops/s");
  const std::vector<double> ms = reply_latencies_ms(replies_);
  out.add("vlat_p50_ms", quantile_sorted(ms, 0.50), "ms");
  out.add("vlat_p99_ms", quantile_sorted(ms, 0.99), "ms");
  out.add("vlat_p999_ms", quantile_sorted(ms, 0.999), "ms");
  out.add("vlat_samples", static_cast<double>(ms.size()), "count");
  out.add("ops_failed_share", failed_share(result_), "ratio");
  out.add("stale_read_share",
          result_.reads == 0 ? 0.0
                             : static_cast<double>(result_.stale_reads) /
                                   static_cast<double>(result_.reads),
          "ratio");
  if (!spec_.slo_ladder) return;

  // Offered-rate ladder (virtual time only; nothing here is timed). The SLO
  // rate is the top of the prefix of rungs that all meet the limit.
  double slo = 0.0;
  bool prefix_ok = true;
  sqs::TrialOptions opts;
  opts.threads = threads_;
  for (const double rate : kLadderRates) {
    const sqs::LoadGenConfig load = make_load(spec_, rate, kLadderOps, seed_);
    const std::vector<std::uint8_t> requests = sqs::generate_load(load, opts);
    sqs::ServiceRunner runner(
        *family_, make_config(spec_, *family_, load.duration, seed_, threads_));
    std::vector<std::uint8_t> replies;
    const sqs::ServiceResult r = runner.serve(requests, &replies);
    const double p99 = quantile_sorted(reply_latencies_ms(replies), 0.99);
    out.add("ladder_" + std::to_string(static_cast<int>(rate)) + "_vlat_p99_ms",
            p99, "ms");
    prefix_ok = prefix_ok && p99 <= kSloP99Ms && failed_share(r) <= kSloFailedShare;
    if (prefix_ok) slo = rate;
  }
  out.add("slo_rate_ops_s", slo, "ops/s");
}

}  // namespace perfbench
