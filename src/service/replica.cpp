#include "service/replica.h"

#include <algorithm>

namespace sqs {

double ServiceReplica::begin_service(double now, double qnow) {
  // FIFO backlog on the monotone arrival clock (see header): the request
  // waits out the existing backlog, then runs for one (possibly
  // gray-inflated) service time.
  const double start = std::max(qnow, busy_until_);
  const double dt = service_time(now);
  busy_until_ = start + dt;
  busy_seconds_ += dt;
  return (start - qnow) + dt;  // wait + service
}

std::optional<ServiceReplica::ReadServed> ServiceReplica::serve_read(
    int object, double now, double qnow, int client) {
  const Cell* cell = serve_cell(now, object);
  if (cell == nullptr) return std::nullopt;
  const double done = now + begin_service(now, qnow);
  // The certificate always signs the TRUE stored state — a lie corrupts
  // only the reported fields (unforgeable signatures).
  const std::uint32_t cert = signer_.cert_for(id(), cell->ts, cell->value);
  const auto [ts, value] = reported(*cell, now, client);
  return ReadServed{done, ts, value, cert};
}

std::optional<double> ServiceReplica::serve_write(const Timestamp& ts,
                                                 std::uint64_t value,
                                                 int object, double now,
                                                 double qnow) {
  if (!write(now, ts, value, object)) return std::nullopt;
  return now + begin_service(now, qnow);
}

std::optional<double> ServiceReplica::serve_fence(double now, double qnow) {
  if (!accept(now)) return std::nullopt;
  return now + begin_service(now, qnow);
}

}  // namespace sqs
