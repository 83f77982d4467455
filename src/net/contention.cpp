#include "net/contention.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace xp::net {

ContentionTracker::ContentionTracker(const ContentionParams& p,
                                     const Topology& topo)
    : p_(p), capacity_(topo.capacity()) {
  XP_REQUIRE(p_.factor >= 0.0, "contention factor must be >= 0");
  XP_REQUIRE(capacity_ > 0.0, "topology capacity must be positive");
}

double ContentionTracker::multiplier() const {
  if (!p_.enabled) return 1.0;
  const double others = std::max(0, inflight_);
  double m = 1.0 + p_.factor * others / capacity_;
  if (p_.max_multiplier > 1.0) m = std::min(m, p_.max_multiplier);
  return m;
}

void ContentionTracker::inject() {
  inflight_sum_ += inflight_;
  ++injections_;
  ++inflight_;
}

double ContentionTracker::mean_inflight() const {
  return injections_ == 0 ? 0.0
                          : static_cast<double>(inflight_sum_) /
                                static_cast<double>(injections_);
}

void ContentionTracker::credit(std::int64_t inflight_sum,
                               std::int64_t injections) {
  inflight_sum_ += inflight_sum;
  injections_ += injections;
}

void ContentionTracker::deliver() {
  XP_CHECK(inflight_ > 0, "deliver without matching inject");
  --inflight_;
}

}  // namespace xp::net
