#include "net/fault_injector.h"

namespace axml {

void FaultInjector::SetLinkConfig(PeerId from, PeerId to,
                                  const FaultConfig& config) {
  link_configs_[{from, to}] = config;
}

void FaultInjector::AddPartition(PartitionWindow window) {
  partitions_.push_back(std::move(window));
}

const FaultConfig& FaultInjector::ConfigFor(PeerId from, PeerId to) const {
  auto it = link_configs_.find({from, to});
  return it == link_configs_.end() ? config_ : it->second;
}

FaultInjector::Verdict FaultInjector::Judge(PeerId from, PeerId to,
                                            SimTime now) {
  Verdict v;
  if (from == to) return v;  // loopback is not a network link
  ++stats_.judged;
  // Partitions first: a scheduled window is a hard fact about the
  // fabric, not a random event — no Rng draw, so adding a window does
  // not shift the random stream of unrelated links.
  for (const PartitionWindow& w : partitions_) {
    if (now < w.start_s || now >= w.end_s) continue;
    if (w.island.count(from) != w.island.count(to)) {
      v.drop = true;
      v.partitioned = true;
      ++stats_.partition_dropped;
      return v;
    }
  }
  const FaultConfig& cfg = ConfigFor(from, to);
  // Each hazard draws only when armed: a zero config consumes no
  // randomness, keeping an attached-but-idle injector byte-identical to
  // no injector at all.
  if (cfg.loss_prob > 0 && rng_->Bernoulli(cfg.loss_prob)) {
    v.drop = true;
    ++stats_.dropped;
    return v;
  }
  if (cfg.spike_prob > 0 && rng_->Bernoulli(cfg.spike_prob)) {
    v.extra_delay += cfg.spike_delay_s;
  }
  if (cfg.reorder_prob > 0 && rng_->Bernoulli(cfg.reorder_prob)) {
    v.extra_delay += cfg.reorder_delay_s;
  }
  if (v.extra_delay > 0) ++stats_.delayed;
  ++stats_.delivered;
  return v;
}

}  // namespace axml
