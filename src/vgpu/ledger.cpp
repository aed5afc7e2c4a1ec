#include "vgpu/ledger.hpp"

namespace gs::vgpu {

trace::Track machine_track(trace::TraceSink* sink, const LedgerNames& names,
                           const MachineModel& model, std::uint32_t tid) {
  trace::Track track(sink, names.pid, tid);
  if (track.enabled()) {
    track.name_process(std::string(names.machine) + ": " + model.name);
  }
  return track;
}

void Ledger::set_metrics(metrics::MetricsRegistry* registry) {
  metrics_ = registry;
  per_name_.clear();
  if (registry == nullptr) return;
  const std::string family(names_.kernels);
  kernels_ = {&registry->counter(family + ".launches"),
              &registry->counter(family + ".seconds"),
              &registry->counter(family + ".flops"),
              &registry->counter(family + ".bytes"),
              &registry->histogram(family + "_seconds",
                                   metrics::seconds_buckets())};
  if (!names_.interconnect) return;
  for (const Direction dir : {Direction::kH2D, Direction::kD2H}) {
    const std::string copy = std::string(names_.machine) +
                             (dir == Direction::kH2D ? ".h2d" : ".d2h");
    copies_[static_cast<std::size_t>(dir)] = {
        &registry->counter(copy + ".count"),
        &registry->counter(copy + ".bytes"),
        &registry->counter(copy + ".seconds"),
        &registry->histogram(copy + "_bytes", metrics::bytes_buckets())};
  }
}

const Ledger::NameRefs& Ledger::named(std::string_view name) {
  auto it = per_name_.find(name);
  if (it == per_name_.end()) {
    const std::string base =
        std::string(names_.kernels) + "." + std::string(name);
    it = per_name_
             .emplace(std::string(name),
                      NameRefs{&metrics_->counter(base + ".launches"),
                               &metrics_->counter(base + ".seconds"),
                               &metrics_->counter(base + ".bytes")})
             .first;
  }
  return it->second;
}

}  // namespace gs::vgpu
