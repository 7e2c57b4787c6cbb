#include "sim/timeonly.hpp"

#include <cstring>

#include "util/error.hpp"

namespace dpml::sim {

const char* data_mode_name(DataMode mode) {
  switch (mode) {
    case DataMode::payload: return "payload";
    case DataMode::timeonly: return "timeonly";
  }
  return "?";
}

DataMode data_mode_by_name(const std::string& name) {
  if (name == "payload") return DataMode::payload;
  if (name == "timeonly" || name == "time-only") return DataMode::timeonly;
  DPML_CHECK_MSG(false, "unknown data mode '" + name +
                            "'; valid names: payload, timeonly");
  return DataMode::payload;
}

std::vector<std::byte> PayloadPlane::capture(const MsgMeta& meta,
                                             const std::byte* data,
                                             std::size_t size) {
  (void)meta;
  if (size == 0 || data == nullptr) return {};
  std::vector<std::byte> buf = engine_.payload_pool().acquire(size);
  std::memcpy(buf.data(), data, size);
  return buf;
}

TimeOnlyPlane::TimeOnlyPlane(int world_size) {
  DPML_CHECK(world_size >= 1);
  ranks_.resize(static_cast<std::size_t>(world_size));
}

std::vector<std::byte> TimeOnlyPlane::capture(const MsgMeta& meta,
                                              const std::byte* data,
                                              std::size_t size) {
  DPML_CHECK_MSG(size == 0 && data == nullptr,
                 "payload bytes reached the time-only data plane; time-only "
                 "runs must pass metadata-only (empty) spans end to end");
  DPML_CHECK_MSG(meta.src >= 0 && meta.src < world_size(),
                 "time-only capture from unknown rank");
  TimeOnlyRankState& st = ranks_[static_cast<std::size_t>(meta.src)];
  st.messages += 1;
  st.bytes += meta.bytes;
  st.op_cost_total += static_cast<std::uint64_t>(meta.op_cost);
  total_messages_ += 1;
  total_bytes_ += meta.bytes;
  return {};
}

void TimeOnlyPlane::reclaim(std::vector<std::byte> payload) {
  DPML_CHECK_MSG(payload.empty(),
                 "payload buffer reclaimed on the time-only data plane");
}

const TimeOnlyRankState& TimeOnlyPlane::rank_state(int world_rank) const {
  DPML_CHECK(world_rank >= 0 && world_rank < world_size());
  return ranks_[static_cast<std::size_t>(world_rank)];
}

}  // namespace dpml::sim
