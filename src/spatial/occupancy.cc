#include "spatial/occupancy.h"

#include <algorithm>

#include "common/expect.h"

namespace saath::spatial {

OccupancyIndex::Slot& OccupancyIndex::slot_of(Slots& slots,
                                              std::int64_t bucket) {
  const auto it = std::lower_bound(
      slots.slots.begin(), slots.slots.end(), bucket,
      [](const Slot& s, std::int64_t b) { return s.bucket < b; });
  SAATH_EXPECTS(it != slots.slots.end() && it->bucket == bucket);
  return *it;
}

void OccupancyIndex::join(CoflowId id, Slot& slot) {
  Bucket& b = buckets_[slot.bucket];
  slot.position = static_cast<std::uint32_t>(b.members.size());
  b.members.push_back(id);
}

void OccupancyIndex::leave(CoflowId id, const Slot& slot) {
  const auto bit = buckets_.find(slot.bucket);
  SAATH_EXPECTS(bit != buckets_.end());
  std::vector<CoflowId>& members = bit->second.members;
  SAATH_EXPECTS(slot.position < members.size() &&
                members[slot.position] == id);
  const CoflowId moved = members.back();
  members[slot.position] = moved;
  members.pop_back();
  if (moved != id) {
    slot_of(coflows_.find(moved)->second, slot.bucket).position =
        slot.position;
  }
}

const std::vector<std::int64_t>& OccupancyIndex::add_coflow(
    const CoflowState& c) {
  SAATH_EXPECTS(!contains(c.id()));
  Slots& slots = coflow_nodes_.insert_new(coflows_, c.id())->second;
  slots.slots.clear();  // a recycled node keeps its previous owner's slots
  slots.join_stamp = 0;
  touched_.clear();
  for (const auto& load : c.sender_loads()) {
    if (load.unfinished_flows == 0) continue;
    slots.slots.push_back({sender_bucket(load.port), load.unfinished_flows, 0});
    touched_.push_back(sender_bucket(load.port));
  }
  for (const auto& load : c.receiver_loads()) {
    if (load.unfinished_flows == 0) continue;
    slots.slots.push_back(
        {receiver_bucket(load.port), load.unfinished_flows, 0});
    touched_.push_back(receiver_bucket(load.port));
  }
  std::sort(slots.slots.begin(), slots.slots.end(),
            [](const Slot& a, const Slot& b) { return a.bucket < b.bucket; });
  slots.occupied = slots.slots.size();
  for (Slot& slot : slots.slots) join(c.id(), slot);
  return touched_;
}

const std::vector<std::int64_t>& OccupancyIndex::remove_coflow(CoflowId id) {
  const auto it = coflows_.find(id);
  SAATH_EXPECTS(it != coflows_.end());
  touched_.clear();
  for (const Slot& slot : it->second.slots) {
    if (slot.unfinished == 0) continue;
    touched_.push_back(slot.bucket);
    leave(id, slot);
  }
  coflow_nodes_.erase(coflows_, it);
  return touched_;
}

SlotDelta OccupancyIndex::on_flow_complete(CoflowId id, PortIndex src,
                                           PortIndex dst) {
  const auto it = coflows_.find(id);
  SAATH_EXPECTS(it != coflows_.end());
  Slots& slots = it->second;
  SlotDelta delta;
  const auto drop = [&](std::int64_t bucket) {
    Slot& slot = slot_of(slots, bucket);
    SAATH_EXPECTS(slot.unfinished > 0);
    if (--slot.unfinished == 0) {
      --slots.occupied;
      leave(id, slot);
      return true;
    }
    return false;
  };
  if (drop(sender_bucket(src))) delta.sender_freed = src;
  if (drop(receiver_bucket(dst))) delta.receiver_freed = dst;
  return delta;
}

std::span<const CoflowId> OccupancyIndex::members(std::int64_t bucket) const {
  const auto it = buckets_.find(bucket);
  if (it == buckets_.end()) return {};
  return it->second.members;
}

void OccupancyIndex::collect_live_occupants(
    std::span<const PortIndex> live_senders,
    std::span<const PortIndex> live_receivers,
    std::vector<CoflowId>& out) const {
  // Two-pass stamp intersection: mark every occupant of a live sender slot,
  // then emit (once) every marked occupant of a live receiver slot. A
  // CoFlow missing from either side cannot have a flow with both endpoints
  // live, so skipping it is exact for any budget-gated consumer.
  const std::uint64_t sender_mark = ++join_epoch_;
  for (const PortIndex p : live_senders) {
    for (const CoflowId id : members(sender_bucket(p))) {
      coflows_.find(id)->second.join_stamp = sender_mark;
    }
  }
  const std::uint64_t emitted_mark = ++join_epoch_;
  for (const PortIndex p : live_receivers) {
    for (const CoflowId id : members(receiver_bucket(p))) {
      const Slots& slots = coflows_.find(id)->second;
      if (slots.join_stamp == sender_mark) {
        slots.join_stamp = emitted_mark;
        out.push_back(id);
      }
    }
  }
}

bool OccupancyIndex::live_occupant(CoflowId id) const {
  const auto it = coflows_.find(id);
  return join_epoch_ != 0 && it != coflows_.end() &&
         it->second.join_stamp == join_epoch_;
}

std::size_t OccupancyIndex::occupied_slots(CoflowId id) const {
  const auto it = coflows_.find(id);
  return it == coflows_.end() ? 0 : it->second.occupied;
}

void OccupancyIndex::clear() {
  buckets_.clear();
  coflows_.clear();
  touched_.clear();
}

}  // namespace saath::spatial
