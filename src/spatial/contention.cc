#include "spatial/contention.h"

#include "common/expect.h"

namespace saath::spatial {

void SpatialIndex::note_contention_change(CoflowId id, Entry& e) {
  if (e.change_stamp == change_epoch_) return;
  e.change_stamp = change_epoch_;
  changes_.push_back(id);
}

int& SpatialIndex::overlap_with(Entry& e, CoflowId d) {
  auto it = e.overlap.find(d);
  if (it == e.overlap.end()) {
    it = overlap_nodes_.insert_new(e.overlap, d);
    it->second = 0;
  }
  return it->second;
}

void SpatialIndex::add_overlap(CoflowId a, Entry& ea, CoflowId b) {
  Entry& eb = entries_.at(b);
  const int ov = ++overlap_with(ea, b);
  ++overlap_with(eb, a);
  if (ov == 1 && ea.group == eb.group) {
    ++ea.contention;
    ++eb.contention;
    note_contention_change(a, ea);
    note_contention_change(b, eb);
  }
}

void SpatialIndex::drop_overlap(CoflowId a, Entry& ea, CoflowId b) {
  Entry& eb = entries_.at(b);
  const auto ita = ea.overlap.find(b);
  const auto itb = eb.overlap.find(a);
  SAATH_EXPECTS(ita != ea.overlap.end() && itb != eb.overlap.end());
  SAATH_EXPECTS(ita->second == itb->second && ita->second > 0);
  --itb->second;
  if (--ita->second == 0) {
    overlap_nodes_.erase(ea.overlap, ita);
    overlap_nodes_.erase(eb.overlap, itb);
    if (ea.group == eb.group) {
      SAATH_EXPECTS(ea.contention > 0 && eb.contention > 0);
      --ea.contention;
      --eb.contention;
      note_contention_change(a, ea);
      note_contention_change(b, eb);
    }
  }
}

void SpatialIndex::add_coflow(const CoflowState& c, int group) {
  SAATH_EXPECTS(!contains(c.id()));
  ++mutations_;
  // A recycled node's entry was fully drained at its removal (empty
  // overlap, zero contention); reset the rest.
  Entry& e = entry_nodes_.insert_new(entries_, c.id())->second;
  e.group = group;
  e.contention = 0;
  e.change_stamp = ~std::uint64_t{0};
  e.version = c.occupancy_version();
  // Join the buckets first: the co-resident scan below then sees the final
  // membership and just skips the CoFlow itself.
  const auto& joined = occupancy_.add_coflow(c);
  for (const std::int64_t bucket : joined) {
    for (const CoflowId d : occupancy_.members(bucket)) {
      if (d != c.id()) add_overlap(c.id(), e, d);
    }
  }
}

void SpatialIndex::remove_coflow(CoflowId id) {
  const auto it = entries_.find(id);
  SAATH_EXPECTS(it != entries_.end());
  ++mutations_;
  // Leaving every still-occupied bucket drains the overlap map pair by
  // pair; a finished CoFlow occupies nothing and drops straight out.
  const auto& left = occupancy_.remove_coflow(id);
  for (const std::int64_t bucket : left) {
    for (const CoflowId d : occupancy_.members(bucket)) {
      drop_overlap(id, it->second, d);
    }
  }
  SAATH_EXPECTS(it->second.overlap.empty());
  SAATH_EXPECTS(it->second.contention == 0);
  entry_nodes_.erase(entries_, it);
}

void SpatialIndex::on_flow_complete(const CoflowState& c,
                                    const FlowState& flow) {
  const CoflowId id = c.id();
  const auto it = entries_.find(id);
  SAATH_EXPECTS(it != entries_.end());
  ++mutations_;
  it->second.version = c.occupancy_version();
  const SlotDelta delta =
      occupancy_.on_flow_complete(id, flow.src(), flow.dst());
  // The index's own slot counters must mirror the CoflowState load lists;
  // cross-check against its delta accessors so drift fails fast here
  // instead of surfacing as a wrong LCoF order later.
  SAATH_EXPECTS((delta.sender_freed != kInvalidPort) ==
                (c.unfinished_on_sender(flow.src()) == 0));
  SAATH_EXPECTS((delta.receiver_freed != kInvalidPort) ==
                (c.unfinished_on_receiver(flow.dst()) == 0));
  if (delta.sender_freed != kInvalidPort) {
    for (const CoflowId d : occupancy_.members(sender_bucket(flow.src()))) {
      drop_overlap(id, it->second, d);
    }
  }
  if (delta.receiver_freed != kInvalidPort) {
    for (const CoflowId d : occupancy_.members(receiver_bucket(flow.dst()))) {
      drop_overlap(id, it->second, d);
    }
  }
}

bool SpatialIndex::in_sync(const CoflowState& c) const {
  const auto it = entries_.find(c.id());
  return it != entries_.end() && it->second.version == c.occupancy_version();
}

void SpatialIndex::set_group(CoflowId id, int group) {
  Entry& e = entries_.at(id);
  if (e.group == group) return;
  ++mutations_;
  for (const auto& [d, ov] : e.overlap) {
    SAATH_EXPECTS(ov > 0);
    Entry& ed = entries_.at(d);
    const bool was_same = ed.group == e.group;
    const bool now_same = ed.group == group;
    if (was_same && !now_same) {
      --e.contention;
      --ed.contention;
      note_contention_change(id, e);
      note_contention_change(d, ed);
    } else if (!was_same && now_same) {
      ++e.contention;
      ++ed.contention;
      note_contention_change(id, e);
      note_contention_change(d, ed);
    }
  }
  e.group = group;
}

int SpatialIndex::contention(CoflowId id) const {
  return entries_.at(id).contention;
}

int SpatialIndex::group_of(CoflowId id) const {
  return entries_.at(id).group;
}

void SpatialIndex::clear_contention_changes() {
  changes_.clear();
  ++change_epoch_;
}

void SpatialIndex::clear() {
  occupancy_.clear();
  entries_.clear();
  clear_contention_changes();
  ++mutations_;
}

}  // namespace saath::spatial
