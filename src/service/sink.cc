#include "service/sink.h"

#include <algorithm>
#include <iterator>
#include <unordered_map>
#include <utility>

#include "service/protocol.h"

namespace saath::service {

std::optional<std::string> ServiceSink::claim(CoflowId id,
                                              std::uint32_t session) {
  const std::lock_guard<std::mutex> lock(mu_);
  IdState& st = ids_[id.value];
  if (st.record >= 0) {
    return format_done(records_[static_cast<std::size_t>(st.record)]);
  }
  // Last claim wins: after a crash the re-registering session takes over
  // completion routing from the dead one.
  st.session = session;
  return std::nullopt;
}

void ServiceSink::release_session(std::uint32_t session) {
  const std::lock_guard<std::mutex> lock(mu_);
  // Only pending routes carry a session: completion clears it, and a
  // claim on a completed id replays instead of routing.
  std::erase_if(ids_, [session](const auto& entry) {
    return entry.second.session == session;
  });
}

void ServiceSink::on_coflow_complete(const CoflowRecord& rec, SimTime now) {
  (void)now;
  std::uint32_t session = 0;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    ++completions_;
    const auto it = ids_.find(rec.id.value);
    if (it != ids_.end()) {
      session = it->second.session;
      it->second.session = 0;
    }
    if (session == 0) ++unrouted_;
    if (!retain_done_lines_) {
      if (it != ids_.end()) ids_.erase(it);
    } else if (it != ids_.end()) {
      it->second.record = static_cast<std::int64_t>(records_.size());
    } else {
      ids_.emplace(rec.id.value,
                   IdState{0, static_cast<std::int64_t>(records_.size())});
    }
    records_.push_back(rec);
  }
  if (session == 0) return;
  on_route_(session);
  auto box = std::find_if(outboxes_.begin(), outboxes_.end(),
                          [session](const Outbox& o) {
                            return o.session == session;
                          });
  if (box == outboxes_.end()) {
    outboxes_.push_back(Outbox{session, {}, 0});
    box = std::prev(outboxes_.end());
  }
  append_done(box->lines, rec);
  box->lines += '\n';
  ++box->count;
  pending_ = true;
}

void ServiceSink::flush() {
  if (!pending_) return;
  pending_ = false;
  // The socket writes happen outside mu_: a slow client must not block
  // claim()/release paths on the reader threads.
  std::int64_t lost = 0;
  for (Outbox& box : outboxes_) {
    if (box.count == 0) continue;
    if (!writer_(box.session, box.lines)) lost += box.count;
    box.lines.clear();
    box.count = 0;
  }
  if (lost > 0) {
    const std::lock_guard<std::mutex> lock(mu_);
    unrouted_ += lost;
  }
}

void ServiceSink::on_run_end(SimTime makespan) {
  const std::lock_guard<std::mutex> lock(mu_);
  makespan_ = makespan;
}

void ServiceSink::seed(std::vector<CoflowRecord> completed) {
  const std::lock_guard<std::mutex> lock(mu_);
  records_ = std::move(completed);
  if (!retain_done_lines_) return;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    ids_[records_[i].id.value].record = static_cast<std::int64_t>(i);
  }
}

std::vector<CoflowRecord> ServiceSink::records() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return records_;
}

std::vector<CoflowRecord> ServiceSink::take_records() {
  const std::lock_guard<std::mutex> lock(mu_);
  for (auto& [id, st] : ids_) {
    (void)id;
    st.record = -1;
  }
  return std::exchange(records_, {});
}

std::int64_t ServiceSink::completions() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return completions_;
}

std::int64_t ServiceSink::unrouted() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return unrouted_;
}

SimTime ServiceSink::makespan() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return makespan_;
}

}  // namespace saath::service
