// WorkloadSource adapters for the service layer.
//
// ServiceSource bridges the IngressQueue into the engine's pull loop:
// peek_next_time() *blocks* until the merged next event is knowable (or the
// stream drained), which gives the live daemon exactly the offline
// ScriptSource's epoch semantics — the engine makes the same decisions at
// the same simulated instants, so the digest matches by construction.
//
// DoneFlushSource tops the daemon's source chain: it flushes the sink's
// coalesced DONE lines before every input peek that follows a completion.
//
// ChainSource concatenates a finite prefix source with a live one — the
// restart shape: ReplaySource over the journal suffix past the checkpoint
// cursor, then the (journaled) live ingress. Exhaustion of the prefix is
// permanent, matching ReplaySource's kNever-at-EOF.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "service/ingress.h"
#include "service/sink.h"
#include "workload/source.h"

namespace saath::service {

class ServiceSource final : public workload::WorkloadSource {
 public:
  /// `ingress` is shared with the daemon's reader threads; `name` must be
  /// the workload name the offline oracle run uses (the digest covers it).
  ServiceSource(std::shared_ptr<IngressQueue> ingress, std::string name,
                int num_ports)
      : ingress_(std::move(ingress)),
        name_(std::move(name)),
        num_ports_(num_ports) {}

  [[nodiscard]] std::string name() const override { return name_; }
  [[nodiscard]] int num_ports() const override { return num_ports_; }
  /// Blocks (see header). The value may legally *decrease* across calls
  /// when a reacting client introduces an earlier event off a completion —
  /// the same contract as an offline reactive source, which the engine
  /// handles by re-peeking every loop.
  [[nodiscard]] SimTime peek_next_time() override {
    return ingress_->blocking_peek();
  }
  [[nodiscard]] workload::WorkloadEvent next() override {
    return ingress_->pop();
  }
  /// Completion feedback flows to clients through ServiceSink, not the
  /// source; nothing reactive lives daemon-side.
  void on_coflow_complete(const CoflowRecord&, SimTime) override {}

 private:
  std::shared_ptr<IngressQueue> ingress_;
  std::string name_;
  int num_ports_;
};

/// Finite in-memory source over a pre-built event list — the split-drive
/// CLI partitions a materialized scenario across client connections with
/// these, and tests script exact streams. Events must already satisfy the
/// source ordering invariant (non-decreasing time, ascending same-time
/// arrival ids).
class VectorSource final : public workload::WorkloadSource {
 public:
  VectorSource(std::string name, int num_ports,
               std::vector<workload::WorkloadEvent> events)
      : name_(std::move(name)),
        num_ports_(num_ports),
        events_(std::move(events)) {}

  [[nodiscard]] std::string name() const override { return name_; }
  [[nodiscard]] int num_ports() const override { return num_ports_; }
  [[nodiscard]] SimTime peek_next_time() override {
    return idx_ < events_.size() ? events_[idx_].time : kNever;
  }
  [[nodiscard]] workload::WorkloadEvent next() override {
    return std::move(events_[idx_++]);
  }
  void on_coflow_complete(const CoflowRecord&, SimTime) override {}

 private:
  std::string name_;
  int num_ports_;
  std::vector<workload::WorkloadEvent> events_;
  std::size_t idx_ = 0;
};

/// Forwards to `inner`, flushing `sink` first on every peek. The engine
/// peeks its source at the top of each epoch and before it can block on
/// live input, so DONE lines leave once per epoch that completed something
/// and always before the engine waits for a reactive client's answer.
/// flush() is a no-op with nothing buffered.
class DoneFlushSource final : public workload::WorkloadSource {
 public:
  DoneFlushSource(std::shared_ptr<workload::WorkloadSource> inner,
                  ServiceSink& sink)
      : inner_(std::move(inner)), sink_(sink) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] int num_ports() const override { return inner_->num_ports(); }
  [[nodiscard]] SimTime peek_next_time() override {
    sink_.flush();
    return inner_->peek_next_time();
  }
  [[nodiscard]] workload::WorkloadEvent next() override {
    return inner_->next();
  }
  void on_coflow_complete(const CoflowRecord& rec, SimTime now) override {
    inner_->on_coflow_complete(rec, now);
  }

 private:
  std::shared_ptr<workload::WorkloadSource> inner_;
  ServiceSink& sink_;
};

class ChainSource final : public workload::WorkloadSource {
 public:
  ChainSource(std::shared_ptr<workload::WorkloadSource> prefix,
              std::shared_ptr<workload::WorkloadSource> live)
      : prefix_(std::move(prefix)), live_(std::move(live)) {}

  [[nodiscard]] std::string name() const override { return live_->name(); }
  [[nodiscard]] int num_ports() const override { return live_->num_ports(); }

  [[nodiscard]] SimTime peek_next_time() override {
    if (!prefix_done_) {
      const SimTime t = prefix_->peek_next_time();
      if (t != kNever) return t;
      prefix_done_ = true;
    }
    return live_->peek_next_time();
  }

  [[nodiscard]] workload::WorkloadEvent next() override {
    if (!prefix_done_ && prefix_->peek_next_time() != kNever) {
      return prefix_->next();
    }
    prefix_done_ = true;
    return live_->next();
  }

  void on_coflow_complete(const CoflowRecord& rec, SimTime now) override {
    prefix_->on_coflow_complete(rec, now);
    live_->on_coflow_complete(rec, now);
  }

 private:
  std::shared_ptr<workload::WorkloadSource> prefix_;
  std::shared_ptr<workload::WorkloadSource> live_;
  bool prefix_done_ = false;
};

}  // namespace saath::service
