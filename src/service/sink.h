// ResultSink that streams completions back to the registering clients.
//
// The engine delivers completions (on its thread, in completion order);
// the sink routes each to the session that registered the CoflowId.
// Routing keys on CoflowId ONLY — the service layer never holds engine
// object pointers (the daemon's engine runs record_results=false, so a
// finished CoflowState is reclaimed mid-run; see the `service-detach` lint
// check), so a route outliving the CoFlow's engine state is safe.
//
// DONE lines are coalesced: a routed completion is counted against its
// session at once (the `on_route` hook — the reactive barrier must see it
// before the engine next peeks its input) and its line is appended to that
// session's buffer. flush() hands each buffer to the writer as one block;
// the daemon calls it before every input peek that follows a completion —
// once per engine epoch, always before the engine can block on input —
// and at run end, before END.
//
// The sink also keeps the run's completion record per finished CoFlow —
// a value type, not engine state. Those records are the END digest's
// input, ride in checkpoints (EngineSnapshot::completed), and replay
// DONEs: a reconnecting client that re-registers an already-completed
// CoFlow gets its DONE at once instead of a silent drop.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/result.h"

namespace saath::service {

class ServiceSink final : public ResultSink {
 public:
  /// `writer(session, block)` sends newline-terminated DONE lines; false =
  /// session gone. Called from the engine thread only.
  using Writer = std::function<bool(std::uint32_t, const std::string&)>;
  /// `on_route(session)` fires on the engine thread when a completion is
  /// routed to `session`, before its line is buffered.
  using RouteHook = std::function<void(std::uint32_t)>;

  ServiceSink(Writer writer, RouteHook on_route, bool retain_done_lines)
      : writer_(std::move(writer)),
        on_route_(std::move(on_route)),
        retain_done_lines_(retain_done_lines) {}

  /// Routes future (or replays past) completion of `id` to `session`.
  /// Returns the DONE line when the CoFlow already completed — the caller
  /// sends it and must NOT forward the registration further.
  [[nodiscard]] std::optional<std::string> claim(CoflowId id,
                                                std::uint32_t session);
  /// Disconnect: drop every route to `session` (completions for its
  /// CoFlows are counted unrouted instead of written to a dead socket).
  void release_session(std::uint32_t session);

  void on_coflow_complete(const CoflowRecord& rec, SimTime now) override;
  void on_run_end(SimTime makespan) override;
  /// Writes every buffered DONE block. Engine thread only.
  void flush();

  /// Resume: adopts a checkpoint's completed records before the run starts.
  void seed(std::vector<CoflowRecord> completed);
  /// Copy of every completion record so far (checkpoint payload).
  [[nodiscard]] std::vector<CoflowRecord> records() const;
  /// Moves the records out for the END digest; claim() stops replaying.
  [[nodiscard]] std::vector<CoflowRecord> take_records();

  [[nodiscard]] std::int64_t completions() const;
  [[nodiscard]] std::int64_t unrouted() const;
  [[nodiscard]] SimTime makespan() const;

 private:
  /// One session's DONE lines awaiting flush().
  struct Outbox {
    std::uint32_t session = 0;
    std::string lines;
    std::int64_t count = 0;
  };

  /// Per-CoflowId state: the session its DONE routes to (0 = none) and,
  /// once completed, its records_ index. One entry serves both the route
  /// and the DONE replay, so a claimed CoFlow costs one hash node.
  struct IdState {
    std::uint32_t session = 0;
    std::int64_t record = -1;
  };

  Writer writer_;
  RouteHook on_route_;
  bool retain_done_lines_;
  mutable std::mutex mu_;
  std::unordered_map<std::int64_t, IdState> ids_;
  std::vector<CoflowRecord> records_;
  std::int64_t completions_ = 0;
  std::int64_t unrouted_ = 0;
  SimTime makespan_ = 0;
  /// Engine-thread only; few sessions, so a linear scan finds an outbox.
  std::vector<Outbox> outboxes_;
  bool pending_ = false;
};

}  // namespace saath::service
