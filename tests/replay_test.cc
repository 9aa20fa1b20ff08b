// Capture/replay, checkpoint/resume, and fault-injection robustness:
// journal round trips, digest-gated bit-identity across the config matrix,
// typed input faults in tolerant mode, and quarantine of stalled CoFlows.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "replay/checkpoint.h"
#include "replay/fault.h"
#include "replay/journal.h"
#include "sched/aalo.h"
#include "sched/saath.h"
#include "sim/engine.h"
#include "test_util.h"
#include "trace/synth.h"
#include "workload/dag_source.h"
#include "workload/scenario.h"
#include "workload/sources.h"

namespace saath {
namespace {

using workload::WorkloadEvent;

std::unique_ptr<Scheduler> matrix_scheduler(const std::string& which,
                                            bool incremental) {
  if (which == "saath") {
    SaathConfig cfg;
    cfg.incremental_order = incremental;
    cfg.incremental_spatial = incremental;
    cfg.incremental_backfill = incremental;
    return std::make_unique<SaathScheduler>(cfg);
  }
  AaloConfig cfg;
  cfg.incremental_order = incremental;
  return std::make_unique<AaloScheduler>(cfg);
}

trace::Trace matrix_trace() {
  trace::SynthConfig cfg;
  cfg.num_ports = 32;
  cfg.num_coflows = 90;
  cfg.arrival_span = seconds(6);
  cfg.seed = 41;
  return trace::synth_fb_trace(cfg);
}

void expect_identical(const SimResult& a, const SimResult& b,
                      const std::string& what) {
  ASSERT_EQ(a.coflows.size(), b.coflows.size()) << what;
  EXPECT_EQ(a.makespan, b.makespan) << what;
  EXPECT_EQ(replay::result_digest(a), replay::result_digest(b)) << what;
  for (std::size_t i = 0; i < a.coflows.size(); ++i) {
    const auto& ra = a.coflows[i];
    const auto& rb = b.coflows[i];
    ASSERT_EQ(ra.id, rb.id) << what << " record " << i;
    EXPECT_EQ(ra.finish, rb.finish) << what << " coflow " << ra.id.value;
    ASSERT_EQ(ra.flow_fcts_seconds.size(), rb.flow_fcts_seconds.size());
    for (std::size_t f = 0; f < ra.flow_fcts_seconds.size(); ++f) {
      EXPECT_EQ(ra.flow_fcts_seconds[f], rb.flow_fcts_seconds[f])
          << what << " coflow " << ra.id.value << " flow " << f;
    }
  }
}

// -------------------------------------------------------- record / replay

TEST(RecordReplay, DigestIdentityAcrossConfigAndSchedulerMatrix) {
  const auto t = matrix_trace();
  for (const std::string which : {"saath", "aalo"}) {
    for (const bool skip : {true, false}) {
      for (const bool event : {true, false}) {
        for (const bool incremental : {true, false}) {
          SimConfig cfg;
          cfg.skip_quiescent_epochs = skip;
          cfg.event_driven = event;
          const std::string what = which + (skip ? "/skip" : "/noskip") +
                                   (event ? "/event" : "/scan") +
                                   (incremental ? "/inc" : "/full");

          // Baseline: the same workload run without any recording layer.
          auto base_sched = matrix_scheduler(which, incremental);
          const SimResult base =
              simulate(std::make_shared<workload::TraceSource>(trace::Trace(t)),
                       *base_sched, cfg);

          // Recorded run: the journaling wrapper must not perturb the run.
          std::ostringstream journal;
          auto rec = std::make_shared<replay::RecordingSource>(
              std::make_shared<workload::TraceSource>(trace::Trace(t)),
              journal, cfg, /*seed=*/41);
          auto rec_sched = matrix_scheduler(which, incremental);
          const SimResult recorded = simulate(rec, *rec_sched, cfg);
          expect_identical(base, recorded, what + " record");

          // Replayed run: journal in, recorded config out, same digest.
          std::istringstream in(journal.str());
          auto rs = std::make_shared<replay::ReplaySource>(in);
          EXPECT_EQ(rs->num_ports(), t.num_ports);
          EXPECT_EQ(rs->recorded_seed(), 41);
          EXPECT_EQ(rs->recorded_config().skip_quiescent_epochs, skip);
          EXPECT_EQ(rs->recorded_config().event_driven, event);
          auto rep_sched = matrix_scheduler(which, incremental);
          const SimResult replayed =
              simulate(rs, *rep_sched, rs->recorded_config());
          expect_identical(base, replayed, what + " replay");
        }
      }
    }
  }
}

TEST(RecordReplay, ReactiveDagStreamReplaysBitIdentically) {
  // DagSource releases stages off completion feedback; the journal captures
  // the released events at their recorded instants, so a ReplaySource (which
  // ignores completions) still reproduces the reactive run exactly.
  const auto make_setup = [] {
    return workload::make_scenario("pipeline-dag", workload::ScenarioParams{});
  };
  SaathScheduler s1;
  std::ostringstream journal;
  auto setup = make_setup();
  auto rec = std::make_shared<replay::RecordingSource>(
      setup.source, journal, setup.config, /*seed=*/0);
  const SimResult recorded = simulate(rec, s1, setup.config);
  ASSERT_GT(recorded.coflows.size(), 1u);

  std::istringstream in(journal.str());
  auto rs = std::make_shared<replay::ReplaySource>(in);
  SaathScheduler s2;
  const SimResult replayed = simulate(rs, s2, rs->recorded_config());
  expect_identical(recorded, replayed, "pipeline-dag replay");
}

TEST(RecordReplay, DigestDistinguishesSchedulers) {
  const auto t = matrix_trace();
  SaathScheduler saath;
  AaloScheduler aalo;
  const SimResult a = simulate(trace::Trace(t), saath);
  const SimResult b = simulate(trace::Trace(t), aalo);
  EXPECT_NE(replay::result_digest(a), replay::result_digest(b));
  EXPECT_EQ(replay::result_digest_hex(a).size(), 16u);
}

TEST(RecordReplay, MalformedJournalThrowsNamingTheLine) {
  std::istringstream empty("");
  EXPECT_THROW(replay::ReplaySource{empty}, std::runtime_error);

  std::istringstream bad_magic("NOPE 4 1 x\n");
  EXPECT_THROW(replay::ReplaySource{bad_magic}, std::runtime_error);

  std::istringstream truncated(
      "SAATHJ1 4 1 test\n"
      "C 0x1p30 8000 0 1 1 1 1 500000000000 0 3 1\n"
      "A 0 0 -1\n");
  replay::ReplaySource rs(truncated);
  try {
    (void)rs.peek_next_time();
    FAIL() << "truncated A line should throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
  }
}

TEST(RecordReplay, ConfigLineWithAnExtraValueIsRejectedAtLine2) {
  // The 12-value layout that still carried <shards> before <stall>: read
  // as 11 values it would shift stall/requeue/strict one field over.
  std::istringstream old_layout(
      "SAATHJ1 4 1 test\n"
      "C 0x1p30 8000 0 1 1 1 1 500000000000 0 5 3 1\n"
      "A 0 0 -1 0 0 0 1 0 1 100\n");
  try {
    replay::ReplaySource rs(old_layout);
    FAIL() << "a 12-value C line should throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 2"), std::string::npos) << what;
    EXPECT_NE(what.find("more than 11 values"), std::string::npos) << what;
  }
}

/// parse_event_line's error text for `line`, or "" when it parses.
std::string parse_error(const std::string& line, std::int64_t line_no) {
  try {
    (void)replay::parse_event_line(line, line_no);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(RecordReplay, EventLineGrammarRoundTripsEveryKind) {
  std::vector<WorkloadEvent> events;
  CoflowSpec wide = testing::make_coflow(
      7, 1234, {{0, 3, 1}, {2, 1, 999'999'999'999}, {3, 0, 0}});
  wide.job = JobId{-1};
  wide.stage = 4;
  events.push_back(WorkloadEvent::arrival(wide));
  CoflowSpec extreme = testing::make_coflow(
      std::numeric_limits<std::int64_t>::max(), 0, {{1, 2, 5}});
  extreme.arrival = -3;  // tolerant-mode streams journal the mismatch
  events.push_back(WorkloadEvent::arrival(extreme));
  events.back().data_ready = std::numeric_limits<std::int64_t>::min();
  events.push_back(WorkloadEvent::data_available(CoflowId{7}, 77));
  for (const double factor : {0.0, 1.0, 0.5, 1.0 / 3.0, 5e-324}) {
    DynamicsEvent d;
    d.time = 88;
    d.kind = DynamicsEvent::Kind::kStragglerStart;
    d.port = 3;
    d.capacity_factor = factor;
    events.push_back(WorkloadEvent::dynamics_at(d));
  }
  for (const WorkloadEvent& ev : events) {
    const std::string line = replay::format_event_line(ev);
    const auto back = replay::parse_event_line(line, 1);
    ASSERT_TRUE(back.has_value()) << line;
    EXPECT_EQ(replay::format_event_line(*back), line);
    EXPECT_EQ(back->kind, ev.kind) << line;
    EXPECT_EQ(back->time, ev.time) << line;
    if (ev.kind == WorkloadEvent::Kind::kDynamics) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(back->dynamics.capacity_factor),
                std::bit_cast<std::uint64_t>(ev.dynamics.capacity_factor))
          << line;
    }
  }
  // Token boundaries are any C-locale whitespace, as with a stream.
  const auto spaced = replay::parse_event_line(" G\t77 \v 7\r", 1);
  ASSERT_TRUE(spaced.has_value());
  EXPECT_EQ(replay::format_event_line(*spaced), "G 77 7");
  EXPECT_FALSE(replay::parse_event_line("", 1).has_value());
  EXPECT_FALSE(replay::parse_event_line(" \t ", 1).has_value());
}

TEST(RecordReplay, EventLineRejectsWithTheJournalErrorText) {
  EXPECT_EQ(parse_error("A 0 0 -1", 3), "journal line 3: truncated record");
  EXPECT_EQ(parse_error("A 0 1 0 0 0 0 2 0 1 5", 4),
            "journal line 4: truncated record");
  EXPECT_EQ(parse_error("G 5", 2), "journal line 2: truncated record");
  EXPECT_EQ(parse_error("A 0 x 0 0 0 0 0", 7),
            "journal line 7: bad integer 'x'");
  EXPECT_EQ(parse_error("G 5 12abc", 7), "journal line 7: bad integer '12abc'");
  EXPECT_EQ(parse_error("G 5 1.5", 7), "journal line 7: bad integer '1.5'");
  EXPECT_EQ(parse_error("G - 1", 7), "journal line 7: bad integer '-'");
  EXPECT_EQ(parse_error("A 0 1 0 0 0 0 -1", 7),
            "journal line 7: negative flow count");
  EXPECT_EQ(parse_error("D 5 0 1 zz", 9), "journal line 9: bad double 'zz'");
  EXPECT_EQ(parse_error("Z 1 2", 7), "journal line 7: unknown event tag 'Z'");
  EXPECT_EQ(parse_error("AB 1 2", 0), "journal line 0: unknown event tag 'AB'");
  // A leading '+' is still an integer sign, as strtoll read it; a sign
  // with no digits, or two signs, is not.
  const auto plus = replay::parse_event_line("A +5 +1 0 0 +5 0 1 0 1 +100", 1);
  ASSERT_TRUE(plus.has_value());
  EXPECT_EQ(replay::format_event_line(*plus), "A 5 1 0 0 5 0 1 0 1 100");
  EXPECT_EQ(parse_error("G 5 +-1", 1), "journal line 1: bad integer '+-1'");
  EXPECT_EQ(parse_error("G 5 +", 1), "journal line 1: bad integer '+'");
  // Values outside int64 are rejected rather than clamped.
  EXPECT_EQ(parse_error("G 5 9223372036854775808", 1),
            "journal line 1: bad integer '9223372036854775808'");
}

// ----------------------------------------------------- checkpoint / resume

TEST(Checkpoint, SerializationRoundTripsExactly) {
  // Snapshot a run mid-flight, serialize, load, serialize again: the two
  // byte streams must be identical (value-faithful round trip).
  const auto t = matrix_trace();
  SaathScheduler sched;
  SimConfig cfg;
  Engine engine(std::make_shared<workload::TraceSource>(trace::Trace(t)),
                sched, cfg);
  EngineSnapshot snap;
  bool captured = false;
  engine.set_snapshot_hook(40, [&](const EngineSnapshot& s) {
    if (!captured) snap = s;
    captured = true;
  });
  (void)engine.run();
  ASSERT_TRUE(captured);
  ASSERT_FALSE(snap.active.empty());

  std::ostringstream first;
  replay::save_checkpoint(first, snap);
  std::istringstream in(first.str());
  const EngineSnapshot loaded = replay::load_checkpoint(in);
  std::ostringstream second;
  replay::save_checkpoint(second, loaded);
  EXPECT_EQ(first.str(), second.str());
  EXPECT_EQ(loaded.scheduler, snap.scheduler);
  EXPECT_EQ(loaded.now, snap.now);
  EXPECT_EQ(loaded.source_events_consumed, snap.source_events_consumed);
  EXPECT_EQ(loaded.active.size(), snap.active.size());
}

TEST(Checkpoint, TruncatedCheckpointIsRejected) {
  const auto t = matrix_trace();
  SaathScheduler sched;
  Engine engine(std::make_shared<workload::TraceSource>(trace::Trace(t)),
                sched, SimConfig{});
  EngineSnapshot snap;
  bool captured = false;
  engine.set_snapshot_hook(40, [&](const EngineSnapshot& s) {
    if (!captured) snap = s;
    captured = true;
  });
  (void)engine.run();
  ASSERT_TRUE(captured);
  std::ostringstream out;
  replay::save_checkpoint(out, snap);
  const std::string full = out.str();
  // A kill mid-checkpoint leaves a prefix without the END sentinel.
  std::istringstream torn(full.substr(0, full.size() / 2));
  EXPECT_THROW((void)replay::load_checkpoint(torn), std::runtime_error);
}

TEST(Checkpoint, ResumeMatchesUninterruptedRunAcrossMatrix) {
  const auto t = matrix_trace();
  for (const std::string which : {"saath", "aalo"}) {
    for (const bool skip : {true, false}) {
      for (const bool event : {true, false}) {
        SimConfig cfg;
        cfg.skip_quiescent_epochs = skip;
        cfg.event_driven = event;
        const std::string what = which + (skip ? "/skip" : "/noskip") +
                                 (event ? "/event" : "/scan");

        // Recorded full run, snapshotting mid-flight.
        std::ostringstream journal;
        auto rec = std::make_shared<replay::RecordingSource>(
            std::make_shared<workload::TraceSource>(trace::Trace(t)), journal,
            cfg, /*seed=*/41);
        auto full_sched = matrix_scheduler(which, true);
        Engine full(rec, *full_sched, cfg);
        EngineSnapshot snap;
        bool captured = false;
        full.set_snapshot_hook(60, [&](const EngineSnapshot& s) {
          if (!captured) snap = s;
          captured = true;
        });
        const SimResult uninterrupted = full.run();
        ASSERT_TRUE(captured) << what;
        ASSERT_GT(snap.source_events_consumed, 0) << what;
        ASSERT_FALSE(snap.active.empty()) << what;

        // Serialize + reload the snapshot (the crash-recovery path reads it
        // from disk, never from the dying process's memory).
        std::ostringstream ckpt;
        replay::save_checkpoint(ckpt, snap);
        std::istringstream ckpt_in(ckpt.str());
        const EngineSnapshot restored = replay::load_checkpoint(ckpt_in);

        // Resume: journal suffix + restored snapshot on a fresh engine.
        std::istringstream in(journal.str());
        auto rs = std::make_shared<replay::ReplaySource>(in);
        rs->skip(restored.source_events_consumed);
        auto res_sched = matrix_scheduler(which, true);
        Engine resumed(rs, *res_sched, rs->recorded_config());
        resumed.restore_snapshot(restored);
        const SimResult resumed_result = resumed.run();
        expect_identical(uninterrupted, resumed_result, what + " resume");
      }
    }
  }
}

TEST(Checkpoint, RestoreRefusesMismatchedScheduler) {
  const auto t = matrix_trace();
  SaathScheduler sched;
  Engine engine(std::make_shared<workload::TraceSource>(trace::Trace(t)),
                sched, SimConfig{});
  EngineSnapshot snap;
  bool captured = false;
  engine.set_snapshot_hook(40, [&](const EngineSnapshot& s) {
    if (!captured) snap = s;
    captured = true;
  });
  (void)engine.run();
  ASSERT_TRUE(captured);

  AaloScheduler other;
  Engine fresh(std::make_shared<workload::TraceSource>(trace::Trace(t)),
               other, SimConfig{});
  EXPECT_THROW(fresh.restore_snapshot(snap), std::invalid_argument);
}

// --------------------------------------------------------- fault injection

TEST(FaultInjection, TolerantModeDegradesToTypedFaults) {
  const auto t = matrix_trace();
  replay::FaultPlan plan;
  plan.seed = 7;
  plan.duplicate_p = 0.2;
  plan.malformed_p = 0.2;
  plan.storm_every = 20;
  plan.storm_size = 4;
  plan.storm_flow_bytes = 1 << 18;
  auto faulty = std::make_shared<replay::FaultySource>(
      std::make_shared<workload::TraceSource>(trace::Trace(t)), plan);

  SaathScheduler sched;
  SimConfig cfg;
  cfg.strict_input = false;
  Engine engine(faulty, sched, cfg);
  const SimResult result = engine.run();
  const EngineStats& stats = engine.stats();

  // Every duplicate and every malformed sibling was dropped as a typed
  // fault; every storm arrival was real work that completed.
  EXPECT_GT(faulty->injected_duplicates(), 0);
  EXPECT_GT(faulty->injected_malformed(), 0);
  EXPECT_GT(faulty->injected_storm_arrivals(), 0);
  EXPECT_EQ(stats.rejected_events,
            faulty->injected_duplicates() + faulty->injected_malformed());
  EXPECT_EQ(static_cast<std::int64_t>(result.coflows.size()),
            static_cast<std::int64_t>(t.coflows.size()) +
                faulty->injected_storm_arrivals());
  ASSERT_FALSE(stats.input_faults.empty());
  bool saw_duplicate = false, saw_malformed = false;
  for (const InputFault& f : stats.input_faults) {
    saw_duplicate |= f.kind == InputFault::Kind::kDuplicateId;
    saw_malformed |= f.kind == InputFault::Kind::kMalformedSpec ||
                     f.kind == InputFault::Kind::kArrivalMismatch;
    EXPECT_FALSE(f.detail.empty());
  }
  EXPECT_TRUE(saw_duplicate);
  EXPECT_TRUE(saw_malformed);
}

TEST(FaultInjection, FaultyRunsAreThemselvesReplayable) {
  const auto t = matrix_trace();
  replay::FaultPlan plan;
  plan.seed = 9;
  plan.duplicate_p = 0.15;
  plan.malformed_p = 0.15;
  SimConfig cfg;
  cfg.strict_input = false;

  std::ostringstream journal;
  auto rec = std::make_shared<replay::RecordingSource>(
      std::make_shared<replay::FaultySource>(
          std::make_shared<workload::TraceSource>(trace::Trace(t)), plan),
      journal, cfg, /*seed=*/9);
  SaathScheduler s1;
  Engine first(rec, s1, cfg);
  const SimResult a = first.run();
  const std::int64_t rejected_a = first.stats().rejected_events;
  ASSERT_GT(rejected_a, 0);

  std::istringstream in(journal.str());
  auto rs = std::make_shared<replay::ReplaySource>(in);
  SaathScheduler s2;
  Engine second(rs, s2, rs->recorded_config());
  const SimResult b = second.run();
  EXPECT_EQ(second.stats().rejected_events, rejected_a);
  expect_identical(a, b, "faulty replay");
}

TEST(FaultInjection, StrictModeStillAbortsOnMalformedInput) {
  // The tolerant path must be opt-in: the default posture keeps the hard
  // contract for trusted generators.
  auto t = testing::make_trace(4, {testing::make_coflow(0, 0, {{0, 1, 100}})});
  t.coflows[0].flows[0].size = -5;
  SaathScheduler sched;
  SimConfig cfg = testing::toy_config();
  Engine engine(std::make_shared<workload::TraceSource>(std::move(t)), sched,
                cfg);
  EXPECT_DEATH((void)engine.run(), "");
}

// ----------------------------------------------------- quarantine / stall

/// Two CoFlows on disjoint port pairs; port 0 is dead (capacity factor 0)
/// from t=1ms, healing at `heal` (kNever = never). CoFlow 0 can make no
/// progress while dead — the stall detector must take it out of the
/// scheduler's way and the run must still finish.
struct StallRig {
  std::unique_ptr<Engine> engine;
  SaathScheduler sched;

  StallRig(SimTime heal, int max_stall, int max_requeue) {
    auto t = testing::make_trace(
        4, {testing::make_coflow(0, 0, {{0, 1, 50}}),
            testing::make_coflow(1, 0, {{2, 3, 2000}})});
    SimConfig cfg = testing::toy_config();
    cfg.max_stall_epochs = max_stall;
    cfg.max_requeue_attempts = max_requeue;
    engine = std::make_unique<Engine>(
        std::make_shared<workload::TraceSource>(std::move(t)), sched, cfg);
    DynamicsEvent down;
    down.time = msec(1);
    down.kind = DynamicsEvent::Kind::kStragglerStart;
    down.port = 0;
    down.capacity_factor = 0.0;
    engine->add_dynamics_event(down);
    if (heal != kNever) {
      DynamicsEvent up;
      up.time = heal;
      up.kind = DynamicsEvent::Kind::kStragglerEnd;
      up.port = 0;
      up.capacity_factor = 1.0;
      engine->add_dynamics_event(up);
    }
  }
};

TEST(Quarantine, StalledCoflowIsDetachedAndRecoversAfterHeal) {
  StallRig rig(/*heal=*/msec(2500), /*max_stall=*/3, /*max_requeue=*/5);
  const SimResult result = rig.engine->run();
  const EngineStats& stats = rig.engine->stats();
  EXPECT_GE(stats.quarantine_events, 1);
  EXPECT_GE(stats.requeue_admissions, 1);
  ASSERT_FALSE(stats.quarantined_coflow_ids.empty());
  EXPECT_EQ(stats.quarantined_coflow_ids.front(), 0);
  EXPECT_TRUE(stats.abandoned_coflow_ids.empty());
  // Both CoFlows finished: the stalled one completed after the heal.
  ASSERT_EQ(result.coflows.size(), 2u);
  EXPECT_GE(result.coflows[0].finish, msec(2500));
}

TEST(Quarantine, RetryExhaustionAbandonsWithoutHangingTheRun) {
  StallRig rig(/*heal=*/kNever, /*max_stall=*/3, /*max_requeue=*/1);
  const SimResult result = rig.engine->run();
  const EngineStats& stats = rig.engine->stats();
  // The dead-port CoFlow burned its retry budget and was abandoned; the run
  // completed with the healthy CoFlow's record only.
  ASSERT_EQ(stats.abandoned_coflow_ids.size(), 1u);
  EXPECT_EQ(stats.abandoned_coflow_ids.front(), 0);
  ASSERT_EQ(result.coflows.size(), 1u);
  EXPECT_EQ(result.coflows.front().id.value, 1);
}

TEST(Quarantine, DisabledDetectorKeepsByteIdentity) {
  // max_stall_epochs = 0 must leave results bit-identical to the
  // pre-quarantine engine — the detector is pay-for-use.
  const auto t = matrix_trace();
  SaathScheduler s1, s2;
  SimConfig plain;
  const SimResult a = simulate(trace::Trace(t), s1, plain);
  SimConfig zero = plain;
  zero.max_stall_epochs = 0;
  zero.max_requeue_attempts = 7;  // irrelevant while disabled
  const SimResult b = simulate(trace::Trace(t), s2, zero);
  expect_identical(a, b, "quarantine disabled");
}

TEST(Quarantine, QuarantinedRunsCheckpointAndResumeBitIdentically) {
  // Uninterrupted run, journaled, snapshotting while the CoFlow is parked.
  auto t = testing::make_trace(
      4, {testing::make_coflow(0, 0, {{0, 1, 50}}),
          testing::make_coflow(1, 0, {{2, 3, 2000}})});
  SimConfig cfg = testing::toy_config();
  cfg.max_stall_epochs = 3;
  cfg.max_requeue_attempts = 5;
  std::ostringstream journal;
  auto rec = std::make_shared<replay::RecordingSource>(
      std::make_shared<workload::TraceSource>(trace::Trace(t)), journal, cfg,
      0);
  SaathScheduler s1;
  Engine full(rec, s1, cfg);
  DynamicsEvent down;
  down.time = msec(1);
  down.kind = DynamicsEvent::Kind::kStragglerStart;
  down.port = 0;
  down.capacity_factor = 0.0;
  full.add_dynamics_event(down);
  DynamicsEvent up = down;
  up.time = msec(2500);
  up.kind = DynamicsEvent::Kind::kStragglerEnd;
  up.capacity_factor = 1.0;
  full.add_dynamics_event(up);
  EngineSnapshot snap;
  bool captured = false;
  full.set_snapshot_hook(1, [&](const EngineSnapshot& s) {
    // Capture the first snapshot that holds a quarantined CoFlow, so the
    // resume path exercises the quarantine sections of the checkpoint.
    if (!captured && !s.quarantined.empty()) {
      snap = s;
      captured = true;
    }
  });
  const SimResult uninterrupted = full.run();
  ASSERT_GE(full.stats().quarantine_events, 1);
  ASSERT_TRUE(captured) << "no snapshot saw the quarantine window";

  std::ostringstream ckpt;
  replay::save_checkpoint(ckpt, snap);
  std::istringstream ckpt_in(ckpt.str());
  const EngineSnapshot restored = replay::load_checkpoint(ckpt_in);
  ASSERT_FALSE(restored.quarantined.empty());

  std::istringstream in(journal.str());
  auto rs = std::make_shared<replay::ReplaySource>(in);
  rs->skip(restored.source_events_consumed);
  SaathScheduler s2;
  Engine resumed(rs, s2, rs->recorded_config());
  // Pre-run dynamics are part of the snapshot (pending_dynamics), not
  // re-registered here.
  resumed.restore_snapshot(restored);
  const SimResult resumed_result = resumed.run();
  expect_identical(uninterrupted, resumed_result, "quarantine resume");
}

// ------------------------------------------------------------ runaway guard

TEST(RunawayGuard, NamesStuckCoflowsBeforeThrowing) {
  // No quarantine: the dead-port CoFlow never finishes and the horizon
  // guard fires. The throw (and stats) must name it.
  auto t = testing::make_trace(
      4, {testing::make_coflow(0, 0, {{0, 1, 50}}),
          testing::make_coflow(1, 0, {{2, 3, 200}})});
  SimConfig cfg = testing::toy_config();
  cfg.max_sim_time = seconds(30);
  SaathScheduler sched;
  Engine engine(std::make_shared<workload::TraceSource>(std::move(t)), sched,
                cfg);
  DynamicsEvent down;
  down.time = msec(1);
  down.kind = DynamicsEvent::Kind::kStragglerStart;
  down.port = 0;
  down.capacity_factor = 0.0;
  engine.add_dynamics_event(down);
  EXPECT_THROW((void)engine.run(), std::runtime_error);
  ASSERT_EQ(engine.stats().stuck_coflow_ids.size(), 1u);
  EXPECT_EQ(engine.stats().stuck_coflow_ids.front(), 0);
}

}  // namespace
}  // namespace saath
