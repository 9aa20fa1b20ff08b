// Service layer: framing, protocol parse, ingress merge/admission
// semantics, and end-to-end daemon/client digest identity with the offline
// engine — the tentpole invariant of the service subsystem.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "replay/checkpoint.h"
#include "replay/journal.h"
#include "sched/factory.h"
#include "service/client.h"
#include "service/daemon.h"
#include "service/ingress.h"
#include "service/protocol.h"
#include "service/source.h"
#include "sim/engine.h"
#include "workload/scenario.h"
#include "test_util.h"

namespace saath::service {
namespace {

using workload::WorkloadEvent;

// ------------------------------------------------------------- FrameReader

TEST(FrameReader, TornWritesReassemble) {
  FrameReader fr;
  const std::string wire = "HELLO c 4 w\nA 0 1\nIDLE 3\n";
  std::vector<std::string> frames;
  for (char ch : wire) {
    ASSERT_TRUE(fr.feed(&ch, 1));
    while (auto f = fr.next_frame()) frames.push_back(*f);
  }
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0], "HELLO c 4 w");
  EXPECT_EQ(frames[1], "A 0 1");
  EXPECT_EQ(frames[2], "IDLE 3");
}

TEST(FrameReader, BatchFeedAndCrlf) {
  FrameReader fr;
  const std::string wire = "one\r\ntwo\nthree";  // third frame unterminated
  ASSERT_TRUE(fr.feed(wire.data(), wire.size()));
  auto f1 = fr.next_frame();
  auto f2 = fr.next_frame();
  ASSERT_TRUE(f1.has_value());
  ASSERT_TRUE(f2.has_value());
  EXPECT_EQ(*f1, "one");  // \r stripped
  EXPECT_EQ(*f2, "two");
  EXPECT_FALSE(fr.next_frame().has_value());
  ASSERT_TRUE(fr.feed("\n", 1));
  auto f3 = fr.next_frame();
  ASSERT_TRUE(f3.has_value());
  EXPECT_EQ(*f3, "three");
}

TEST(FrameReader, OversizedOpenTailOverflows) {
  FrameReader fr(64);
  const std::string blob(65, 'x');  // no newline: open tail past the cap
  EXPECT_FALSE(fr.feed(blob.data(), blob.size()));
  EXPECT_TRUE(fr.overflowed());
  EXPECT_FALSE(fr.next_frame().has_value());
}

TEST(FrameReader, OversizedTerminatedFrameOverflows) {
  FrameReader fr(64);
  std::string blob(80, 'y');
  blob += '\n';  // a single feed completes the oversized frame
  (void)fr.feed(blob.data(), blob.size());
  EXPECT_FALSE(fr.next_frame().has_value());
  EXPECT_TRUE(fr.overflowed());
}

// ----------------------------------------------------------- request parse

TEST(Protocol, ParseControlVerbs) {
  EXPECT_EQ(parse_request("HELLO cli 8 fb-replay").kind, Request::Kind::kHello);
  EXPECT_EQ(parse_request("HELLO cli 8 fb-replay").num_ports, 8);
  EXPECT_EQ(parse_request("HELLO cli 8 fb-replay").workload_name, "fb-replay");
  EXPECT_EQ(parse_request("HELLO cli 8").kind, Request::Kind::kBad);
  EXPECT_EQ(parse_request("HELLO cli 0 w").kind, Request::Kind::kBad);
  EXPECT_EQ(parse_request("REACTIVE").kind, Request::Kind::kReactive);
  EXPECT_EQ(parse_request("STATS").kind, Request::Kind::kStats);
  EXPECT_EQ(parse_request("FIN").kind, Request::Kind::kFin);
  EXPECT_EQ(parse_request("SHUTDOWN").kind, Request::Kind::kShutdown);
  EXPECT_EQ(parse_request("NOPE x").kind, Request::Kind::kBad);
  EXPECT_EQ(parse_request("").kind, Request::Kind::kBad);
}

TEST(Protocol, ParseIdleDonesCount) {
  const Request bare = parse_request("IDLE");
  EXPECT_EQ(bare.kind, Request::Kind::kIdle);
  EXPECT_EQ(bare.idle_dones, -1);  // unconditional
  const Request counted = parse_request("IDLE 7");
  EXPECT_EQ(counted.kind, Request::Kind::kIdle);
  EXPECT_EQ(counted.idle_dones, 7);
}

TEST(Protocol, EventFrameIsJournalLine) {
  const auto spec = testing::make_coflow(3, 1000, {{0, 1, 500}});
  const std::string line =
      replay::format_event_line(WorkloadEvent::arrival(spec));
  const Request req = parse_request(line);
  ASSERT_EQ(req.kind, Request::Kind::kEvent);
  EXPECT_EQ(req.event.time, 1000);
  EXPECT_EQ(req.event.coflow.id.value, 3);
  EXPECT_EQ(parse_request("A bogus").kind, Request::Kind::kBad);
}

TEST(Protocol, DoneRoundTrip) {
  CoflowRecord rec;
  rec.id = CoflowId{11};
  rec.job = JobId{2};
  rec.stage = 1;
  rec.arrival = 100;
  rec.finish = 900;
  const auto back = parse_done(format_done(rec));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->id, rec.id);
  EXPECT_EQ(back->job, rec.job);
  EXPECT_EQ(back->stage, rec.stage);
  EXPECT_EQ(back->arrival, rec.arrival);
  EXPECT_EQ(back->finish, rec.finish);
  EXPECT_FALSE(parse_done("DINE 1 2 3 4 5").has_value());
  for (const std::int64_t v : {std::int64_t{0}, std::int64_t{-7},
                               std::numeric_limits<std::int64_t>::max(),
                               std::numeric_limits<std::int64_t>::min()}) {
    CoflowRecord edge;
    edge.id = CoflowId{v};
    edge.job = JobId{-v / 2};
    edge.stage = 3;
    edge.arrival = v;
    edge.finish = v / 3;
    const std::string line = format_done(edge);
    const auto parsed = parse_done(line);
    ASSERT_TRUE(parsed.has_value()) << line;
    EXPECT_EQ(format_done(*parsed), line);
    std::string appended = "x";
    append_done(appended, edge);
    EXPECT_EQ(appended, "x" + line);
  }
  EXPECT_FALSE(parse_done("DONE 1 2 3 4").has_value());
  EXPECT_FALSE(parse_done("DONE 1 2 x 4 5").has_value());
  EXPECT_FALSE(parse_done("DONE 1 2 3 4 5x").has_value());
  EXPECT_FALSE(parse_done("").has_value());
  const auto spaced = parse_done("  DONE\t1 2  3 4 5 ");
  ASSERT_TRUE(spaced.has_value());
  EXPECT_EQ(spaced->finish, 5);
}

// ----------------------------------------------------------------- ingress

WorkloadEvent arrival_at(std::int64_t id, SimTime t) {
  return WorkloadEvent::arrival(testing::make_coflow(id, t, {{0, 1, 100}}));
}

/// A one-event batch: the per-event push.
Accept push_one(IngressQueue& q, std::uint32_t sid, WorkloadEvent ev) {
  Accept verdict = Accept::kClosed;
  q.push(sid, std::span(&ev, 1), std::span(&verdict, 1));
  return verdict;
}

TEST(Ingress, SortedInsertAndWatermarkFence) {
  IngressQueue q({/*num_ports=*/4, /*expected_clients=*/1});
  const auto sid = q.open_session("c");
  // Out-of-push-order but both beyond the watermark: sorted insert.
  EXPECT_EQ(push_one(q, sid, arrival_at(2, 100)), Accept::kOk);
  EXPECT_EQ(push_one(q, sid, arrival_at(1, 50)), Accept::kOk);
  EXPECT_EQ(q.blocking_peek(), 50);
  EXPECT_EQ(q.pop().coflow.id.value, 1);
  EXPECT_EQ(q.blocking_peek(), 100);
  EXPECT_EQ(q.pop().coflow.id.value, 2);
  EXPECT_EQ(q.watermark(), 100);
  // Released events fence later pushes.
  EXPECT_EQ(push_one(q, sid, arrival_at(3, 60)), Accept::kOutOfOrder);
  // Same-time arrival at the watermark with a non-greater id: tie order.
  EXPECT_EQ(push_one(q, sid, arrival_at(2, 100)), Accept::kTieOrder);
  EXPECT_EQ(push_one(q, sid, arrival_at(4, 100)), Accept::kOk);
  EXPECT_EQ(push_one(q, sid, arrival_at(4, 200)), Accept::kDuplicateId);
  // Malformed: destination port outside the fabric.
  EXPECT_EQ(push_one(q, sid, WorkloadEvent::arrival(
                            testing::make_coflow(9, 300, {{0, 99, 100}}))),
            Accept::kMalformed);
  q.finish_session(sid);
  EXPECT_EQ(push_one(q, sid, arrival_at(10, 400)), Accept::kClosed);
  EXPECT_EQ(q.blocking_peek(), 100);  // queued id=4 still releases
  (void)q.pop();
  EXPECT_EQ(q.blocking_peek(), kNever);  // drained
}

TEST(Ingress, ConcurrentProducersMergeDeterministically) {
  // Three producers stream disjoint, per-session monotone partitions of
  // one workload concurrently; the popped stream must come out in content
  // order (time, then id) no matter how the pushes interleave.
  constexpr int kPerProducer = 40;
  constexpr int kProducers = 3;
  std::vector<std::int64_t> popped;
  IngressQueue q({/*num_ports=*/4, /*expected_clients=*/kProducers});
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      // Appended, not `"p" + std::to_string(p)`: GCC 12's -Wrestrict
      // misfires on that operator+ at -O3 (GCC bug 105329).
      std::string name = "p";
      name += std::to_string(p);
      const auto sid = q.open_session(std::move(name));
      for (int i = 0; i < kPerProducer; ++i) {
        const std::int64_t id = p + kProducers * i;
        ASSERT_EQ(push_one(q, sid, arrival_at(id, 10 * id)), Accept::kOk);
      }
      q.finish_session(sid);
    });
  }
  while (q.blocking_peek() != kNever) popped.push_back(q.pop().coflow.id.value);
  for (auto& t : producers) t.join();
  ASSERT_EQ(popped.size(),
            static_cast<std::size_t>(kProducers * kPerProducer));
  for (std::size_t i = 0; i < popped.size(); ++i) {
    EXPECT_EQ(popped[i], static_cast<std::int64_t>(i));
  }
}

TEST(Ingress, ReactingSessionVetoesMergeUntilCurrentIdle) {
  IngressQueue q({/*num_ports=*/4, /*expected_clients=*/1});
  const auto sid = q.open_session("c");
  q.set_reactive(sid);
  ASSERT_EQ(push_one(q, sid, arrival_at(0, 0)), Accept::kOk);
  EXPECT_EQ(q.blocking_peek(), 0);
  (void)q.pop();
  q.set_idle(sid, 0);
  // Idle + empty: the engine may advance (reactive kNever semantics).
  EXPECT_EQ(q.blocking_peek(), kNever);
  // A routed DONE flips the session to reacting: even queued events must
  // not release until the client answers with a *current* IDLE.
  q.note_done(sid);
  ASSERT_EQ(push_one(q, sid, arrival_at(1, 500)), Accept::kOk);
  std::atomic<bool> released{false};
  std::thread consumer([&q, &released] {
    EXPECT_EQ(q.blocking_peek(), 500);
    released.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(released.load());
  q.set_idle(sid, 0);  // stale: one DONE was routed, client saw none
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(released.load());
  q.set_idle(sid, 1);  // current: burst over, barrier lifts
  consumer.join();
  EXPECT_TRUE(released.load());
}

// ------------------------------------------------- end-to-end over sockets

constexpr int kSvcPorts = 6;

std::vector<WorkloadEvent> svc_events(int coflows, SimTime gap = 50'000) {
  std::vector<WorkloadEvent> evs;
  evs.reserve(static_cast<std::size_t>(coflows));
  for (int i = 0; i < coflows; ++i) {
    evs.push_back(arrival_at(i, gap * i));
    evs.back().coflow.flows = {{i % kSvcPorts, (i + 1) % kSvcPorts,
                                100 + 10 * (i % 7)},
                               {(i + 2) % kSvcPorts, (i + 3) % kSvcPorts,
                                60 + 5 * (i % 5)}};
  }
  return evs;
}

std::string socket_path(const char* tag) {
  return (std::filesystem::temp_directory_path() /
          (std::string("saath_svc_test_") + tag + "_" +
           std::to_string(::getpid()) + ".sock"))
      .string();
}

SimResult offline_run(const std::string& sched,
                      std::vector<WorkloadEvent> events) {
  auto src =
      std::make_shared<VectorSource>("svc-test", kSvcPorts, std::move(events));
  auto scheduler = make_scheduler(sched);
  SimConfig cfg = testing::toy_config();
  apply_scheduler_sim_overrides(sched, cfg);
  Engine engine(src, *scheduler, cfg);
  return engine.run();
}

SimResult offline_run(const std::string& sched, int coflows) {
  return offline_run(sched, svc_events(coflows));
}

DaemonConfig daemon_cfg(const std::string& tag, const std::string& sched,
                        int expect_clients) {
  DaemonConfig cfg;
  cfg.address = "unix:" + socket_path(tag.c_str());
  cfg.num_ports = kSvcPorts;
  cfg.scheduler = sched;
  cfg.sim = testing::toy_config();
  cfg.expect_clients = expect_clients;
  return cfg;
}

std::string temp_path(const std::string& tag) {
  return (std::filesystem::temp_directory_path() /
          ("saath_svc_test_" + tag + "_" + std::to_string(::getpid())))
      .string();
}

/// Polls until `done()` holds; false after ~10 s.
template <typename Pred>
bool eventually(Pred done) {
  for (int i = 0; i < 10'000; ++i) {
    if (done()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return done();
}

bool has_stat(const ServiceDaemon& daemon, const std::string& key,
              const std::string& value) {
  return daemon.stats_text().find("STAT " + key + ' ' + value + '\n') !=
         std::string::npos;
}

std::int64_t count_lines(const std::string& path) {
  std::ifstream in(path);
  return std::count(std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>(), '\n');
}

TEST(ServiceEndToEnd, DigestMatchesOfflineAcrossSchedulers) {
  for (const std::string sched : {"saath", "aalo"}) {
    const SimResult offline = offline_run(sched, 16);
    ServiceDaemon daemon(daemon_cfg("digest_" + sched, sched, 1));
    daemon.start();
    ServiceClient client(ClientOptions{daemon.address()});
    ASSERT_TRUE(client.connect("svc-test", kSvcPorts)) << client.report().error;
    VectorSource src("svc-test", kSvcPorts, svc_events(16));
    ASSERT_TRUE(client.drive(src)) << client.report().error;
    ASSERT_TRUE(client.finish()) << client.report().error;
    const ServiceReport rep = daemon.wait();
    ASSERT_TRUE(rep.ok) << rep.error;
    EXPECT_EQ(rep.digest_hex, replay::result_digest_hex(offline)) << sched;
    EXPECT_EQ(client.report().digest_hex, rep.digest_hex);
    EXPECT_EQ(rep.makespan, offline.makespan);
  }
}

TEST(ServiceEndToEnd, InterleavedClientsMatchOffline) {
  const SimResult offline = offline_run("saath", 18);
  ServiceDaemon daemon(daemon_cfg("interleave", "saath", 2));
  daemon.start();
  const auto all = svc_events(18);
  std::vector<WorkloadEvent> even, odd;
  for (std::size_t i = 0; i < all.size(); ++i) {
    (i % 2 == 0 ? even : odd).push_back(all[i]);
  }
  std::atomic<int> failures{0};
  auto drive_half = [&daemon, &failures](const char* name,
                                         std::vector<WorkloadEvent> evs) {
    ClientOptions co{daemon.address()};
    co.client_name = name;
    ServiceClient client(co);
    VectorSource src("svc-test", kSvcPorts, std::move(evs));
    if (!client.connect("svc-test", kSvcPorts) || !client.drive(src) ||
        !client.finish()) {
      ++failures;
    }
  };
  std::thread ta(drive_half, "even", even);
  std::thread tb(drive_half, "odd", odd);
  ta.join();
  tb.join();
  EXPECT_EQ(failures.load(), 0);
  const ServiceReport rep = daemon.wait();
  ASSERT_TRUE(rep.ok) << rep.error;
  EXPECT_EQ(rep.digest_hex, replay::result_digest_hex(offline));
}

TEST(ServiceEndToEnd, DisconnectImpliesFinAndReclaimsSession) {
  const SimResult offline = offline_run("saath", 10);
  ServiceDaemon daemon(daemon_cfg("disco", "saath", 2));
  daemon.start();
  const auto all = svc_events(10);
  {
    // First client registers, streams the earliest event, and vanishes
    // without FIN — the dropped connection must act as an implicit FIN so
    // the run is not wedged waiting on a dead session.
    ClientOptions co{daemon.address()};
    co.client_name = "ghost";
    ServiceClient ghost(co);
    ASSERT_TRUE(ghost.connect("svc-test", kSvcPorts));
    VectorSource head("svc-test", kSvcPorts, {all.front()});
    ASSERT_TRUE(ghost.drive(head));
    // destructor closes the socket: no FIN, no END wait
  }
  ClientOptions co{daemon.address()};
  co.client_name = "rest";
  ServiceClient rest(co);
  ASSERT_TRUE(rest.connect("svc-test", kSvcPorts));
  VectorSource tail("svc-test", kSvcPorts,
                    {all.begin() + 1, all.end()});
  ASSERT_TRUE(rest.drive(tail)) << rest.report().error;
  ASSERT_TRUE(rest.finish()) << rest.report().error;
  const ServiceReport rep = daemon.wait();
  ASSERT_TRUE(rep.ok) << rep.error;
  EXPECT_EQ(rep.digest_hex, replay::result_digest_hex(offline));
}

TEST(ServiceEndToEnd, MalformedAndOversizedFramesAreSurvivable) {
  ServiceDaemon daemon(daemon_cfg("malformed", "saath", 1));
  daemon.start();
  ServiceClient client(ClientOptions{daemon.address()});
  ASSERT_TRUE(client.connect("svc-test", kSvcPorts));
  // Unknown verb and a truncated event line: typed REJ, stream stays up.
  ASSERT_TRUE(client.send_line("BOGUS frame"));
  ASSERT_TRUE(client.send_line("A 12"));
  VectorSource src("svc-test", kSvcPorts, svc_events(4));
  ASSERT_TRUE(client.drive(src));
  ASSERT_TRUE(client.finish()) << client.report().error;
  EXPECT_GE(client.report().rejects_seen, 2);
  EXPECT_EQ(client.report().accepted, 4);
  const ServiceReport rep = daemon.wait();
  EXPECT_TRUE(rep.ok) << rep.error;

  // A second daemon for the oversized-frame case: the connection must be
  // dropped (implicit FIN), not buffered without bound.
  ServiceDaemon daemon2(daemon_cfg("oversize", "saath", 1));
  daemon2.start();
  ServiceClient bad(ClientOptions{daemon2.address()});
  ASSERT_TRUE(bad.connect("svc-test", kSvcPorts));
  // The daemon may drop the connection while this is still in flight
  // (overflow detected from the first reads), so the send itself may
  // legitimately fail with a broken pipe.
  (void)bad.send_line(std::string(2u << 20, 'z'));
  char buf[256];
  while (bad.connection().recv_some(buf, sizeof buf) > 0) {
  }  // daemon answers REJ then closes
  const ServiceReport rep2 = daemon2.wait();
  EXPECT_TRUE(rep2.ok) << rep2.error;  // empty run drains cleanly
}

TEST(ServiceEndToEnd, TornJournalRestartReproducesDigest) {
  const SimResult reference = offline_run("saath", 12);
  const auto all = svc_events(12);
  const std::string journal =
      (std::filesystem::temp_directory_path() /
       ("saath_svc_test_journal_" + std::to_string(::getpid()) + ".j"))
          .string();
  std::filesystem::remove(journal);

  {
    // First life: half the script lands in the journal, then the client
    // vanishes and the daemon is shut down mid-run.
    auto cfg = daemon_cfg("restart1", "saath", 1);
    cfg.journal_path = journal;
    ServiceDaemon daemon(cfg);
    daemon.start();
    ClientOptions co{daemon.address()};
    co.wait_end = false;
    ServiceClient client(co);
    ASSERT_TRUE(client.connect("svc-test", kSvcPorts));
    VectorSource half("svc-test", kSvcPorts,
                      {all.begin(), all.begin() + 6});
    ASSERT_TRUE(client.drive(half));
    ASSERT_TRUE(client.finish()) << client.report().error;
    (void)daemon.wait();
  }
  {
    // Simulate the crash artifact: a torn half-written line at the tail.
    std::ofstream torn(journal, std::ios::app);
    torn << "A 999999 77";  // no newline, no flow list
  }
  {
    // Second life: resume truncates the torn tail, replays the journal
    // prefix, and the re-driven full script has its consumed prefix
    // deterministically rejected — the digest equals the uninterrupted
    // offline run bit-for-bit.
    auto cfg = daemon_cfg("restart2", "saath", 1);
    cfg.journal_path = journal;
    cfg.resume = true;
    ServiceDaemon daemon(cfg);
    daemon.start();
    ServiceClient client(ClientOptions{daemon.address()});
    ASSERT_TRUE(client.connect("svc-test", kSvcPorts));
    VectorSource full("svc-test", kSvcPorts, all);
    ASSERT_TRUE(client.drive(full)) << client.report().error;
    ASSERT_TRUE(client.finish()) << client.report().error;
    const ServiceReport rep = daemon.wait();
    ASSERT_TRUE(rep.ok) << rep.error;
    EXPECT_EQ(rep.digest_hex, replay::result_digest_hex(reference));
    EXPECT_GT(client.report().rejects_seen, 0);  // re-driven prefix fenced
  }
  std::filesystem::remove(journal);
}

TEST(ServiceEndToEnd, CheckpointResumeMatchesOffline) {
  // Arrivals 0.4 s apart: CoFlows complete while the script is still
  // arriving, so the checkpoint taken mid-run holds completion records.
  constexpr int kCoflows = 24;
  constexpr int kCut = 12;
  constexpr SimTime kGap = 400'000;
  const auto all = svc_events(kCoflows, kGap);
  const SimResult reference = offline_run("saath", all);
  const std::string journal = temp_path("ckpt_journal");
  const std::string ckpt = temp_path("ckpt");
  const std::string crash_journal = journal + ".crash";
  const std::string crash_ckpt = ckpt + ".crash";
  {
    // First life: journaled and checkpointing. The client sends the first
    // kCut events and stays connected, so the engine pulls them all and
    // then blocks waiting for more. From then on neither file changes
    // until more input arrives; copies taken now are what a kill leaves.
    auto cfg = daemon_cfg("ckpt1", "saath", 1);
    cfg.journal_path = journal;
    cfg.checkpoint_path = ckpt;
    cfg.checkpoint_every_epochs = 3;
    ServiceDaemon daemon(cfg);
    daemon.start();
    ClientOptions co{daemon.address()};
    co.wait_end = false;
    ServiceClient client(co);
    ASSERT_TRUE(client.connect("svc-test", kSvcPorts));
    VectorSource head("svc-test", kSvcPorts, {all.begin(), all.begin() + kCut});
    ASSERT_TRUE(client.drive(head));
    ASSERT_TRUE(eventually([&] { return count_lines(journal) == 2 + kCut; }));
    ASSERT_TRUE(std::filesystem::exists(ckpt));
    std::filesystem::copy_file(
        journal, crash_journal,
        std::filesystem::copy_options::overwrite_existing);
    std::filesystem::copy_file(
        ckpt, crash_ckpt, std::filesystem::copy_options::overwrite_existing);
  }  // the client leaves without FIN; the daemon drains into the originals
  {
    std::ifstream in(crash_ckpt, std::ios::binary);
    const EngineSnapshot snap = replay::load_checkpoint(in);
    EXPECT_FALSE(snap.completed.empty())
        << "the checkpoint must carry the completions before it";
  }
  {
    // Second life: checkpoint plus journal suffix, then the re-driven
    // script. The digest covers the records from before the checkpoint.
    auto cfg = daemon_cfg("ckpt2", "saath", 1);
    cfg.journal_path = crash_journal;
    cfg.checkpoint_path = crash_ckpt;
    cfg.checkpoint_every_epochs = 3;
    cfg.resume = true;
    ServiceDaemon daemon(cfg);
    daemon.start();
    ServiceClient client(ClientOptions{daemon.address()});
    ASSERT_TRUE(client.connect("svc-test", kSvcPorts));
    VectorSource full("svc-test", kSvcPorts, all);
    ASSERT_TRUE(client.drive(full)) << client.report().error;
    ASSERT_TRUE(client.finish()) << client.report().error;
    const ServiceReport rep = daemon.wait();
    ASSERT_TRUE(rep.ok) << rep.error;
    EXPECT_EQ(rep.digest_hex, replay::result_digest_hex(reference));
    EXPECT_EQ(client.report().digest_hex, rep.digest_hex);
    // Every CoFlow is answered: a DONE replayed from the checkpoint's
    // records, or streamed by the resumed engine.
    EXPECT_EQ(client.report().dones, kCoflows);
  }
  for (const std::string& f : {journal, ckpt, ckpt + ".tmp", crash_journal,
                               crash_ckpt, crash_ckpt + ".tmp"}) {
    std::filesystem::remove(f);
  }
}

TEST(ServiceEndToEnd, BatchVerdictsKeepFrameOrder) {
  const auto all = svc_events(12);
  const SimResult offline = offline_run("saath", all);
  ServiceDaemon daemon(daemon_cfg("batch", "saath", 1));
  daemon.start();
  ServiceClient client(ClientOptions{daemon.address()});
  ASSERT_TRUE(client.connect("svc-test", kSvcPorts));
  VectorSource head("svc-test", kSvcPorts, {all.begin(), all.begin() + 3});
  ASSERT_TRUE(client.drive(head));
  // Released events set the watermark (t = 100000) an early event trips.
  ASSERT_TRUE(eventually(
      [&daemon] { return has_stat(daemon, "ingest_released", "3"); }));
  const auto line = [](const WorkloadEvent& ev) {
    return replay::format_event_line(ev) + '\n';
  };
  const std::string batch =
      line(all[3]) + line(arrival_at(1000, 10)) + line(all[3]) + "A 12\n" +
      line(WorkloadEvent::arrival(
          testing::make_coflow(1001, 160'000, {{0, 99, 100}}))) +
      line(all[4]) + "G 1 x\n" + line(all[5]);
  // One write: the frames reach the daemon in as few reads as the socket
  // allows, and are admitted as batches.
  ASSERT_TRUE(client.connection().send_all(batch.data(), batch.size()));
  VectorSource tail("svc-test", kSvcPorts, {all.begin() + 6, all.end()});
  ASSERT_TRUE(client.drive(tail)) << client.report().error;
  ASSERT_TRUE(client.finish()) << client.report().error;
  const std::vector<std::string> expected = {
      "REJ out-of-order t=10 id=1000",
      "REJ duplicate-id t=150000 id=3",
      "REJ malformed-frame journal line 0: truncated record",
      "REJ malformed t=160000 id=1001",
      "REJ malformed-frame journal line 0: bad integer 'x'",
  };
  EXPECT_EQ(client.report().reject_lines, expected);
  EXPECT_EQ(client.report().accepted, 12);
  EXPECT_EQ(client.report().rejected, 5);
  EXPECT_EQ(client.report().dones, 12);
  const ServiceReport rep = daemon.wait();
  ASSERT_TRUE(rep.ok) << rep.error;
  EXPECT_EQ(rep.digest_hex, replay::result_digest_hex(offline));
}

TEST(ServiceEndToEnd, ReactiveDagClientMatchesOfflineWithCoalescedDones) {
  workload::ScenarioSetup oracle = workload::make_scenario("pipeline-dag");
  SimConfig cfg = oracle.config;
  apply_scheduler_sim_overrides(oracle.default_scheduler, cfg);
  auto sched = make_scheduler(oracle.default_scheduler);
  Engine engine(oracle.source, *sched, cfg);
  const SimResult offline = engine.run();

  workload::ScenarioSetup live = workload::make_scenario("pipeline-dag");
  DaemonConfig dc;
  dc.address = "unix:" + socket_path("dag");
  dc.num_ports = live.source->num_ports();
  dc.scheduler = live.default_scheduler;
  dc.sim = live.config;
  dc.expect_clients = 1;
  dc.workload_name = live.source->name();
  ServiceDaemon daemon(dc);
  daemon.start();
  ClientOptions co{daemon.address()};
  co.reactive = true;
  ServiceClient client(co);
  ASSERT_TRUE(client.connect(live.source->name(), live.source->num_ports()));
  ASSERT_TRUE(client.drive(*live.source)) << client.report().error;
  ASSERT_TRUE(client.finish()) << client.report().error;
  const ServiceReport rep = daemon.wait();
  ASSERT_TRUE(rep.ok) << rep.error;
  EXPECT_EQ(rep.digest_hex, replay::result_digest_hex(offline));
  EXPECT_EQ(client.report().dones,
            static_cast<std::int64_t>(offline.coflows.size()));
}

TEST(ServiceEndToEnd, StatsPollingRacesRunTeardown) {
  // STATS reads the engine's telemetry while the engine thread finishes
  // the run and destroys the Engine; the reads must never outlive it.
  ServiceDaemon daemon(daemon_cfg("stats_race", "saath", 1));
  daemon.start();
  std::atomic<bool> stop{false};
  std::atomic<int> polls{0};
  std::thread poller([&daemon, &stop, &polls] {
    while (!stop.load()) {
      if (daemon.stats_text().find("STAT ingest_events ") ==
          std::string::npos) {
        ADD_FAILURE() << "STATS block lost its counters";
      }
      ++polls;
    }
  });
  // The STATS verb too, over a connection that never says HELLO (a
  // session would hold the run open).
  Connection stats_conn = dial(daemon.address());
  std::atomic<bool> driven{false};
  std::thread streamer([&daemon, &driven, &polls] {
    // Drive only once the poller has read at least once (bounded wait):
    // under load it could otherwise first run after the teardown it is
    // meant to race, and the test would check nothing.
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (polls.load() == 0 && std::chrono::steady_clock::now() < give_up) {
      std::this_thread::yield();
    }
    ServiceClient client(ClientOptions{daemon.address()});
    VectorSource src("svc-test", kSvcPorts, svc_events(6));
    EXPECT_TRUE(client.connect("svc-test", kSvcPorts) && client.drive(src) &&
                client.finish())
        << client.report().error;
    driven = true;
  });
  FrameReader framer;
  char buf[4096];
  bool open = true;
  while (open && !driven.load()) {
    open = stats_conn.send_line("STATS");
    for (bool end = false; open && !end;) {
      while (auto frame = framer.next_frame()) {
        end = end || *frame == "ENDSTATS";
      }
      if (end) break;
      const long r = stats_conn.recv_some(buf, sizeof buf);
      open = r > 0 && framer.feed(buf, static_cast<std::size_t>(r));
    }
  }
  EXPECT_TRUE(open);
  streamer.join();
  const ServiceReport rep = daemon.wait();
  stop = true;
  poller.join();
  EXPECT_TRUE(rep.ok) << rep.error;
  EXPECT_GT(polls.load(), 0);
}

}  // namespace
}  // namespace saath::service
