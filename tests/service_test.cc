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
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "replay/journal.h"
#include "sched/factory.h"
#include "service/client.h"
#include "service/daemon.h"
#include "service/ingress.h"
#include "service/protocol.h"
#include "service/source.h"
#include "sim/engine.h"
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

// A verb frame's count must be a whole integer: a malformed one makes the
// frame kBad instead of reading a prefix (or 0) as the count.
TEST(Protocol, MalformedVerbCountsAreBad) {
  EXPECT_EQ(parse_request("IDLE 7x").kind, Request::Kind::kBad);
  EXPECT_EQ(parse_request("IDLE x").kind, Request::Kind::kBad);
  EXPECT_EQ(parse_request("IDLE -1").idle_dones, -1);
  EXPECT_EQ(parse_request("HELLO c 8x w").kind, Request::Kind::kBad);
  EXPECT_EQ(parse_request("HELLO c 8 x w").workload_name, "x w");
  EXPECT_EQ(parse_request("HELLO c 4294967304 w").kind, Request::Kind::kBad);
  EXPECT_FALSE(parse_done("DONE 5 1 2 3 4junk").has_value());
  EXPECT_FALSE(parse_done("DONE 5 1 4294967298 3 4").has_value());
  EXPECT_FALSE(parse_done("DONE 5 1 2 3").has_value());
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

// Event frames go through the journal's line parser, so a hostile frame
// gets the parser's typed message, not an allocator's.
TEST(Protocol, HostileEventFramesRejectTyped) {
  const struct {
    const char* frame;
    const char* error;
  } cases[] = {
      {"A 0 0 0 0 0 0 1000000000000", "journal line 0: truncated record"},
      {"A 0 0 0 0 0 0 99999999999999999999",
       "journal line 0: bad integer '99999999999999999999'"},
      {"A 0 0 0 0 0 0 1 0 1 99999999999999999999",
       "journal line 0: bad integer '99999999999999999999'"},
      {"A 0 0 0 0 0 0 1 2147483648 1 10",
       "journal line 0: port out of range 2147483648"},
  };
  for (const auto& k : cases) {
    const Request req = parse_request(k.frame);
    EXPECT_EQ(req.kind, Request::Kind::kBad) << k.frame;
    EXPECT_EQ(req.error, k.error) << k.frame;
  }
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
}

// ----------------------------------------------------------------- ingress

WorkloadEvent arrival_at(std::int64_t id, SimTime t) {
  return WorkloadEvent::arrival(testing::make_coflow(id, t, {{0, 1, 100}}));
}

TEST(Ingress, SortedInsertAndWatermarkFence) {
  IngressQueue q({/*num_ports=*/4, /*expected_clients=*/1});
  const auto sid = q.open_session("c");
  // Out-of-push-order but both beyond the watermark: sorted insert.
  EXPECT_EQ(q.push(sid, arrival_at(2, 100)), Accept::kOk);
  EXPECT_EQ(q.push(sid, arrival_at(1, 50)), Accept::kOk);
  EXPECT_EQ(q.blocking_peek(), 50);
  EXPECT_EQ(q.pop().coflow.id.value, 1);
  EXPECT_EQ(q.blocking_peek(), 100);
  EXPECT_EQ(q.pop().coflow.id.value, 2);
  EXPECT_EQ(q.watermark(), 100);
  // Released events fence later pushes.
  EXPECT_EQ(q.push(sid, arrival_at(3, 60)), Accept::kOutOfOrder);
  // Same-time arrival at the watermark with a non-greater id: tie order.
  EXPECT_EQ(q.push(sid, arrival_at(2, 100)), Accept::kTieOrder);
  EXPECT_EQ(q.push(sid, arrival_at(4, 100)), Accept::kOk);
  EXPECT_EQ(q.push(sid, arrival_at(4, 200)), Accept::kDuplicateId);
  // Malformed: destination port outside the fabric.
  EXPECT_EQ(q.push(sid, WorkloadEvent::arrival(
                            testing::make_coflow(9, 300, {{0, 99, 100}}))),
            Accept::kMalformed);
  q.finish_session(sid);
  EXPECT_EQ(q.push(sid, arrival_at(10, 400)), Accept::kClosed);
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
      const auto sid = q.open_session("p" + std::to_string(p));
      for (int i = 0; i < kPerProducer; ++i) {
        const std::int64_t id = p + kProducers * i;
        ASSERT_EQ(q.push(sid, arrival_at(id, 10 * id)), Accept::kOk);
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
  ASSERT_EQ(q.push(sid, arrival_at(0, 0)), Accept::kOk);
  EXPECT_EQ(q.blocking_peek(), 0);
  (void)q.pop();
  q.set_idle(sid, 0);
  // Idle + empty: the engine may advance (reactive kNever semantics).
  EXPECT_EQ(q.blocking_peek(), kNever);
  // A routed DONE flips the session to reacting: even queued events must
  // not release until the client answers with a *current* IDLE.
  q.note_done(sid);
  ASSERT_EQ(q.push(sid, arrival_at(1, 500)), Accept::kOk);
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

std::vector<WorkloadEvent> svc_events(int coflows) {
  std::vector<WorkloadEvent> evs;
  evs.reserve(static_cast<std::size_t>(coflows));
  for (int i = 0; i < coflows; ++i) {
    evs.push_back(arrival_at(i, 50'000 * i));
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

SimResult offline_run(const std::string& sched, int coflows) {
  auto src = std::make_shared<VectorSource>("svc-test", kSvcPorts,
                                            svc_events(coflows));
  auto scheduler = make_scheduler(sched);
  SimConfig cfg = testing::toy_config();
  apply_scheduler_sim_overrides(sched, cfg);
  Engine engine(src, *scheduler, cfg);
  return engine.run();
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
  // Unknown verb, a truncated event line and a dynamics kind outside the
  // enum: typed REJ, stream stays up.
  ASSERT_TRUE(client.send_line("BOGUS frame"));
  ASSERT_TRUE(client.send_line("A 12"));
  ASSERT_TRUE(client.send_line("D 1000 7 0 0x1p+0"));
  VectorSource src("svc-test", kSvcPorts, svc_events(4));
  ASSERT_TRUE(client.drive(src));
  ASSERT_TRUE(client.finish()) << client.report().error;
  EXPECT_GE(client.report().rejects_seen, 3);
  const auto& rej = client.report().reject_lines;
  EXPECT_NE(std::find(rej.begin(), rej.end(),
                      "REJ malformed-frame journal line 0: unknown dynamics "
                      "kind 7"),
            rej.end());
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

// A checkpoint naming a port outside the daemon's fabric is rejected at
// load, and the resume falls back to a cold replay of the journal: the
// digest still equals the uninterrupted offline run.
TEST(ServiceEndToEnd, HostileCheckpointFallsBackToColdReplay) {
  const SimResult reference = offline_run("saath", 12);
  const auto all = svc_events(12);
  const auto tmp = std::filesystem::temp_directory_path();
  const std::string stem =
      "saath_svc_test_hostile_" + std::to_string(::getpid());
  const std::string journal = (tmp / (stem + ".j")).string();
  const std::string checkpoint = (tmp / (stem + ".ckpt")).string();
  {
    auto cfg = daemon_cfg("hostile1", "saath", 1);
    cfg.journal_path = journal;
    ServiceDaemon daemon(cfg);
    daemon.start();
    ClientOptions co{daemon.address()};
    co.wait_end = false;
    ServiceClient client(co);
    ASSERT_TRUE(client.connect("svc-test", kSvcPorts));
    VectorSource half("svc-test", kSvcPorts, {all.begin(), all.begin() + 6});
    ASSERT_TRUE(client.drive(half));
    ASSERT_TRUE(client.finish()) << client.report().error;
    (void)daemon.wait();
  }
  {
    // Port 999 on a 6-port fabric: restoring it would abort the daemon.
    std::ofstream out(checkpoint, std::ios::trunc);
    out << "SAATHC1 " << kSvcPorts << " saath\n"
        << "T svc-test\n"
        << "H 1000 3 2 2 0 1000 0 0\n"
        << "N 1 0 0 0 0 0 0\n"
        << "K 0 0 0 -1 0 1 0 0\n"
        << "S 0 1000 -1 0 1 999 1 4096\n"
        << "F 0x0p+0 0x1p+20 1000 5000 0 -1\n"
        << "END\n";
  }
  {
    auto cfg = daemon_cfg("hostile2", "saath", 1);
    cfg.journal_path = journal;
    cfg.checkpoint_path = checkpoint;
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
  }
  std::filesystem::remove(journal);
  std::filesystem::remove(checkpoint);
}

// A checkpoint whose CoFlow sits in queue 99 loads (the loader does not
// know the queue count), and Saath's arrival hook refuses the CoFlow: the
// daemon reports the typed error in its ServiceReport and broadcasts the
// failure END line instead of aborting. In the active list the restore
// itself fails, before any client can connect; held in quarantine until
// after the journal's events, the CoFlow re-arrives only once the live
// client has driven the run past its release, so the client sees the END.
TEST(ServiceEndToEnd, CheckpointPastLastQueueFailsTyped) {
  const auto all = svc_events(12);
  const auto tmp = std::filesystem::temp_directory_path();
  const std::string stem = "saath_svc_test_queue_" + std::to_string(::getpid());
  const std::string journal = (tmp / (stem + ".j")).string();
  const std::string checkpoint = (tmp / (stem + ".ckpt")).string();
  {
    auto cfg = daemon_cfg("queue1", "saath", 1);
    cfg.journal_path = journal;
    ServiceDaemon daemon(cfg);
    daemon.start();
    ClientOptions co{daemon.address()};
    co.wait_end = false;
    ServiceClient client(co);
    ASSERT_TRUE(client.connect("svc-test", kSvcPorts));
    VectorSource half("svc-test", kSvcPorts, {all.begin(), all.begin() + 6});
    ASSERT_TRUE(client.drive(half));
    ASSERT_TRUE(client.finish()) << client.report().error;
    (void)daemon.wait();
  }
  // Taken at time 0, before the journal's first event; CoFlow 77 is one
  // unstarted flow in queue 99, active or quarantined until 400 ms.
  const auto write_checkpoint = [&](bool quarantined) {
    std::ofstream out(checkpoint, std::ios::trunc);
    out << "SAATHC1 " << kSvcPorts << " saath\n"
        << "T svc-test\n"
        << "H 0 0 0 1 0 0 -9223372036854775808 0\n"
        << (quarantined ? "N 0 1 0 0 0 0 0\nQ 400000\n"
                        : "N 1 0 0 0 0 0 0\n")
        << "K 0 99 0 -1 0 1 0 0\n"
        << "S 77 0 -1 0 1 2 1 4096\n"
        << "F 0x0p+0 0x0p+0 0 -1 0 -1\n"
        << "END\n";
  };
  const auto resumed_cfg = [&](const char* tag) {
    auto cfg = daemon_cfg(tag, "saath", 1);
    cfg.journal_path = journal;
    cfg.checkpoint_path = checkpoint;
    cfg.resume = true;
    return cfg;
  };
  const auto expect_typed_failure = [](const ServiceReport& rep) {
    EXPECT_FALSE(rep.ok);
    EXPECT_NE(rep.error.find("coflow 77 arrives in queue 99"),
              std::string::npos)
        << rep.error;
  };
  {
    write_checkpoint(false);
    ServiceDaemon daemon(resumed_cfg("queue2"));
    daemon.start();
    expect_typed_failure(daemon.wait());
  }
  {
    write_checkpoint(true);
    ServiceDaemon daemon(resumed_cfg("queue3"));
    daemon.start();
    ServiceClient client(ClientOptions{daemon.address()});
    ASSERT_TRUE(client.connect("svc-test", kSvcPorts));
    VectorSource full("svc-test", kSvcPorts, all);
    ASSERT_TRUE(client.drive(full)) << client.report().error;
    ASSERT_TRUE(client.finish()) << client.report().error;
    EXPECT_EQ(client.report().digest_hex, "deadbeefdeadbeef");
    EXPECT_EQ(client.report().makespan, -1);
    expect_typed_failure(daemon.wait());
  }
  std::filesystem::remove(journal);
  std::filesystem::remove(checkpoint);
}

}  // namespace
}  // namespace saath::service
