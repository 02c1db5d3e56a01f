// Tests for the message/RPC substrate: in-process transport (latency,
// bandwidth, partitions, run-to-completion delivery), RPC request/response,
// and the TCP transport.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <limits>
#include <mutex>
#include <new>
#include <thread>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/executor.h"
#include "common/latch.h"
#include "common/metrics.h"
#include "net/inproc_transport.h"
#include "net/fault_schedule.h"
#include "net/message.h"
#include "net/rpc.h"
#include "net/tcp_transport.h"

namespace {
// Heap allocations made by the calling thread: every allocation in this
// binary goes through the replaced global operator new below.
thread_local uint64_t t_allocations = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++t_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// The replacement pair is malloc/free underneath, which GCC cannot see
// through when it inlines them.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace chariots::net {
namespace {

using namespace std::chrono_literals;

TEST(MessageCodecTest, RoundTrip) {
  Message m;
  m.from = "dc0/client/1";
  m.to = "dc0/maintainer/2";
  m.type = 17;
  m.rpc_id = 0xfeed;
  m.is_response = true;
  m.error_code = 3;
  m.payload = std::string("\x00\x01 binary \xff", 12);
  auto decoded = DecodeMessage(EncodeMessage(m));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->from, m.from);
  EXPECT_EQ(decoded->to, m.to);
  EXPECT_EQ(decoded->type, m.type);
  EXPECT_EQ(decoded->rpc_id, m.rpc_id);
  EXPECT_EQ(decoded->is_response, m.is_response);
  EXPECT_EQ(decoded->error_code, m.error_code);
  EXPECT_EQ(decoded->payload, m.payload);
}

TEST(MessageCodecTest, GarbageIsRejected) {
  EXPECT_FALSE(DecodeMessage("not a message").ok());
  EXPECT_FALSE(DecodeMessage("").ok());
}

// WireSize() feeds the bandwidth simulation; it must not drift from what
// the codec actually puts on the wire.
TEST(MessageCodecTest, WireSizeMatchesEncodedSize) {
  Message m;
  EXPECT_EQ(m.WireSize(), EncodeMessage(m).size());

  m.from = "dc0/client/1";
  m.to = "dc1/maintainer/2";
  m.type = 42;
  m.rpc_id = 0x1234567890;
  m.payload = std::string(1000, 'x');
  EXPECT_EQ(m.WireSize(), EncodeMessage(m).size());

  // Active multi-hop trace: the trailer bytes must be counted too.
  m.trace.trace_id = 0xabcdef;
  m.trace.hops.push_back({"client", 0, 123});
  m.trace.hops.push_back({"batcher", 0, 456});
  m.trace.hops.push_back({"remote-receiver", 1, 789});
  EXPECT_EQ(m.WireSize(), EncodeMessage(m).size());
}

// ------------------------------------------------------ slice-chain encode

// The slice-chain encode is the zero-copy twin of EncodeMessage: its
// flattened bytes must be identical, byte for byte, for every message
// shape — that is the invariant letting the TCP transport switch to
// scatter-gather writes without a wire-format change.
TEST(MessageCodecTest, SlicesFlattenIdenticalToLegacyForEveryShape) {
  auto expect_identical = [](const Message& m, std::string_view prepend) {
    std::string legacy = EncodeMessage(m);
    Message moved = m;
    SliceChain chain = EncodeMessageSlices(std::move(moved), prepend);
    EXPECT_EQ(chain.size(), prepend.size() + legacy.size());
    EXPECT_EQ(chain.Flatten(), std::string(prepend) + legacy);
    // And the flattened bytes still decode to the original message.
    auto decoded = DecodeMessage(
        std::string_view(chain.Flatten()).substr(prepend.size()));
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->payload, m.payload);
    EXPECT_EQ(decoded->from, m.from);
    EXPECT_EQ(decoded->rpc_id, m.rpc_id);
  };

  Message m;
  expect_identical(m, "");  // default everything

  m.from = "dc0/client/1";
  m.to = "dc1/maintainer/2";
  m.type = 42;
  m.rpc_id = 0x1234567890;
  expect_identical(m, "");  // empty payload

  m.payload = "small";  // below the inline threshold: single slice
  expect_identical(m, "len!");
  {
    Message moved = m;
    SliceChain chain = EncodeMessageSlices(std::move(moved), "");
    EXPECT_EQ(chain.slices().size(), 1u);
  }

  m.payload = std::string(kInlineMessagePayloadBytes, 'p');  // borrowed
  expect_identical(m, "len!");

  m.is_response = true;
  m.error_code = 7;
  expect_identical(m, "");  // response + error shape

  m.payload = std::string("\x00\x01 binary \xff", 12);
  expect_identical(m, std::string_view("\x00\x00\x00\x00", 4));

  // Active multi-hop, multi-span trace: the trailer must land after the
  // payload slice exactly as the legacy encode places it.
  m.payload = std::string(4096, 't');
  m.trace.trace_id = 0xabcdef;
  m.trace.hops.push_back({"client", 0, 123});
  m.trace.hops.push_back({"remote-receiver", 1, 789});
  expect_identical(m, "");
  m.payload = "tiny";  // active trace + inline payload
  expect_identical(m, "x");
}

TEST(MessageCodecTest, SlicesBorrowLargePayloadWithoutCopy) {
  Message m;
  m.payload = std::string(4096, 'p');
  const char* payload_data = m.payload.data();
  SliceChain chain = EncodeMessageSlices(std::move(m), "");
  // The payload slice must alias the original string's heap bytes — moved
  // into the chain's refcounted Buffer, not copied.
  bool borrowed = false;
  for (const IoSlice& s : chain.slices()) {
    if (s.data.size() == 4096 && s.data.data() == payload_data) {
      borrowed = true;
    }
  }
  EXPECT_TRUE(borrowed);
  // Copying the chain shares the buffers; the bytes survive the original.
  SliceChain copy = chain;
  chain.Clear();
  EXPECT_EQ(copy.Flatten().substr(copy.size() - 4096), std::string(4096, 'p'));
}

TEST(MessageCodecTest, InlinePayloadStaysBelowOneSliceThreshold) {
  // Payloads below the threshold are deliberately copied (one small memcpy
  // beats an extra iovec entry); at or above, they are borrowed.
  Message small;
  small.payload = std::string(kInlineMessagePayloadBytes - 1, 's');
  EXPECT_EQ(EncodeMessageSlices(std::move(small), "").slices().size(), 1u);
  Message big;
  big.payload = std::string(kInlineMessagePayloadBytes, 'b');
  EXPECT_EQ(EncodeMessageSlices(std::move(big), "").slices().size(), 2u);
}

// --------------------------------------------------------- InProcTransport

TEST(InProcTransportTest, DeliversToRegisteredNode) {
  InProcTransport t;
  CountDownLatch latch(1);
  std::string got;
  ASSERT_TRUE(t.Register("b", [&](Message m) {
                 got = m.payload;
                 latch.CountDown();
               }).ok());
  Message m;
  m.from = "a";
  m.to = "b";
  m.payload = "hello";
  ASSERT_TRUE(t.Send(m).ok());
  latch.Wait();
  EXPECT_EQ(got, "hello");
  EXPECT_EQ(t.messages_delivered(), 1u);
}

TEST(InProcTransportTest, UnknownDestinationFails) {
  InProcTransport t;
  Message m;
  m.to = "ghost";
  EXPECT_TRUE(t.Send(m).IsNotFound());
}

TEST(InProcTransportTest, DuplicateRegistrationFails) {
  InProcTransport t;
  ASSERT_TRUE(t.Register("x", [](Message) {}).ok());
  EXPECT_EQ(t.Register("x", [](Message) {}).code(),
            StatusCode::kAlreadyExists);
}

TEST(InProcTransportTest, FifoPerSender) {
  InProcTransport t;
  std::vector<int> order;
  std::mutex mu;
  CountDownLatch latch(100);
  ASSERT_TRUE(t.Register("sink", [&](Message m) {
                 std::lock_guard<std::mutex> lock(mu);
                 order.push_back(std::stoi(m.payload));
                 latch.CountDown();
               }).ok());
  for (int i = 0; i < 100; ++i) {
    Message m;
    m.from = "src";
    m.to = "sink";
    m.payload = std::to_string(i);
    ASSERT_TRUE(t.Send(m).ok());
  }
  latch.Wait();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[i], i);
}

TEST(InProcTransportTest, LatencyDelaysDelivery) {
  InProcTransport t;
  CountDownLatch latch(1);
  ASSERT_TRUE(t.Register("dc1/n", [&](Message) { latch.CountDown(); }).ok());
  LinkOptions wan;
  wan.latency_nanos = 50'000'000;  // 50ms
  t.SetLink("dc0", "dc1", wan);
  Message m;
  m.from = "dc0/n";
  m.to = "dc1/n";
  auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(t.Send(m).ok());
  latch.Wait();
  auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_GE(elapsed, 40ms);
}

TEST(InProcTransportTest, MostSpecificLinkRuleWins) {
  InProcTransport t;
  CountDownLatch latch(1);
  ASSERT_TRUE(t.Register("dc1/fast", [&](Message) { latch.CountDown(); }).ok());
  LinkOptions slow;
  slow.latency_nanos = 2'000'000'000;  // 2s — must NOT apply
  t.SetLink("dc0", "dc1", slow);
  t.SetLink("dc0", "dc1/fast", LinkOptions{});  // specific: no delay
  Message m;
  m.from = "dc0/n";
  m.to = "dc1/fast";
  ASSERT_TRUE(t.Send(m).ok());
  EXPECT_TRUE(latch.WaitFor(500ms));
}

TEST(InProcTransportTest, PartitionDropsAndHealRestores) {
  InProcTransport t;
  std::atomic<int> received{0};
  ASSERT_TRUE(t.Register("dc1/n", [&](Message) { ++received; }).ok());
  t.Partition("dc0", "dc1");
  Message m;
  m.from = "dc0/n";
  m.to = "dc1/n";
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(t.Send(m).ok());
  EXPECT_EQ(t.messages_dropped(), 10u);
  EXPECT_EQ(received.load(), 0);

  t.Heal("dc0", "dc1");
  CountDownLatch latch(1);
  ASSERT_TRUE(t.Unregister("dc1/n").ok());
  ASSERT_TRUE(t.Register("dc1/n", [&](Message) { latch.CountDown(); }).ok());
  ASSERT_TRUE(t.Send(m).ok());
  EXPECT_TRUE(latch.WaitFor(1s));
}

TEST(InProcTransportTest, UnregisterStopsDelivery) {
  InProcTransport t;
  ASSERT_TRUE(t.Register("n", [](Message) {}).ok());
  ASSERT_TRUE(t.Unregister("n").ok());
  Message m;
  m.to = "n";
  EXPECT_TRUE(t.Send(m).IsNotFound());
  EXPECT_TRUE(t.Unregister("n").IsNotFound());
}

// ------------------------------------------- run-to-completion delivery

/// Requests of this type are not declared inline-safe below.
constexpr uint16_t kQueuedType = 2;

InlineSafeFn AllButQueuedType() {
  return [](const Message& m) { return m.type != kQueuedType; };
}

Message Request(const NodeId& from, const NodeId& to, uint16_t type,
                std::string payload) {
  Message m;
  m.from = from;
  m.to = to;
  m.type = type;
  m.payload = std::move(payload);
  return m;
}

uint64_t CounterValue(const std::string& name) {
  return metrics::Registry::Default().GetCounter(name)->Value();
}

TEST(InProcTransportTest, InlineSafeRequestRunsOnTheSendingThread) {
  InProcTransport t;
  std::mutex mu;
  std::vector<std::thread::id> ran_on;
  CountDownLatch delivered(3);
  auto record = [&](Message) {
    std::lock_guard<std::mutex> lock(mu);
    ran_on.push_back(std::this_thread::get_id());
    delivered.CountDown();
  };
  ASSERT_TRUE(t.RegisterInlineSafe("sink", record, AllButQueuedType()).ok());
  const uint64_t inline_before = CounterValue("net.transport.requests_inline");
  const uint64_t queued_before = CounterValue("net.transport.requests_queued");

  // Idle node, inline-safe type, no gate held: handled before Send returns.
  ASSERT_TRUE(t.Send(Request("src", "sink", 1, "a")).ok());
  {
    std::lock_guard<std::mutex> lock(mu);
    ASSERT_EQ(ran_on.size(), 1u);
    EXPECT_EQ(ran_on[0], std::this_thread::get_id());
  }
  // A type the node did not declare, and a sender inside a SerialGate, take
  // the queued path.
  ASSERT_TRUE(t.Send(Request("src", "sink", kQueuedType, "b")).ok());
  SerialGate gate;
  gate.Run([&] { ASSERT_TRUE(t.Send(Request("src", "sink", 1, "c")).ok()); });
  ASSERT_TRUE(delivered.WaitFor(5s));
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_NE(ran_on[1], std::this_thread::get_id());
  EXPECT_NE(ran_on[2], std::this_thread::get_id());
  EXPECT_EQ(CounterValue("net.transport.requests_inline") - inline_before, 1u);
  EXPECT_EQ(CounterValue("net.transport.requests_queued") - queued_before, 2u);
}

// Per-(from, to) FIFO holds while the node changes hands: slow requests of
// the queued type hold it for a worker (later inline-safe requests queue
// behind them), and pauses let it go idle, so the next requests run on the
// sender.
TEST(InProcTransportTest, FifoPerSenderAcrossQueuedAndInlineDelivery) {
  InProcTransport t;
  constexpr int kMessages = 400;
  std::mutex mu;
  std::vector<int> order;
  CountDownLatch latch(kMessages);
  ASSERT_TRUE(t.RegisterInlineSafe(
                   "sink",
                   [&](Message m) {
                     if (m.type == kQueuedType) {
                       std::this_thread::sleep_for(200us);
                     }
                     std::lock_guard<std::mutex> lock(mu);
                     order.push_back(std::stoi(m.payload));
                     latch.CountDown();
                   },
                   AllButQueuedType())
                  .ok());
  const uint64_t inline_before = CounterValue("net.transport.requests_inline");
  const uint64_t queued_before = CounterValue("net.transport.requests_queued");
  for (int i = 0; i < kMessages; ++i) {
    const uint16_t type = i % 20 == 0 ? kQueuedType : 1;
    ASSERT_TRUE(t.Send(Request("src", "sink", type, std::to_string(i))).ok());
    if (i % 20 == 10) std::this_thread::sleep_for(1ms);
  }
  ASSERT_TRUE(latch.WaitFor(10s));
  std::lock_guard<std::mutex> lock(mu);
  for (int i = 0; i < kMessages; ++i) ASSERT_EQ(order[i], i);
  EXPECT_GT(CounterValue("net.transport.requests_inline"), inline_before);
  EXPECT_GT(CounterValue("net.transport.requests_queued"), queued_before);
}

// A handler running in line sends to its own node: the inline-safe request
// is admitted onto the same trampoline and runs once the handler returns;
// the queued one waits for it, and the inline-safe one sent after the
// queued one joins the queue behind it, on a worker.
TEST(InProcTransportTest, InlineHandlerSendingToItsOwnNodeDoesNotDeadlock) {
  InProcTransport t;
  std::mutex mu;
  std::vector<std::pair<std::string, std::thread::id>> got;
  CountDownLatch latch(4);
  ASSERT_TRUE(
      t.RegisterInlineSafe(
           "self",
           [&](Message m) {
             if (m.payload == "first") {
               EXPECT_TRUE(t.Send(Request("self", "self", 1, "again")).ok());
               EXPECT_TRUE(
                   t.Send(Request("self", "self", kQueuedType, "queued")).ok());
               EXPECT_TRUE(t.Send(Request("self", "self", 1, "after")).ok());
             }
             std::lock_guard<std::mutex> lock(mu);
             got.emplace_back(m.payload, std::this_thread::get_id());
             latch.CountDown();
           },
           AllButQueuedType())
          .ok());
  ASSERT_TRUE(t.Send(Request("src", "self", 1, "first")).ok());
  ASSERT_TRUE(latch.WaitFor(5s));
  std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(got.size(), 4u);
  EXPECT_EQ(got[0].first, "first");
  EXPECT_EQ(got[1].first, "again");
  EXPECT_EQ(got[2].first, "queued");
  EXPECT_EQ(got[3].first, "after");
  EXPECT_EQ(got[0].second, std::this_thread::get_id());
  EXPECT_EQ(got[1].second, std::this_thread::get_id());
  EXPECT_NE(got[2].second, std::this_thread::get_id());
}

// Link and fault rules see inline-safe requests exactly as before: a
// delayed request waits for virtual time and then takes the queued path, a
// duplicate is delivered twice, and a request arriving inside an outage
// window vanishes.
TEST(InProcTransportTest, FaultsApplyToInlineSafeRequestsInVirtualTime) {
  ManualClock clock;
  Executor exec({.num_threads = 2, .name = "vt-inl", .manual_clock = &clock});
  {
    InProcTransport t(nullptr, &exec);
    std::atomic<int> got{0};
    ASSERT_TRUE(t.RegisterInlineSafe("sink", [&](Message) { ++got; },
                                     AllButQueuedType())
                    .ok());
    t.faults().DelayNth(FaultSchedule::TypeIs(3), 1, 10'000'000);
    t.faults().DuplicateNth(FaultSchedule::TypeIs(4), 1);

    const uint64_t queued_before =
        CounterValue("net.transport.requests_queued");
    ASSERT_TRUE(t.Send(Request("src", "sink", 3, "delayed")).ok());
    exec.WaitIdle();
    EXPECT_EQ(got.load(), 0) << "a delayed request ran before its time";
    exec.AdvanceBy(10'000'000);
    exec.WaitIdle();
    EXPECT_EQ(got.load(), 1);
    EXPECT_EQ(CounterValue("net.transport.requests_queued") - queued_before,
              1u);

    ASSERT_TRUE(t.Send(Request("src", "sink", 4, "twice")).ok());
    exec.WaitIdle();
    EXPECT_EQ(got.load(), 3);

    const int64_t now = clock.NowNanos();
    t.faults().CrashWindow("sink", now, now + 5'000'000);
    const uint64_t dropped_before = t.messages_dropped();
    ASSERT_TRUE(t.Send(Request("src", "sink", 1, "down")).ok());
    exec.WaitIdle();
    EXPECT_EQ(got.load(), 3);
    EXPECT_EQ(t.messages_dropped(), dropped_before + 1);
    exec.AdvanceBy(5'000'000);
    ASSERT_TRUE(t.Send(Request("src", "sink", 1, "up")).ok());
    exec.WaitIdle();
    EXPECT_EQ(got.load(), 4);
  }
  exec.Shutdown();
}

// A rule, outage or partition installed while other traffic flows fires on
// the next matching message. Clear() returns the plan to its unlocked empty
// state, in which messages advance no rule's match counter.
TEST(InProcTransportTest, FaultsInstalledWhileTrafficFlowsFireOnTheNextMessage) {
  InProcTransport t;
  std::atomic<int> to_sink{0};
  ASSERT_TRUE(
      t.RegisterInlineSafe("other", [](Message) {}, AllButQueuedType()).ok());
  ASSERT_TRUE(t.RegisterInlineSafe("sink", [&](Message) { ++to_sink; },
                                   AllButQueuedType())
                  .ok());
  std::atomic<bool> stop{false};
  std::thread traffic([&] {
    while (!stop.load()) {
      EXPECT_TRUE(t.Send(Request("src", "other", 1, "")).ok());
    }
  });
  auto send = [&](const NodeId& from) {
    EXPECT_TRUE(t.Send(Request(from, "sink", 1, "")).ok());
    return to_sink.load();
  };
  FaultSchedule& faults = t.faults();
  EXPECT_FALSE(faults.armed());
  EXPECT_EQ(send("src"), 1);

  faults.DropNth(FaultSchedule::ToPrefix("sink"), 1);
  EXPECT_TRUE(faults.armed());
  EXPECT_EQ(send("src"), 1) << "the first match after the install";
  EXPECT_EQ(send("src"), 2);

  faults.CrashWindow("sink", 0, std::numeric_limits<int64_t>::max());
  EXPECT_EQ(send("src"), 2) << "delivered inside the outage";
  faults.Clear();
  EXPECT_FALSE(faults.armed());
  EXPECT_EQ(send("src"), 3);

  faults.PartitionWindow({"cut"}, {"sink"}, 0,
                         std::numeric_limits<int64_t>::max());
  EXPECT_EQ(send("cut"), 3) << "sent across the partition";
  EXPECT_EQ(send("src"), 4);
  faults.Clear();

  for (int i = 0; i < 5; ++i) send("src");
  EXPECT_EQ(to_sink.load(), 9);
  faults.DropNth(FaultSchedule::ToPrefix("sink"), 2);
  EXPECT_EQ(send("src"), 10) << "matches sent while cleared were counted";
  EXPECT_EQ(send("src"), 10);
  EXPECT_EQ(send("src"), 11);
  EXPECT_EQ(faults.faults_injected(), 1u);
  stop.store(true);
  traffic.join();
}

// SetLink replaces a link's bandwidth bucket while a sender may still be
// paying into the one it resolved; that bucket must outlive the send
// (ASan/TSan report the race otherwise).
TEST(InProcTransportTest, SetLinkRacesABandwidthLimitedSend) {
  InProcTransport t;
  std::atomic<int> sent{0};
  ASSERT_TRUE(
      t.RegisterInlineSafe("dc1/n", [](Message) {}, AllButQueuedType()).ok());
  LinkOptions fast;
  fast.bandwidth_bytes_per_sec = 1e12;  // never makes the sender sleep
  t.SetLink("dc0", "dc1", fast);
  std::atomic<bool> stop{false};
  std::thread sender([&] {
    while (!stop.load()) {
      EXPECT_TRUE(t.Send(Request("dc0/n", "dc1/n", 1, "x")).ok());
      ++sent;
    }
  });
  for (int i = 0; sent.load() < 20'000 && i < 1'000'000; ++i) {
    fast.bandwidth_bytes_per_sec = 1e12 + i;
    t.SetLink("dc0", "dc1", fast);
  }
  stop.store(true);
  sender.join();
  EXPECT_GE(sent.load(), 20'000);
}

// Unregister while a sender's thread delivers in line: once Unregister
// returns, the handler never runs again and later sends fail.
TEST(InProcTransportTest, UnregisterRacesInlineDelivery) {
  InProcTransport t;
  std::atomic<bool> unregistered{false};
  std::atomic<int> delivered{0};
  std::atomic<int> late{0};
  ASSERT_TRUE(t.RegisterInlineSafe(
                   "sink",
                   [&](Message) {
                     if (unregistered.load()) ++late;
                     ++delivered;
                   },
                   AllButQueuedType())
                  .ok());
  std::atomic<bool> refused{false};
  std::vector<std::thread> senders;
  for (int s = 0; s < 2; ++s) {
    senders.emplace_back([&, s] {
      const NodeId from = "src" + std::to_string(s);
      for (int i = 0; i < 200'000; ++i) {
        if (!t.Send(Request(from, "sink", 1, "x")).ok()) {
          refused = true;
          return;
        }
      }
    });
  }
  while (delivered.load() < 1000) std::this_thread::yield();
  ASSERT_TRUE(t.Unregister("sink").ok());
  unregistered = true;
  for (auto& sender : senders) sender.join();
  EXPECT_TRUE(refused.load());
  EXPECT_EQ(late.load(), 0);
}

// Two threads send to one inline node whose handler is slow, so each mostly
// finds the node busy with the other's request. Each request still runs on
// the thread that sent it, beside the other's: inline handlers hold their
// node shared. Per-sender FIFO holds throughout.
TEST(InProcTransportTest, BusyNodeRunsEachRequestOnItsSender) {
  InProcTransport t;
  constexpr int kSenders = 2;
  constexpr int kPerSender = 50;
  std::mutex mu;
  std::vector<std::pair<std::string, std::thread::id>> got;
  ASSERT_TRUE(t.RegisterInlineSafe(
                   "sink",
                   [&](Message m) {
                     std::this_thread::sleep_for(100us);
                     std::lock_guard<std::mutex> lock(mu);
                     got.emplace_back(m.payload, std::this_thread::get_id());
                   },
                   AllButQueuedType())
                  .ok());
  const uint64_t queued_before = CounterValue("net.transport.requests_queued");
  const uint64_t migrated_before =
      CounterValue("net.transport.requests_migrated");
  std::thread::id ids[kSenders];
  std::atomic<int> started{0};
  std::vector<std::thread> senders;
  for (int s = 0; s < kSenders; ++s) {
    senders.emplace_back([&, s] {
      ids[s] = std::this_thread::get_id();
      started.fetch_add(1);
      while (started.load() < kSenders) std::this_thread::yield();
      const NodeId from = "src" + std::to_string(s);
      for (int i = 0; i < kPerSender; ++i) {
        const std::string payload = std::to_string(s) + ":" + std::to_string(i);
        ASSERT_TRUE(t.Send(Request(from, "sink", 1, payload)).ok());
      }
    });
  }
  for (auto& sender : senders) sender.join();
  std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(got.size(), static_cast<size_t>(kSenders * kPerSender));
  int next[kSenders] = {0, 0};
  for (const auto& [payload, ran_on] : got) {
    const int s = payload[0] - '0';
    EXPECT_EQ(payload, std::to_string(s) + ":" + std::to_string(next[s]));
    ++next[s];
    EXPECT_EQ(ran_on, ids[s]) << payload << " ran on another sender's thread";
  }
  EXPECT_EQ(CounterValue("net.transport.requests_queued") - queued_before, 0u);
  EXPECT_EQ(CounterValue("net.transport.requests_migrated") - migrated_before,
            0u);
}

// Inline handlers of one node run side by side: each of two senders' handlers
// waits (with a timeout) until both are inside. One handler at a time per
// node would time out.
TEST(InProcTransportTest, InlineHandlersOfOneNodeOverlap) {
  InProcTransport t;
  CountDownLatch inside(2);
  std::atomic<int> overlapped{0};
  ASSERT_TRUE(t.RegisterInlineSafe(
                   "sink",
                   [&](Message) {
                     inside.CountDown();
                     if (inside.WaitFor(5s)) ++overlapped;
                   },
                   AllButQueuedType())
                  .ok());
  const uint64_t queued_before = CounterValue("net.transport.requests_queued");
  std::vector<std::thread> senders;
  for (int s = 0; s < 2; ++s) {
    senders.emplace_back([&, s] {
      ASSERT_TRUE(
          t.Send(Request("src" + std::to_string(s), "sink", 1, "x")).ok());
    });
  }
  for (auto& sender : senders) sender.join();
  EXPECT_EQ(overlapped.load(), 2) << "the handlers ran one after the other";
  EXPECT_EQ(CounterValue("net.transport.requests_queued") - queued_before, 0u);
}

// A queued handler holds its node alone: inline-safe requests sent while it
// runs neither run beside it nor make their sender wait. They join the
// node's queue (counted as diverted) and run after it, in the order sent.
TEST(InProcTransportTest, QueuedHandlerExcludesInlineOnesThatFollowInOrder) {
  InProcTransport t;
  constexpr int kInline = 10;
  CountDownLatch entered(1);
  CountDownLatch release(1);
  CountDownLatch delivered(kInline);
  std::atomic<bool> queued_running{false};
  std::mutex mu;
  std::vector<std::pair<std::string, bool>> got;  // payload, beside queued
  ASSERT_TRUE(t.RegisterInlineSafe(
                   "sink",
                   [&](Message m) {
                     if (m.type == kQueuedType) {
                       queued_running = true;
                       entered.CountDown();
                       EXPECT_TRUE(release.WaitFor(5s));
                       queued_running = false;
                       return;
                     }
                     std::lock_guard<std::mutex> lock(mu);
                     got.emplace_back(m.payload, queued_running.load());
                     delivered.CountDown();
                   },
                   AllButQueuedType())
                  .ok());
  ASSERT_TRUE(t.Send(Request("ctl", "sink", kQueuedType, "queued")).ok());
  ASSERT_TRUE(entered.WaitFor(5s));
  const uint64_t diverted_before =
      CounterValue("net.transport.requests_diverted");
  for (int i = 0; i < kInline; ++i) {
    ASSERT_TRUE(t.Send(Request("src", "sink", 1, std::to_string(i))).ok());
  }
  EXPECT_EQ(CounterValue("net.transport.requests_diverted") - diverted_before,
            static_cast<uint64_t>(kInline));
  {
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_TRUE(got.empty()) << "an inline request ran beside a queued one";
  }
  release.CountDown();
  ASSERT_TRUE(delivered.WaitFor(5s));
  std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(got.size(), static_cast<size_t>(kInline));
  for (int i = 0; i < kInline; ++i) {
    EXPECT_EQ(got[i].first, std::to_string(i));
    EXPECT_FALSE(got[i].second);
  }
}

// -------------------------------------------------------------------- RPC

class RpcTest : public ::testing::Test {
 protected:
  InProcTransport transport_;
};

TEST_F(RpcTest, CallRoundTrip) {
  RpcEndpoint server(&transport_, "server");
  server.Handle(1, [](const NodeId& from, const std::string& payload)
                       -> Result<std::string> {
    EXPECT_EQ(from, "client");
    return "echo:" + payload;
  });
  ASSERT_TRUE(server.Start().ok());

  RpcEndpoint client(&transport_, "client");
  ASSERT_TRUE(client.Start().ok());
  auto r = client.Call("server", 1, "ping");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, "echo:ping");
}

TEST_F(RpcTest, ErrorStatusTravelsBack) {
  RpcEndpoint server(&transport_, "server");
  server.Handle(1, [](const NodeId&, const std::string&)
                       -> Result<std::string> {
    return Status::NotFound("no such record");
  });
  ASSERT_TRUE(server.Start().ok());
  RpcEndpoint client(&transport_, "client");
  ASSERT_TRUE(client.Start().ok());
  auto r = client.Call("server", 1, "");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(r.status().message(), "no such record");
}

TEST_F(RpcTest, UnknownOpcodeIsNotSupported) {
  RpcEndpoint server(&transport_, "server");
  ASSERT_TRUE(server.Start().ok());
  RpcEndpoint client(&transport_, "client");
  ASSERT_TRUE(client.Start().ok());
  auto r = client.Call("server", 99, "");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotSupported);
}

TEST_F(RpcTest, CallTimesOutThroughPartition) {
  RpcEndpoint server(&transport_, "dc1/server");
  server.Handle(1, [](const NodeId&, const std::string&)
                       -> Result<std::string> { return std::string(); });
  ASSERT_TRUE(server.Start().ok());
  RpcEndpoint client(&transport_, "dc0/client");
  ASSERT_TRUE(client.Start().ok());
  transport_.Partition("dc0", "dc1");
  auto r = client.Call("dc1/server", 1, "", 50ms);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsTimedOut());
}

TEST_F(RpcTest, OneWayNotify) {
  CountDownLatch latch(3);
  RpcEndpoint server(&transport_, "server");
  server.HandleOneWay(2, [&](const NodeId&, std::string) {
    latch.CountDown();
  });
  ASSERT_TRUE(server.Start().ok());
  RpcEndpoint client(&transport_, "client");
  ASSERT_TRUE(client.Start().ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(client.Notify("server", 2, "x").ok());
  }
  EXPECT_TRUE(latch.WaitFor(1s));
}

TEST_F(RpcTest, ConcurrentCallsCorrelate) {
  RpcEndpoint server(&transport_, "server");
  server.Handle(1, [](const NodeId&, const std::string& payload)
                       -> Result<std::string> { return payload; });
  ASSERT_TRUE(server.Start().ok());
  RpcEndpoint client(&transport_, "client");
  ASSERT_TRUE(client.Start().ok());

  // 8 caller threads share one endpoint: 64 calls, 8 in flight at a time.
  std::atomic<int> ok{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < 8; ++t) {
    callers.emplace_back([&, t] {
      for (int i = t * 8; i < (t + 1) * 8; ++i) {
        auto r = client.Call("server", 1, std::to_string(i));
        if (r.ok() && *r == std::to_string(i)) ++ok;
      }
    });
  }
  for (auto& c : callers) c.join();
  EXPECT_EQ(ok.load(), 64);
}

TEST_F(RpcTest, StopFailsPendingCalls) {
  RpcEndpoint client(&transport_, "client");
  ASSERT_TRUE(client.Start().ok());
  auto r = client.Call("nobody", 1, "");
  EXPECT_FALSE(r.ok());  // NotFound from transport
}

TEST_F(RpcTest, AsyncHandlerRepliesAfterReturning) {
  // The handler parks its Reply and returns; the reply goes out later from
  // another thread. Meanwhile the server's inbox keeps serving.
  RpcEndpoint server(&transport_, "server");
  std::mutex mu;
  std::vector<RpcEndpoint::Reply> parked;
  server.HandleAsync(1, [&](const NodeId&, const std::string& payload,
                            RpcEndpoint::Reply reply) {
    std::lock_guard<std::mutex> lock(mu);
    parked.push_back([reply, payload](Result<std::string>) {
      reply("late:" + payload);
    });
  });
  server.Handle(2, [](const NodeId&, const std::string&)
                       -> Result<std::string> { return std::string("now"); });
  ASSERT_TRUE(server.Start().ok());
  RpcEndpoint client(&transport_, "client");
  ASSERT_TRUE(client.Start().ok());

  CountDownLatch answered(1);
  Result<std::string> late = Status::Aborted("pending");
  CallOptions options;
  options.timeout = 5s;
  client.CallAsync("server", 1, "a", options, [&](Result<std::string> r) {
    late = std::move(r);
    answered.CountDown();
  });
  auto now = client.Call("server", 2, "");
  ASSERT_TRUE(now.ok()) << now.status();
  EXPECT_EQ(*now, "now");
  EXPECT_FALSE(answered.WaitFor(10ms));

  std::thread replier([&] {
    std::lock_guard<std::mutex> lock(mu);
    ASSERT_EQ(parked.size(), 1u);
    parked[0](std::string());
  });
  replier.join();
  ASSERT_TRUE(answered.WaitFor(1s));
  ASSERT_TRUE(late.ok()) << late.status();
  EXPECT_EQ(*late, "late:a");
}

TEST_F(RpcTest, CallAsyncTimeoutRacesLateResponse) {
  // Replies land around each call's timeout: whichever of the response and
  // the timer comes first completes the call, exactly once; the loser is
  // dropped.
  // Everything the handlers and completions touch is declared before the
  // endpoints, so it outlives them: a request whose call already timed out
  // can still reach the server's handler until `server` stops.
  constexpr int kCalls = 200;
  std::mutex mu;
  std::vector<std::pair<int64_t, RpcEndpoint::Reply>> due;
  std::vector<std::atomic<int>> completions(kCalls);
  std::atomic<int> ok{0}, timed_out{0};
  RpcEndpoint server(&transport_, "server");
  server.HandleAsync(1, [&](const NodeId&, const std::string&,
                            RpcEndpoint::Reply reply) {
    std::lock_guard<std::mutex> lock(mu);
    int64_t delay_us = static_cast<int64_t>(due.size() % 5) * 500;
    due.emplace_back(SystemClock::Default()->NowNanos() + delay_us * 1000,
                     std::move(reply));
  });
  ASSERT_TRUE(server.Start().ok());
  RpcEndpoint client(&transport_, "client");
  ASSERT_TRUE(client.Start().ok());

  std::atomic<bool> stop{false};
  std::thread replier([&] {
    while (!stop.load()) {
      std::vector<RpcEndpoint::Reply> ready;
      {
        std::lock_guard<std::mutex> lock(mu);
        int64_t now = SystemClock::Default()->NowNanos();
        for (auto& [at, reply] : due) {
          if (reply && at <= now) ready.push_back(std::move(reply));
        }
      }
      for (auto& reply : ready) reply(std::string("ok"));
      std::this_thread::sleep_for(100us);
    }
  });

  CallOptions options;
  options.timeout = 1ms;
  for (int i = 0; i < kCalls; ++i) {
    client.CallAsync("server", 1, "", options, [&, i](Result<std::string> r) {
      completions[i].fetch_add(1);
      if (r.ok()) {
        ok.fetch_add(1);
      } else if (r.status().IsTimedOut()) {
        timed_out.fetch_add(1);
      }
    });
  }
  for (int spin = 0; ok.load() + timed_out.load() < kCalls && spin < 2000;
       ++spin) {
    std::this_thread::sleep_for(1ms);
  }
  std::this_thread::sleep_for(10ms);  // late replies still arriving
  stop.store(true);
  replier.join();
  EXPECT_EQ(ok.load() + timed_out.load(), kCalls);
  for (int i = 0; i < kCalls; ++i) {
    EXPECT_EQ(completions[i].load(), 1) << "call " << i;
  }
}

TEST_F(RpcTest, StopCompletesPendingAsyncCalls) {
  RpcEndpoint server(&transport_, "server");
  std::vector<RpcEndpoint::Reply> parked;
  CountDownLatch handled(1);
  server.HandleAsync(1, [&](const NodeId&, const std::string&,
                            RpcEndpoint::Reply reply) {
    parked.push_back(std::move(reply));
    handled.CountDown();
  });
  ASSERT_TRUE(server.Start().ok());
  RpcEndpoint client(&transport_, "client");
  ASSERT_TRUE(client.Start().ok());
  CountDownLatch done(1);
  Status status;
  client.CallAsync("server", 1, "", CallOptions{}, [&](Result<std::string> r) {
    status = r.status();
    done.CountDown();
  });
  ASSERT_TRUE(handled.WaitFor(1s));
  client.Stop();
  ASSERT_TRUE(done.WaitFor(1s));
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  // A reply after the caller left goes nowhere, harmlessly.
  for (auto& reply : parked) reply(std::string("late"));
}

TEST_F(RpcTest, BlockingCallOnExecutorWorkerIsCounted) {
  metrics::Counter* waits = metrics::Registry::Default().GetCounter(
      "net.rpc.blocking_waits_on_worker");
  RpcEndpoint server(&transport_, "server");
  server.Handle(1, [](const NodeId&, const std::string& payload)
                       -> Result<std::string> { return payload; });
  ASSERT_TRUE(server.Start().ok());
  RpcEndpoint client(&transport_, "client");
  ASSERT_TRUE(client.Start().ok());

  uint64_t before = waits->Value();
  ASSERT_TRUE(client.Call("server", 1, "x").ok());
  EXPECT_EQ(waits->Value(), before) << "a caller's own thread is no worker";

  Executor exec({.num_threads = 2, .name = "blk"});
  CountDownLatch done(1);
  ASSERT_TRUE(exec.Submit([&] {
    EXPECT_TRUE(client.Call("server", 1, "y").ok());
    done.CountDown();
  }));
  ASSERT_TRUE(done.WaitFor(5s));
  EXPECT_EQ(waits->Value(), before + 1);
  exec.Shutdown();
}

// A handler declared inline-safe that blocks anyway (a nested Call) still
// completes at once: the Call hands the claimed delivery it depends on to
// the executor and sends its own request queued, instead of leaving both to
// the thread that is about to wait.
TEST_F(RpcTest, BlockingCallInsideAnInlineHandlerCompletes) {
  CountDownLatch noticed(1);
  RpcEndpoint peer(&transport_, "peer");
  peer.HandleOneWay(
      3, [&](const NodeId&, std::string) { noticed.CountDown(); },
      RpcEndpoint::Dispatch::kInline);
  RpcEndpoint backend(&transport_, "backend");
  backend.Handle(1, [&](const NodeId&, const std::string& payload)
                        -> Result<std::string> {
    if (!noticed.WaitFor(5s)) return Status::TimedOut("notice never ran");
    return "backend:" + payload;
  });
  RpcEndpoint front(&transport_, "front");
  front.Handle(
      1,
      [&](const NodeId&, const std::string& payload) -> Result<std::string> {
        // Claimed by this thread's trampoline, not yet run...
        EXPECT_TRUE(front.Notify("peer", 3, "").ok());
        // ...and the backend's reply waits for it.
        return front.Call("backend", 1, payload, 10s);
      },
      RpcEndpoint::Dispatch::kInline);
  RpcEndpoint client(&transport_, "client");
  ASSERT_TRUE(peer.Start().ok());
  ASSERT_TRUE(backend.Start().ok());
  ASSERT_TRUE(front.Start().ok());
  ASSERT_TRUE(client.Start().ok());

  const auto start = std::chrono::steady_clock::now();
  auto result = client.Call("front", 1, "x", 20s);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(*result, "backend:x");
  EXPECT_LT(std::chrono::steady_clock::now() - start, 2s)
      << "the nested Call waited for work its own thread had claimed";
}

// A reply sent by a handler running in line reaches the caller after the
// handler returned and released its node: the completion, on the same
// thread, sends a new inline request to the replying node, and that
// request runs in line too — before CallAsync returns.
TEST_F(RpcTest, InlineReplyArrivesAfterTheHandlersStrandIsReleased) {
  RpcEndpoint server(&transport_, "server");
  std::atomic<bool> returned{false};
  std::thread::id notice_ran_on;
  ASSERT_TRUE(server
                  .HandleAsync(
                      1,
                      [&](const NodeId&, const std::string& payload,
                          RpcEndpoint::Reply reply) {
                        returned = false;
                        reply("pong:" + payload);
                        returned = true;
                      },
                      RpcEndpoint::Dispatch::kInline)
                  .ok());
  ASSERT_TRUE(server
                  .HandleOneWay(
                      2,
                      [&](const NodeId&, std::string) {
                        notice_ran_on = std::this_thread::get_id();
                      },
                      RpcEndpoint::Dispatch::kInline)
                  .ok());
  ASSERT_TRUE(server.Start().ok());
  RpcEndpoint client(&transport_, "client");
  ASSERT_TRUE(client.Start().ok());

  const uint64_t inline_before = CounterValue("net.transport.requests_inline");
  const uint64_t queued_before = CounterValue("net.transport.requests_queued");
  bool completed = false;
  bool handler_had_returned = false;
  CallOptions options;
  options.timeout = 5s;
  client.CallAsync("server", 1, "x", options, [&](Result<std::string> r) {
    EXPECT_TRUE(r.ok()) << r.status();
    handler_had_returned = returned.load();
    EXPECT_TRUE(client.Notify("server", 2, "").ok());
    completed = true;
  });
  EXPECT_TRUE(completed) << "the reply left the caller's thread";
  EXPECT_TRUE(handler_had_returned)
      << "the completion ran inside the replying handler";
  EXPECT_EQ(notice_ran_on, std::this_thread::get_id());
  EXPECT_EQ(CounterValue("net.transport.requests_inline") - inline_before, 2u);
  EXPECT_EQ(CounterValue("net.transport.requests_queued") - queued_before, 0u);
}

// A BlockingWaitScope opened by a handler running in line, while its thread
// holds deferred work, delivers all of it: a reply the handler sent, and
// the requests its thread claimed on an idle node and on a node another
// thread's handler holds.
TEST_F(RpcTest, BlockingWaitScopeDeliversDeferredRequestsAndReplies) {
  CountDownLatch idle_noticed(1);
  CountDownLatch busy_noticed(1);
  CountDownLatch hold(1);
  CountDownLatch holding(1);
  RpcEndpoint idle(&transport_, "idle");
  ASSERT_TRUE(idle.HandleOneWay(
                      3, [&](const NodeId&, std::string) {
                        idle_noticed.CountDown();
                      },
                      RpcEndpoint::Dispatch::kInline)
                  .ok());
  RpcEndpoint busy(&transport_, "busy");
  ASSERT_TRUE(busy.HandleOneWay(
                      3,
                      [&](const NodeId&, std::string payload) {
                        if (payload == "hold") {
                          holding.CountDown();
                          (void)hold.WaitFor(10s);
                        } else {
                          busy_noticed.CountDown();
                        }
                      },
                      RpcEndpoint::Dispatch::kInline)
                  .ok());
  CountDownLatch replied(1);
  RpcEndpoint front(&transport_, "front");
  ASSERT_TRUE(front
                  .HandleAsync(
                      1,
                      [&](const NodeId&, const std::string&,
                          RpcEndpoint::Reply reply) {
                        // Claimed by this thread's trampoline, not yet run.
                        EXPECT_TRUE(front.Notify("idle", 3, "").ok());
                        EXPECT_TRUE(front.Notify("busy", 3, "").ok());
                        reply(std::string("pong"));
                        BlockingWaitScope blocking;
                        hold.CountDown();
                        EXPECT_TRUE(replied.WaitFor(5s));
                        EXPECT_TRUE(idle_noticed.WaitFor(5s));
                        EXPECT_TRUE(busy_noticed.WaitFor(5s));
                      },
                      RpcEndpoint::Dispatch::kInline)
                  .ok());
  RpcEndpoint client(&transport_, "client");
  ASSERT_TRUE(idle.Start().ok());
  ASSERT_TRUE(busy.Start().ok());
  ASSERT_TRUE(front.Start().ok());
  ASSERT_TRUE(client.Start().ok());

  // Another thread runs a handler on "busy" in line until `hold` opens.
  std::thread holder([&] { ASSERT_TRUE(busy.Notify("busy", 3, "hold").ok()); });
  ASSERT_TRUE(holding.WaitFor(5s));
  const auto start = std::chrono::steady_clock::now();
  CallOptions options;
  options.timeout = 20s;
  client.CallAsync("front", 1, "", options, [&](Result<std::string> r) {
    EXPECT_TRUE(r.ok()) << r.status();
    replied.CountDown();
  });
  holder.join();
  EXPECT_LT(std::chrono::steady_clock::now() - start, 2s)
      << "the scope left deferred work to the thread about to wait";
}

// The in-process message path allocates nothing but what the messages
// own: an inline Call costs its payload, the request's two node ids and the
// response's copy of the caller's id; a Notify its payload and two ids. The
// ids are FLStore's, too long for the short-string buffer.
TEST_F(RpcTest, InlineCallAllocatesOnlyPayloadAndNodeIds) {
  RpcEndpoint server(&transport_, "dc0/maintainer/0");
  ASSERT_TRUE(server
                  .Handle(
                      1,
                      [](const NodeId&, const std::string&)
                          -> Result<std::string> { return std::string(); },
                      RpcEndpoint::Dispatch::kInline)
                  .ok());
  ASSERT_TRUE(server
                  .HandleOneWay(2, [](const NodeId&, std::string) {},
                                RpcEndpoint::Dispatch::kInline)
                  .ok());
  ASSERT_TRUE(server.Start().ok());
  RpcEndpoint client(&transport_, "dc0/client/session0");
  ASSERT_TRUE(client.Start().ok());
  const NodeId maintainer = "dc0/maintainer/0";
  const std::string payload(64, 'p');
  // Allocations per operation once routes, call slots and instruments are
  // warm.
  auto per_op = [](const std::function<void()>& op) {
    for (int i = 0; i < 64; ++i) op();
    constexpr int kOps = 512;
    const uint64_t before = t_allocations;
    for (int i = 0; i < kOps; ++i) op();
    return static_cast<double>(t_allocations - before) / kOps;
  };
  const double call = per_op([&] {
    EXPECT_TRUE(client.Call(maintainer, 1, payload).ok());
  });
  const double notify = per_op([&] {
    EXPECT_TRUE(client.Notify(maintainer, 2, payload).ok());
  });
  EXPECT_LE(call, 4.0);
  EXPECT_LE(notify, 3.0);
}

// Handler tables freeze at Start: a late registration fails, whatever its
// Dispatch, and the opcode stays unhandled.
TEST_F(RpcTest, RegisteringOnAStartedEndpointFails) {
  RpcEndpoint server(&transport_, "server");
  ASSERT_TRUE(server.Start().ok());
  auto echo = [](const NodeId&, const std::string& payload)
      -> Result<std::string> { return payload; };
  EXPECT_EQ(server.Handle(1, echo, RpcEndpoint::Dispatch::kInline).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(server
                .HandleAsync(2,
                             [](const NodeId&, const std::string&,
                                RpcEndpoint::Reply reply) { reply(std::string()); })
                .code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(server.HandleOneWay(3, [](const NodeId&, std::string) {}).code(),
            StatusCode::kFailedPrecondition);

  RpcEndpoint client(&transport_, "client");
  ASSERT_TRUE(client.Start().ok());
  auto r = client.Call("server", 1, "ping");
  EXPECT_EQ(r.status().code(), StatusCode::kNotSupported) << r.status();

  // Stopped, the endpoint takes registrations again.
  server.Stop();
  ASSERT_TRUE(server.Handle(1, echo).ok());
  ASSERT_TRUE(server.Start().ok());
  r = client.Call("server", 1, "ping");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(*r, "ping");
}

// ---------------------------------------------------------- TcpTransport

TEST(TcpTransportTest, LoopbackRoundTrip) {
  TcpTransport server_side;
  ASSERT_TRUE(server_side.Listen(0).ok());
  CountDownLatch latch(1);
  std::string got;
  ASSERT_TRUE(server_side.Register("srv/node", [&](Message m) {
                 got = m.payload;
                 latch.CountDown();
               }).ok());

  TcpTransport client_side;
  client_side.AddRoute("srv", "127.0.0.1", server_side.port());
  Message m;
  m.from = "cli/node";
  m.to = "srv/node";
  m.payload = "over tcp";
  ASSERT_TRUE(client_side.Send(m).ok());
  EXPECT_TRUE(latch.WaitFor(2s));
  EXPECT_EQ(got, "over tcp");
}

TEST(TcpTransportTest, LocalDeliveryShortCircuits) {
  TcpTransport t;
  CountDownLatch latch(1);
  ASSERT_TRUE(t.Register("local", [&](Message) { latch.CountDown(); }).ok());
  Message m;
  m.to = "local";
  ASSERT_TRUE(t.Send(m).ok());
  EXPECT_TRUE(latch.WaitFor(1s));
}

TEST(TcpTransportTest, NoRouteFails) {
  TcpTransport t;
  Message m;
  m.to = "elsewhere/node";
  EXPECT_TRUE(t.Send(m).IsNotFound());
}

TEST(TcpTransportTest, LearnsPeersFromInboundConnections) {
  // A "server" with no static route back to the client must still be able
  // to answer: the client's node id is learned from its connection.
  TcpTransport server_side;
  ASSERT_TRUE(server_side.Listen(0).ok());
  RpcEndpoint server(&server_side, "srv/echo");
  server.Handle(1, [](const NodeId&, const std::string& p)
                       -> Result<std::string> { return "re:" + p; });
  ASSERT_TRUE(server.Start().ok());

  TcpTransport client_side;
  client_side.AddRoute("srv", "127.0.0.1", server_side.port());
  RpcEndpoint client(&client_side, "ephemeral/client/1234");
  ASSERT_TRUE(client.Start().ok());
  auto r = client.Call("srv/echo", 1, "hello", 2000ms);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(*r, "re:hello");
}

TEST(TcpTransportTest, SurvivesGarbageBytes) {
  TcpTransport server_side;
  ASSERT_TRUE(server_side.Listen(0).ok());
  CountDownLatch latch(1);
  ASSERT_TRUE(server_side.Register("srv/node", [&](Message) {
                 latch.CountDown();
               }).ok());

  // Throw raw garbage at the port: the server must drop the connection
  // without crashing or delivering anything.
  {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_port = htons(static_cast<uint16_t>(server_side.port()));
    inet_pton(AF_INET, "127.0.0.1", &sa.sin_addr);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)),
              0);
    // A plausible-length header followed by junk that fails the decode.
    std::string junk = "\x10\x00\x00\x00 this is not a message ";
    ASSERT_GT(::send(fd, junk.data(), junk.size(), MSG_NOSIGNAL), 0);
    ::close(fd);
  }
  std::this_thread::sleep_for(50ms);

  // The transport still works for a well-formed client afterwards.
  TcpTransport client_side;
  client_side.AddRoute("srv", "127.0.0.1", server_side.port());
  Message m;
  m.from = "cli/x";
  m.to = "srv/node";
  m.payload = "real";
  ASSERT_TRUE(client_side.Send(m).ok());
  EXPECT_TRUE(latch.WaitFor(2s));
}

// Destroying a transport right after its reactor thread was spawned: the
// shutdown must not wait on a reactor that has not started running yet.
TEST(TcpTransportTest, ShutdownRightAfterListenDoesNotHang) {
  for (int i = 0; i < 200; ++i) {
    TcpTransport t;
    ASSERT_TRUE(t.Listen(0).ok());
  }
}

// A request handler still running on a connection whose peer already hung
// up can touch the transport: Shutdown must wait for it, as it does for a
// handler on a live connection, or the handler outlives the transport.
TEST(TcpTransportTest, ShutdownWaitsForAHandlerOnAClosedConnection) {
  TcpTransport server_side;
  ASSERT_TRUE(server_side.Listen(0).ok());
  CountDownLatch entered(1), release(1);
  ASSERT_TRUE(server_side.Register("srv/node", [&](Message) {
                 entered.CountDown();
                 release.Wait();
               }).ok());
  {
    TcpTransport client_side;
    client_side.AddRoute("srv", "127.0.0.1", server_side.port());
    Message m;
    m.from = "cli/x";
    m.to = "srv/node";
    m.payload = "hold";
    ASSERT_TRUE(client_side.Send(m).ok());
    ASSERT_TRUE(entered.WaitFor(2s));
  }  // The client hangs up, so the server closes the connection.
  std::this_thread::sleep_for(50ms);
  std::atomic<bool> returned{false};
  std::thread stopper([&] {
    server_side.Shutdown();
    returned = true;
  });
  std::this_thread::sleep_for(50ms);
  EXPECT_FALSE(returned.load());
  release.CountDown();
  stopper.join();
  EXPECT_TRUE(returned.load());
}

// A handler that Shutdown is waiting on may still Send to a peer it has no
// connection to yet. The transport must refuse: a connection adopted by a
// stopped reactor would be registered on its closed epoll descriptor (a
// number the process may already have reused) and never be fenced.
TEST(TcpTransportTest, HandlerCannotConnectOnceShutdownHasBegun) {
  TcpTransport peer;
  ASSERT_TRUE(peer.Listen(0).ok());
  std::atomic<int> peer_received{0};
  ASSERT_TRUE(peer.Register("peer/node", [&](Message) {
                 ++peer_received;
               }).ok());

  TcpTransport server_side;
  ASSERT_TRUE(server_side.Listen(0).ok());
  server_side.AddRoute("peer", "127.0.0.1", peer.port());
  CountDownLatch entered(1), release(1);
  Status forwarded;
  ASSERT_TRUE(server_side.Register("srv/node", [&](Message) {
                 entered.CountDown();
                 release.Wait();
                 Message out;
                 out.from = "srv/node";
                 out.to = "peer/node";
                 out.payload = "late";
                 forwarded = server_side.Send(out);
               }).ok());

  TcpTransport client_side;
  client_side.AddRoute("srv", "127.0.0.1", server_side.port());
  Message m;
  m.from = "cli/x";
  m.to = "srv/node";
  m.payload = "hold";
  ASSERT_TRUE(client_side.Send(m).ok());
  ASSERT_TRUE(entered.WaitFor(2s));
  std::thread stopper([&] { server_side.Shutdown(); });
  std::this_thread::sleep_for(50ms);  // Shutdown is now fencing the strand
  release.CountDown();
  stopper.join();
  EXPECT_FALSE(forwarded.ok());
  std::this_thread::sleep_for(100ms);
  EXPECT_EQ(peer_received.load(), 0);
}

TEST(TcpTransportTest, OversizedFrameRejected) {
  TcpTransport server_side;
  ASSERT_TRUE(server_side.Listen(0).ok());
  std::atomic<int> delivered{0};
  ASSERT_TRUE(server_side.Register("srv/node", [&](Message) {
                 ++delivered;
               }).ok());
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(static_cast<uint16_t>(server_side.port()));
  inet_pton(AF_INET, "127.0.0.1", &sa.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)), 0);
  // Claim a 1 GiB frame: connection must be closed, not allocated.
  uint32_t huge = 1u << 30;
  char header[4];
  for (int i = 0; i < 4; ++i) header[i] = static_cast<char>(huge >> (8 * i));
  ASSERT_GT(::send(fd, header, 4, MSG_NOSIGNAL), 0);
  std::this_thread::sleep_for(50ms);
  ::close(fd);
  EXPECT_EQ(delivered.load(), 0);
}

TEST(TcpTransportTest, RpcOverTcpBothDirections) {
  TcpTransport a, b;
  ASSERT_TRUE(a.Listen(0).ok());
  ASSERT_TRUE(b.Listen(0).ok());
  a.AddRoute("b", "127.0.0.1", b.port());
  b.AddRoute("a", "127.0.0.1", a.port());

  RpcEndpoint server(&b, "b/server");
  server.Handle(1, [](const NodeId&, const std::string& p)
                       -> Result<std::string> { return "tcp:" + p; });
  ASSERT_TRUE(server.Start().ok());

  RpcEndpoint client(&a, "a/client");
  ASSERT_TRUE(client.Start().ok());
  auto r = client.Call("b/server", 1, "hi", 2000ms);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, "tcp:hi");
}

}  // namespace
}  // namespace chariots::net
