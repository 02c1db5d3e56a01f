// Tests for the message/RPC substrate: in-process transport (latency,
// bandwidth, partitions), RPC request/response, and the TCP transport.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/executor.h"
#include "common/latch.h"
#include "common/metrics.h"
#include "net/inproc_transport.h"
#include "net/message.h"
#include "net/rpc.h"
#include "net/tcp_transport.h"

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
  RpcEndpoint server(&transport_, "server");
  std::mutex mu;
  std::vector<std::pair<int64_t, RpcEndpoint::Reply>> due;
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

  constexpr int kCalls = 200;
  std::vector<std::atomic<int>> completions(kCalls);
  std::atomic<int> ok{0}, timed_out{0};
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
