// Message Futures (paper §4.3): strongly consistent (serializable)
// transactions on the causally ordered replicated log — no Paxos round,
// the log itself is the agreement. Demonstrates a cross-datacenter bank:
// non-conflicting transfers commit on both sides; a write-write race on
// the same account aborts exactly one side; balances stay consistent.
//
//   ./build/examples/geo_transactions

#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "apps/msgfutures.h"
#include "chariots/fabric.h"
#include "net/inproc_transport.h"

using namespace chariots;
using namespace chariots::geo;
using namespace chariots::apps;

int main() {
  net::InProcTransport transport;
  net::LinkOptions wan;
  wan.latency_nanos = 5'000'000;  // 5 ms between datacenters
  transport.SetLink("geo/", "geo/", wan);
  TransportFabric fabric(&transport);

  std::vector<std::unique_ptr<Datacenter>> dcs;
  for (uint32_t d = 0; d < 2; ++d) {
    ChariotsConfig config;
    config.dc_id = d;
    config.num_datacenters = 2;
    dcs.push_back(std::make_unique<Datacenter>(config, &fabric));
    if (!dcs.back()->Start().ok()) return 1;
  }
  MessageFutures us_east(dcs[0].get());
  MessageFutures eu_west(dcs[1].get());
  us_east.StartBackground();
  eu_west.StartBackground();

  // Seed the accounts from one side.
  {
    auto txn = us_east.Begin();
    txn.Put("alice", "100");
    txn.Put("bob", "100");
    auto outcome = us_east.Commit(txn);
    std::printf("seed txn: %s\n",
                outcome.ok() && *outcome == TxnOutcome::kCommitted
                    ? "committed"
                    : "failed");
  }
  // Wait until the EU replica has applied the seed.
  while (!eu_west.Get("alice").ok()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Concurrent CONFLICTING transactions: both sides move alice's money.
  auto t_us = us_east.Begin();
  (void)t_us.Get("alice");
  t_us.Put("alice", "90");
  t_us.Put("bob", "110");

  auto t_eu = eu_west.Begin();
  (void)t_eu.Get("alice");
  t_eu.Put("alice", "50");
  t_eu.Put("bob", "150");

  Result<TxnOutcome> o_us(Status::Internal("pending"));
  Result<TxnOutcome> o_eu(Status::Internal("pending"));
  std::thread c1([&] { o_us = us_east.Commit(t_us); });
  std::thread c2([&] { o_eu = eu_west.Commit(t_eu); });
  c1.join();
  c2.join();
  auto show = [](const char* who, const Result<TxnOutcome>& o) {
    std::printf("%s: %s\n", who,
                !o.ok() ? o.status().ToString().c_str()
                : *o == TxnOutcome::kCommitted ? "COMMITTED"
                                               : "aborted (conflict)");
  };
  show("us-east transfer", o_us);
  show("eu-west transfer", o_eu);

  // Both replicas converge to the winner's state; money is conserved.
  std::string a0, b0, a1, b1;
  for (int i = 0; i < 5000; ++i) {
    auto ra0 = us_east.Get("alice");
    auto rb0 = us_east.Get("bob");
    auto ra1 = eu_west.Get("alice");
    auto rb1 = eu_west.Get("bob");
    if (ra0.ok() && rb0.ok() && ra1.ok() && rb1.ok() && *ra0 == *ra1 &&
        *rb0 == *rb1) {
      a0 = *ra0;
      b0 = *rb0;
      a1 = *ra1;
      b1 = *rb1;
      if (std::stoi(a0) + std::stoi(b0) == 200) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::printf("final balances (identical at both replicas): alice=%s "
              "bob=%s  (sum %d)\n",
              a0.c_str(), b0.c_str(), std::stoi(a0) + std::stoi(b0));
  std::printf("stats: us-east committed=%llu aborted=%llu | eu-west "
              "committed=%llu aborted=%llu\n",
              static_cast<unsigned long long>(us_east.committed()),
              static_cast<unsigned long long>(us_east.aborted()),
              static_cast<unsigned long long>(eu_west.committed()),
              static_cast<unsigned long long>(eu_west.aborted()));

  for (auto& dc : dcs) dc->Stop();
  return 0;
}
