// Hyksos (paper §4.1): a causally consistent geo-replicated key-value
// store built on the Chariots log, reenacting the paper's Figure 2
// scenario: concurrent puts at two datacenters, gets at both, and a get
// transaction returning a consistent snapshot.
//
//   ./build/examples/hyksos_kv

#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>

#include "apps/hyksos.h"
#include "chariots/fabric.h"
#include "net/inproc_transport.h"

using namespace chariots;
using namespace chariots::geo;
using namespace chariots::apps;

int main() {
  // Two datacenters, A and B, 10 ms apart.
  net::InProcTransport transport;
  net::LinkOptions wan;
  wan.latency_nanos = 10'000'000;
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
  Hyksos at_a(dcs[0].get());
  Hyksos at_b(dcs[1].get());

  // Time 1 (Figure 2): concurrent writers at both datacenters.
  at_a.Put("x", "30");  // A writes x=30 ...
  at_b.Put("x", "10");  // ... while B concurrently writes x=10
  at_a.Put("y", "20");
  at_b.Put("z", "40");
  std::printf("[t1] concurrent puts done (x written at both sides)\n");

  // Local gets answer immediately from the local log — the two sides may
  // legitimately disagree about concurrent writes to x (no causal relation
  // between them).
  std::printf("[t1] Get(x) at A = %s, at B = %s  (divergence permitted "
              "for concurrent writes)\n",
              at_a.Get("x").value_or("?").c_str(),
              at_b.Get("x").value_or("?").c_str());

  // Let replication converge, then take a consistent snapshot at A.
  for (uint32_t d = 0; d < 2; ++d) {
    dcs[0]->WaitForToid(d, dcs[d]->max_local_toid(), 5'000'000'000);
    dcs[1]->WaitForToid(d, dcs[d]->max_local_toid(), 5'000'000'000);
  }
  auto snapshot = at_a.GetTxn({"x", "y", "z"});
  if (snapshot.ok()) {
    std::printf("[t2] GetTxn(x,y,z) at A: x=%s y=%s z=%s (one consistent "
                "log position)\n",
                (*snapshot)["x"].c_str(), (*snapshot)["y"].c_str(),
                (*snapshot)["z"].c_str());
  }

  // Time 2: a causally ordered update. B reads y (written at A) and then
  // overwrites it — everyone must order the new value after the old one.
  auto y_at_b = at_b.Get("y");
  std::printf("[t2] B reads y=%s then writes y=50 (causal chain)\n",
              y_at_b.value_or("?").c_str());
  at_b.Put("y", "50");
  dcs[0]->WaitForToid(1, dcs[1]->max_local_toid(), 5'000'000'000);
  std::printf("[t3] Get(y) at A = %s (B's dependent write arrived after "
              "its dependency)\n",
              at_a.Get("y").value_or("?").c_str());

  for (auto& dc : dcs) dc->Stop();
  std::printf("hyksos example done\n");
  return 0;
}
