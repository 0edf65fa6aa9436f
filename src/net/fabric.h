// NetworkFabric: an in-process simulated WAN.
//
// The paper's testbed was a LAN of Sun workstations running an unreliable
// JXTA 1.0. We substitute an in-process fabric that models the properties
// the JXTA protocols exist to cope with:
//   - per-link latency and jitter          (WAN distance)
//   - probabilistic loss                   (JXTA 1.0 was "not reliable")
//   - partitions                           (peers joining/leaving)
//   - stateful firewalls                   (what makes ERP relaying needed)
//   - address re-assignment                (what makes PBP re-binding needed)
//
// Nodes register by name; InProcTransport (inproc_transport.h) bridges the
// fabric to the Transport interface. Delivery deadlines ride an injected
// util::TimerQueue (the process-wide shared queue by default) — the
// fabric owns no thread of its own. Handing it a kSimulated queue puts every
// in-flight datagram on virtual time, which is how the scenario driver
// (src/sim/) replays a WAN deterministically. The timer queue fires equal
// deadlines in schedule order, which preserves the fabric's per-instant FIFO
// guarantee (tests rely on it).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "net/transport.h"
#include "util/random.h"
#include "util/thread_annotations.h"
#include "util/timer_queue.h"

namespace p2p::net {

// Properties of a directed link.
struct LinkSpec {
  // Fixed one-way delay in milliseconds.
  std::int64_t latency_ms = 0;
  // Uniform extra delay in [0, jitter_ms].
  std::int64_t jitter_ms = 0;
  // Probability in [0,1] that a datagram silently disappears.
  double loss = 0.0;
};

struct FabricStats {
  std::uint64_t submitted = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped_loss = 0;       // random loss
  std::uint64_t dropped_unknown = 0;    // destination not registered
  std::uint64_t dropped_partition = 0;  // partition or firewall
  std::uint64_t bytes_delivered = 0;
};

class NetworkFabric {
 public:
  // seed drives loss/jitter decisions; a fixed seed makes a run repeatable.
  // `timers` carries the delivery deadlines (null => the shared queue);
  // it must outlive the fabric.
  explicit NetworkFabric(std::uint64_t seed = 42,
                         util::TimerQueue* timers = nullptr);
  ~NetworkFabric();

  NetworkFabric(const NetworkFabric&) = delete;
  NetworkFabric& operator=(const NetworkFabric&) = delete;

  // --- topology -------------------------------------------------------
  // Registers a node; datagrams addressed to `name` go to `handler`.
  // Re-attaching an existing name replaces the handler (models a peer
  // coming back up at a new "location" with the same transport name).
  void attach(const std::string& name, DatagramHandler handler)
      EXCLUDES(mu_);

  // Removes the node; in-flight datagrams to it are dropped on delivery.
  // Quiescent: if the node's handler is being invoked right now (on the
  // timer thread), detach() returns only after that call finishes, so the
  // caller may destroy the receiver behind the handler. Calling detach
  // from inside the node's own handler skips the wait instead of
  // self-deadlocking.
  void detach(const std::string& name) EXCLUDES(mu_);

  // Renames a node, keeping its handler. Old in-flight traffic to the old
  // name is dropped — exactly the situation PBP re-binding repairs.
  // Returns false if old_name is unknown or new_name is taken.
  bool rename(const std::string& old_name, const std::string& new_name)
      EXCLUDES(mu_);

  // --- link shaping ----------------------------------------------------
  // Default applied when no per-pair spec exists.
  void set_default_link(LinkSpec spec) EXCLUDES(mu_);
  // Directed per-pair override.
  void set_link(const std::string& from, const std::string& to,
                LinkSpec spec) EXCLUDES(mu_);

  // --- faults ----------------------------------------------------------
  // Cuts traffic in both directions between the two nodes.
  void partition(const std::string& a, const std::string& b) EXCLUDES(mu_);
  void heal(const std::string& a, const std::string& b) EXCLUDES(mu_);

  // Marks a node as behind a stateful firewall: inbound datagrams are
  // dropped unless the firewalled node has previously sent to that source
  // (an "outbound hole", as with NAT/HTTP polling in JXTA).
  void set_firewalled(const std::string& name, bool firewalled)
      EXCLUDES(mu_);

  // --- traffic -----------------------------------------------------------
  // Submits a datagram for delivery. Returns false only if the destination
  // is structurally unreachable right now (unknown / partitioned /
  // firewall-blocked); random loss still returns true, like UDP.
  bool submit(Datagram d) EXCLUDES(mu_);

  // LAN-multicast model: delivers the payload to every attached node except
  // the source, honouring partitions, firewalls and per-link loss/latency.
  // Firewalled nodes never receive broadcasts (multicast does not traverse
  // firewalls) — they must reach the network through a rendezvous instead.
  void broadcast(const Address& src, const util::Bytes& payload)
      EXCLUDES(mu_);

  [[nodiscard]] FabricStats stats() const EXCLUDES(mu_);

  // Blocks until every submitted datagram has been delivered or dropped.
  // Useful in tests; do not call from a delivery handler.
  void drain() EXCLUDES(mu_);

 private:
  [[nodiscard]] LinkSpec link_for(const std::string& from,
                                  const std::string& to) const REQUIRES(mu_);
  [[nodiscard]] static std::string pair_key(const std::string& a,
                                            const std::string& b);
  // Timer callback: hand `d` to its destination's handler (or count the
  // drop if the node detached in flight). `id` self-identifies the timer
  // so it can be retired from timers_.
  void deliver(const std::shared_ptr<util::TimerId>& id, Datagram d)
      EXCLUDES(mu_);

  util::TimerQueue& timers_queue_;
  mutable util::Mutex mu_{"fabric"};
  util::CondVar cv_;
  std::unordered_map<std::string, DatagramHandler> nodes_ GUARDED_BY(mu_);
  // Nodes whose handler is executing right now (outside mu_), and on which
  // thread — detach() waits on this so a handler never outlives its node.
  struct InFlightCall {
    int count = 0;
    std::thread::id thread;
  };
  std::unordered_map<std::string, InFlightCall> delivering_ GUARDED_BY(mu_);
  // "from|to" -> spec
  std::unordered_map<std::string, LinkSpec> links_ GUARDED_BY(mu_);
  LinkSpec default_link_ GUARDED_BY(mu_);
  // unordered pair keys
  std::unordered_set<std::string> partitions_ GUARDED_BY(mu_);
  std::unordered_set<std::string> firewalled_ GUARDED_BY(mu_);
  // firewall holes: "inside|outside" present => outside may send to inside
  std::unordered_set<std::string> holes_ GUARDED_BY(mu_);
  // Ids of in-flight delivery timers; the destructor cancels each with
  // TimerQueue's quiescence guarantee, so no handler runs past ~NetworkFabric.
  std::unordered_set<util::TimerId> timers_ GUARDED_BY(mu_);
  util::Rng rng_ GUARDED_BY(mu_);
  FabricStats stats_ GUARDED_BY(mu_);
  std::uint64_t in_flight_ GUARDED_BY(mu_) = 0;
  bool stopped_ GUARDED_BY(mu_) = false;
};

}  // namespace p2p::net
