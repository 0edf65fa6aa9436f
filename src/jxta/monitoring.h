// MonitoringService: periodic group-wide status collection.
//
// The paper names the monitoring service among the best-known JXTA
// services (§2). This one periodically surveys the group through PIP,
// keeps the latest status per peer, ages out peers that stop answering,
// and notifies listeners when peers appear or disappear.
#pragma once

#include <functional>

#include "jxta/peer_info.h"
#include "util/executor.h"
#include "util/thread_annotations.h"

namespace p2p::jxta {

struct MonitoringConfig {
  // How often to sweep the group.
  util::Duration period{2000};
  // How long each sweep collects answers.
  util::Duration window{500};
  // A peer unseen for this long is considered gone.
  util::Duration liveness_timeout{10'000};
};

class MonitoringService {
 public:
  struct PeerStatus {
    PeerInfo info;
    util::TimePoint last_seen{};
  };
  // (peer, alive?) — fired where the peer's TimerQueue runs (or on the
  // sweep() caller) when a peer is first seen (alive=true) or ages out
  // (alive=false).
  using LivenessListener = std::function<void(const PeerInfo&, bool alive)>;

  MonitoringService(PeerInfoService& pip, util::PeriodicTimer& timer,
                    util::Clock& clock, MonitoringConfig config = {});
  ~MonitoringService();

  MonitoringService(const MonitoringService&) = delete;
  MonitoringService& operator=(const MonitoringService&) = delete;

  void start() EXCLUDES(mu_);
  // Cancels the periodic sweep and waits out any in-flight async survey,
  // so the service may be destroyed after stop() returns. Idempotent.
  void stop() EXCLUDES(mu_);

  // One sweep, synchronously. The periodic timer instead drives the async
  // form: it kicks off a PIP survey whose collect window is a timer of its
  // own, so the peer's TimerQueue, which fires the sweep, is never parked
  // for `config.window`.
  void sweep() EXCLUDES(mu_);

  void set_liveness_listener(LivenessListener listener) EXCLUDES(mu_);

  // Latest known status of every live peer (excluding aged-out ones).
  [[nodiscard]] std::vector<PeerStatus> statuses() const EXCLUDES(mu_);
  [[nodiscard]] std::optional<PeerStatus> status_of(const PeerId& id) const
      EXCLUDES(mu_);
  [[nodiscard]] std::size_t live_peer_count() const EXCLUDES(mu_);

 private:
  // Timer-driven sweep: surveys without blocking the timer queue.
  void sweep_async() EXCLUDES(mu_);
  // Folds one survey's results into statuses_ and fires liveness events.
  void apply(const std::vector<PeerInfo>& infos) EXCLUDES(mu_);

  PeerInfoService& pip_;
  util::PeriodicTimer& timer_;
  util::Clock& clock_;
  const MonitoringConfig config_;

  mutable util::Mutex mu_{"monitoring"};
  util::CondVar cv_;
  bool started_ GUARDED_BY(mu_) = false;
  std::uint64_t timer_handle_ GUARDED_BY(mu_) = 0;
  // Async surveys in flight; stop() waits for zero before returning.
  int pending_surveys_ GUARDED_BY(mu_) = 0;
  std::map<PeerId, PeerStatus> statuses_ GUARDED_BY(mu_);
  LivenessListener listener_ GUARDED_BY(mu_);
};

}  // namespace p2p::jxta
