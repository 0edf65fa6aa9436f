// PeerInfoService: the Peer Information Protocol (PIP).
//
// "The PIP is used to know the status of a peer. This protocol is
// responsible for finding and dispatching information about a peer, like
// the time the peer was up, the different incoming and outgoing channels,
// the traffic on them, and the different target and source IDs."
// (paper §2.2, Fig. 3)
#pragma once

#include <map>

#include "jxta/endpoint.h"
#include "jxta/resolver.h"
#include "util/clock.h"
#include "util/thread_annotations.h"
#include "util/timer_queue.h"

namespace p2p::jxta {

struct PeerInfo {
  PeerId peer;
  std::string name;
  std::int64_t uptime_ms = 0;
  EndpointTraffic traffic;

  [[nodiscard]] util::Bytes serialize() const;
  static PeerInfo deserialize(std::span<const std::uint8_t> data);
};

class PeerInfoService final
    : public ResolverHandler,
      public std::enable_shared_from_this<PeerInfoService> {
 public:
  static constexpr std::string_view kHandlerName = "jxta.peerinfo";

  // `timers` (the owning peer's queue) carries the survey collection
  // windows.
  PeerInfoService(ResolverService& resolver, EndpointService& endpoint,
                  util::Clock& clock, std::string peer_name,
                  util::TimerQueue& timers);

  void start() EXCLUDES(mu_);
  void stop() EXCLUDES(mu_);

  // This peer's own live status.
  [[nodiscard]] PeerInfo local_info() const;

  // Blocking convenience: queries `peer` and waits for its answer.
  // Returns nullopt on timeout. Must not be called on the peer executor.
  std::optional<PeerInfo> query(const PeerId& peer, util::Duration timeout)
      EXCLUDES(mu_);

  // Group-wide status sweep: propagates a PIP query and collects every
  // answer that arrives within the window (the substrate the paper's
  // "monitoring service" builds on). The window rides the shared
  // util::TimerQueue; `done` fires on the timer thread with whatever
  // answers landed. Safe to call from anywhere, including the executor.
  using SurveyCallback = std::function<void(std::vector<PeerInfo>)>;
  void survey_async(util::Duration window, SurveyCallback done);

  // Blocking wrapper around survey_async. Not for the peer executor.
  std::vector<PeerInfo> survey(util::Duration window) EXCLUDES(mu_);

  // --- ResolverHandler -----------------------------------------------------
  std::optional<util::Bytes> process_query(const ResolverQuery& q) override;
  void process_response(const ResolverResponse& r) override;

 private:
  // How long an unharvested answer bucket may linger. Late stragglers —
  // answers that arrive after their survey window closed or their query()
  // timed out — recreate a bucket nobody will ever collect; a shared-
  // TimerQueue GC timer reclaims it.
  static constexpr util::Duration kAnswerTtl = std::chrono::seconds(30);

  ResolverService& resolver_;
  EndpointService& endpoint_;
  util::Clock& clock_;
  util::TimerQueue& timers_;
  const std::string peer_name_;
  const util::TimePoint started_at_;

  util::Mutex mu_{"peer-info"};
  util::CondVar cv_;
  bool started_ GUARDED_BY(mu_) = false;
  // Responses per query id (directed queries expect one; surveys collect
  // many). Keyed to tolerate concurrent callers.
  std::map<util::Uuid, std::vector<PeerInfo>> answers_ GUARDED_BY(mu_);
};

}  // namespace p2p::jxta
