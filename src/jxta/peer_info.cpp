#include "jxta/peer_info.h"

namespace p2p::jxta {

util::Bytes PeerInfo::serialize() const {
  util::ByteWriter w;
  w.write_u64(peer.uuid().hi());
  w.write_u64(peer.uuid().lo());
  w.write_string(name);
  w.write_i64(uptime_ms);
  w.write_varint(traffic.msgs_sent);
  w.write_varint(traffic.msgs_received);
  w.write_varint(traffic.msgs_relayed);
  w.write_varint(traffic.bytes_sent);
  w.write_varint(traffic.bytes_received);
  w.write_varint(traffic.send_failures);
  return w.take();
}

PeerInfo PeerInfo::deserialize(std::span<const std::uint8_t> data) {
  util::ByteReader r(data);
  PeerInfo info;
  info.peer = PeerId{util::Uuid{r.read_u64(), r.read_u64()}};
  info.name = r.read_string();
  info.uptime_ms = r.read_i64();
  info.traffic.msgs_sent = r.read_varint();
  info.traffic.msgs_received = r.read_varint();
  info.traffic.msgs_relayed = r.read_varint();
  info.traffic.bytes_sent = r.read_varint();
  info.traffic.bytes_received = r.read_varint();
  info.traffic.send_failures = r.read_varint();
  return info;
}

PeerInfoService::PeerInfoService(ResolverService& resolver,
                                 EndpointService& endpoint,
                                 util::Clock& clock, std::string peer_name,
                                 util::TimerQueue& timers)
    : resolver_(resolver),
      endpoint_(endpoint),
      clock_(clock),
      timers_(timers),
      peer_name_(std::move(peer_name)),
      started_at_(clock.now()) {}

void PeerInfoService::start() {
  {
    const util::MutexLock lock(mu_);
    if (started_) return;
    started_ = true;
  }
  resolver_.register_handler(std::string(kHandlerName), weak_from_this());
}

void PeerInfoService::stop() {
  {
    const util::MutexLock lock(mu_);
    if (!started_) return;
    started_ = false;
  }
  resolver_.unregister_handler(std::string(kHandlerName));
}

PeerInfo PeerInfoService::local_info() const {
  PeerInfo info;
  info.peer = endpoint_.local_peer();
  info.name = peer_name_;
  info.uptime_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                       clock_.now() - started_at_)
                       .count();
  info.traffic = endpoint_.traffic();
  return info;
}

std::optional<PeerInfo> PeerInfoService::query(const PeerId& peer,
                                               util::Duration timeout) {
  if (peer == endpoint_.local_peer()) return local_info();
  const util::Uuid query_id =
      resolver_.send_query(std::string(kHandlerName), {}, peer);
  const util::MutexLock lock(mu_);
  const util::TimePoint deadline = util::SystemClock::instance().now() + timeout;
  auto have_answer = [this, &query_id]() REQUIRES(mu_) {
    const auto it = answers_.find(query_id);
    return it != answers_.end() && !it->second.empty();
  };
  while (!have_answer()) {
    if (cv_.wait_until(mu_, deadline) == std::cv_status::timeout) break;
  }
  if (!have_answer()) {
    answers_.erase(query_id);
    return std::nullopt;
  }
  PeerInfo info = answers_.at(query_id).front();
  answers_.erase(query_id);
  return info;
}

void PeerInfoService::survey_async(util::Duration window,
                                   SurveyCallback done) {
  const util::Uuid query_id =
      resolver_.send_query(std::string(kHandlerName), {});
  // The collect window is a deadline on the shared timer queue, not a
  // parked thread; answers accumulate in answers_[query_id] until it fires.
  timers_.schedule_after(
      window,
      [weak = weak_from_this(), query_id, done = std::move(done)] {
        std::vector<PeerInfo> out;
        if (const auto self = weak.lock()) {
          const util::MutexLock lock(self->mu_);
          const auto it = self->answers_.find(query_id);
          if (it != self->answers_.end()) {
            out = std::move(it->second);
            self->answers_.erase(it);
          }
        }
        done(std::move(out));
      });
}

std::vector<PeerInfo> PeerInfoService::survey(util::Duration window) {
  struct Wait {
    util::Mutex mu{"survey-wait"};
    util::CondVar cv;
    bool done GUARDED_BY(mu) = false;
    std::vector<PeerInfo> results GUARDED_BY(mu);
  };
  const auto wait = std::make_shared<Wait>();
  survey_async(window, [wait](std::vector<PeerInfo> infos) {
    {
      const util::MutexLock lock(wait->mu);
      wait->results = std::move(infos);
      wait->done = true;
    }
    wait->cv.notify_all();
  });
  const util::MutexLock lock(wait->mu);
  while (!wait->done) wait->cv.wait(wait->mu);
  return std::move(wait->results);
}

std::optional<util::Bytes> PeerInfoService::process_query(
    const ResolverQuery& /*q*/) {
  return local_info().serialize();
}

void PeerInfoService::process_response(const ResolverResponse& r) {
  PeerInfo info = PeerInfo::deserialize(r.payload);
  bool fresh_bucket = false;
  {
    const util::MutexLock lock(mu_);
    fresh_bucket = !answers_.contains(r.query_id);
    answers_[r.query_id].push_back(std::move(info));
  }
  if (fresh_bucket) {
    // Arm a GC deadline for the bucket in case its query is never (or no
    // longer) being collected.
    timers_.schedule_after(
        kAnswerTtl, [weak = weak_from_this(), id = r.query_id] {
          if (const auto self = weak.lock()) {
            const util::MutexLock lock(self->mu_);
            self->answers_.erase(id);
          }
        });
  }
  cv_.notify_all();
}

}  // namespace p2p::jxta
