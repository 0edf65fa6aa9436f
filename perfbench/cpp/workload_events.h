// Seeded event generators with field-by-field checks, one per event shape.
// The benchmark's oracle recomputes what was published from the sequence
// number a delivered event carries and compares every field, without
// allocating on the subscriber's thread.
#pragma once

#include <charconv>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "events/ski_rental.h"
#include "tps/event.h"
#include "util/random.h"

namespace perfbench {

// Distinct seeded paddings; event `seq` uses pad seq % kPads.
inline std::vector<std::string> make_pads(std::uint64_t seed,
                                          std::size_t bytes) {
  constexpr std::size_t kPads = 16;
  p2p::util::Rng rng(seed);
  std::vector<std::string> pads(kPads, std::string(bytes, ' '));
  for (auto& pad : pads) {
    for (char& c : pad) c = static_cast<char>('a' + rng.next_below(26));
  }
  return pads;
}

// Reads the decimal number at the front of `s` up to `end_char`.
inline bool parse_seq(std::string_view s, char end_char, std::uint64_t* seq,
                      std::size_t* consumed) {
  const auto r = std::from_chars(s.data(), s.data() + s.size(), *seq);
  if (r.ec != std::errc() || r.ptr == s.data() + s.size() ||
      *r.ptr != end_char) {
    return false;
  }
  *consumed = static_cast<std::size_t>(r.ptr - s.data()) + 1;
  return true;
}

// paper_sync's events: static SkiRental whose EventTraits encoding is 1910
// bytes (the paper's message size). The shop name carries "S<seq>-".
class SkiEvents {
 public:
  static constexpr std::size_t kShopBytes = 1886;  // + brand, 2 x f64 = 1910

  explicit SkiEvents(std::uint64_t seed) : pads_(make_pads(seed, kShopBytes)) {}

  [[nodiscard]] p2p::events::SkiRental make(std::uint64_t seq) const {
    std::string shop(1, 'S');
    shop += std::to_string(seq);
    shop += '-';
    shop += std::string_view(pad(seq)).substr(shop.size());
    return {std::move(shop), price(seq), brand(seq), days(seq)};
  }

  // True iff `e` is exactly the event published as *seq.
  bool check(const p2p::events::SkiRental& e, std::uint64_t* seq) const {
    const std::string_view shop = e.shop();
    std::size_t prefix = 0;
    if (shop.size() != kShopBytes || shop.front() != 'S' ||
        !parse_seq(shop.substr(1), '-', seq, &prefix)) {
      return false;
    }
    ++prefix;  // the leading 'S'
    return shop.substr(prefix) == std::string_view(pad(*seq)).substr(prefix) &&
           e.price() == price(*seq) && e.brand() == brand(*seq) &&
           e.number_of_days() == days(*seq);
  }

 private:
  const std::string& pad(std::uint64_t seq) const {
    return pads_[seq % pads_.size()];
  }
  static float price(std::uint64_t seq) {
    return static_cast<float>(seq % 997) + 0.5f;
  }
  static const char* brand(std::uint64_t seq) {
    static constexpr const char* kBrands[] = {"Rossi", "Atomic", "Head",
                                              "Salom"};
    return kBrands[seq % 4];
  }
  static float days(std::uint64_t seq) {
    return static_cast<float>(seq % 30 + 1);
  }

  std::vector<std::string> pads_;
};

// tcp_flood's events: dynamic "FloodQuote" events with a seeded body, the
// sequence number and the publisher's index as fields. Sequences go out in
// bursts of `burst`, round-robin over `publishers`.
class DynEvents {
 public:
  static constexpr const char* kType = "FloodQuote";
  static constexpr std::size_t kBodyBytes = 1800;

  DynEvents(std::uint64_t seed, std::uint64_t burst, std::uint64_t publishers)
      : pads_(make_pads(seed, kBodyBytes)),
        burst_(burst),
        publishers_(publishers) {}

  [[nodiscard]] std::uint64_t publisher(std::uint64_t seq) const {
    return seq / burst_ % publishers_;
  }

  [[nodiscard]] p2p::tps::DynamicEvent make(std::uint64_t seq) const {
    p2p::tps::DynamicEvent e(kType);
    e.set("seq", std::to_string(seq))
        .set("pub", std::to_string(publisher(seq)))
        .set("price", std::to_string(seq % 10007))
        .set("body", pad(seq));
    return e;
  }

  bool check(const p2p::tps::DynamicEvent& e, std::uint64_t* seq) const {
    std::uint64_t price = 0;
    std::uint64_t pub = 0;
    return whole_number(e.get("seq"), seq) &&
           whole_number(e.get("price"), &price) &&
           whole_number(e.get("pub"), &pub) && price == *seq % 10007 &&
           pub == publisher(*seq) && e.get("body") == pad(*seq) &&
           e.field_count() == 4;
  }

 private:
  static bool whole_number(std::string_view text, std::uint64_t* out) {
    const auto r = std::from_chars(text.data(), text.data() + text.size(), *out);
    return r.ec == std::errc() && r.ptr == text.data() + text.size();
  }
  const std::string& pad(std::uint64_t seq) const {
    return pads_[seq % pads_.size()];
  }

  std::vector<std::string> pads_;
  std::uint64_t burst_;
  std::uint64_t publishers_;
};

}  // namespace perfbench
