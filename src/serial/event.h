// The root of all application-defined event types.
//
// The paper's TPS relies on the peers sharing "the common Java type model":
// events are Serializable Java objects whose runtime class drives dispatch
// (Fig. 7: an event of type D is delivered to subscribers of D and of every
// supertype of D). C++ has no reflection, so we reconstruct exactly the
// runtime machinery TPS needs:
//
//   * Event        — polymorphic root; RTTI identifies the dynamic type of a
//                    published object (the paper's `instanceof` / class).
//   * EventTraits  — per-type codec + declared parent (serial/traits.h); the
//                    stand-in for Java serialization.
//   * TypeRegistry — the runtime subtype lattice (serial/type_registry.h);
//                    the stand-in for Class.getSuperclass().
#pragma once

#include <memory>
#include <string_view>

namespace p2p::serial {

class Event {
 public:
  virtual ~Event() = default;

  // For statically-typed events (the normal case) the registry identifies
  // the type via RTTI and this returns empty. Dynamically-typed events
  // (tps/event.h's DynamicEvent — the paper's "representing types through
  // XML data structures" future work) override it to carry their TPS type
  // name at runtime, since many logical types share one C++ class.
  [[nodiscard]] virtual std::string_view tps_type_name() const { return {}; }

  // Stateless base compares equal, so derived event types can simply
  // `= default` their operator==.
  friend bool operator==(const Event&, const Event&) { return true; }

 protected:
  Event() = default;
  Event(const Event&) = default;
  Event& operator=(const Event&) = default;
};

using EventPtr = std::shared_ptr<const Event>;

}  // namespace p2p::serial
