// Dynamically-typed events: the paper's "loose coupling" future work, as a
// codec-neutral surface.
//
// "Another loss of flexibility is our assumption that the different peers
// must a priori agree on the Java type system ... Figuring out 'loose' ways
// of achieving such common knowledge at run-time (e.g., by representing
// types through XML data structures) is the subject of ongoing
// investigations." (paper §6)
//
// A DynamicEvent is a dynamically-typed event: its TPS type name and its
// fields (string key/value pairs) are data, not compiled code. Two peers
// that agree only on a type NAME and field names — no shared headers — can
// publish and subscribe to each other. How the fields travel is the wire
// codec's business (tps/codec.h): the XML codec serializes to_xml(), the
// binary codec writes a length-prefixed field table. Hierarchies still
// work: a dynamic type declares its parent name at registration, and
// hierarchy dispatch (Fig. 7) applies unchanged.
//
// Storage has two modes, invisible through the accessors:
//   * owned  — a map of owned strings (publish side: set(), from_xml()).
//   * viewed — string_views into a pinned decode buffer (receive side: the
//     binary codec decodes in place, so delivery allocates nothing per
//     field). get()/fields() return views either way; they are valid for
//     the lifetime of the event. set() on a viewed event first copies the
//     views out (copy-on-write), preserving value semantics.
//
// The trade-off is exactly the one the paper discusses: type checks move
// from compile time to run time (a missing field is discovered when read).
#pragma once

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "serial/type_registry.h"
#include "util/bytes.h"
#include "xml/xml.h"

namespace p2p::tps {

class DynamicEvent final : public serial::Event {
 public:
  // One field as (key, value) views; valid while the event is alive.
  using FieldView = std::pair<std::string_view, std::string_view>;

  DynamicEvent() = default;
  explicit DynamicEvent(std::string type_name)
      : type_name_(std::move(type_name)) {}

  [[nodiscard]] std::string_view tps_type_name() const override {
    return type_name_;
  }
  [[nodiscard]] const std::string& type_name() const { return type_name_; }

  DynamicEvent& set(std::string field, std::string value) {
    materialize();
    owned_[std::move(field)] = std::move(value);
    return *this;
  }
  // Returns "" for absent fields — the runtime looseness is the point.
  [[nodiscard]] std::string_view get(std::string_view field) const {
    if (pin_) {
      const auto it = std::lower_bound(
          views_.begin(), views_.end(), field,
          [](const FieldView& f, std::string_view key) { return f.first < key; });
      return it != views_.end() && it->first == field ? it->second
                                                      : std::string_view{};
    }
    const auto it = owned_.find(field);
    return it != owned_.end() ? std::string_view(it->second)
                              : std::string_view{};
  }
  [[nodiscard]] bool has(std::string_view field) const {
    if (pin_) {
      const auto it = std::lower_bound(
          views_.begin(), views_.end(), field,
          [](const FieldView& f, std::string_view key) { return f.first < key; });
      return it != views_.end() && it->first == field;
    }
    return owned_.contains(field);
  }
  // All fields, sorted by key. The views are valid while the event lives.
  [[nodiscard]] std::vector<FieldView> fields() const {
    if (pin_) return views_;
    std::vector<FieldView> out;
    out.reserve(owned_.size());
    for (const auto& [key, value] : owned_) out.emplace_back(key, value);
    return out;
  }
  [[nodiscard]] std::size_t field_count() const {
    return pin_ ? views_.size() : owned_.size();
  }

  // --- XML form (the xml codec's interoperable wire representation) -------
  [[nodiscard]] xml::Element to_xml() const {
    xml::Element root("tps:Event");
    root.set_attr("type", type_name_);
    for (const auto& [key, value] : fields()) {
      root.add_child("Field")
          .set_attr("name", std::string(key))
          .set_text(std::string(value));
    }
    return root;
  }

  static DynamicEvent from_xml(const xml::Element& root) {
    DynamicEvent event(std::string(root.attr("type").value_or("")));
    for (const xml::Element* field : root.children_named("Field")) {
      event.set(std::string(field->attr("name").value_or("")),
                field->text());
    }
    return event;
  }

  // --- decode-in-place (the binary codec's receive path) ------------------
  // Adopts `fields` as views into *pin without copying a byte. The codec
  // guarantees every view points into *pin; the event shares ownership of
  // the buffer, so the views outlive the original wire message. Sorts by
  // key (hostile frames need not be ordered).
  static DynamicEvent with_views(std::string type_name,
                                 std::shared_ptr<const util::Bytes> pin,
                                 std::vector<FieldView> fields) {
    DynamicEvent event(std::move(type_name));
    std::sort(fields.begin(), fields.end());
    event.pin_ = std::move(pin);
    event.views_ = std::move(fields);
    return event;
  }

  friend bool operator==(const DynamicEvent& a, const DynamicEvent& b) {
    return a.type_name_ == b.type_name_ && a.fields() == b.fields();
  }

 private:
  // Copy-on-write: drop view mode before any mutation.
  void materialize() {
    if (!pin_) return;
    for (const auto& [key, value] : views_) {
      owned_.emplace(std::string(key), std::string(value));
    }
    views_.clear();
    pin_.reset();
  }

  std::string type_name_;
  // Owned mode (pin_ == nullptr): the authoritative field map
  // (transparent comparator: get(string_view) looks up without allocating).
  std::map<std::string, std::string, std::less<>> owned_;
  // Viewed mode (pin_ != nullptr): sorted views into *pin_.
  std::shared_ptr<const util::Bytes> pin_;
  std::vector<FieldView> views_;
};

// Registers a dynamic type at runtime (name + optional parent name). The
// parent may itself be a dynamic type or a statically registered one —
// hierarchy dispatch does not care how a type is implemented. Idempotent
// for the same name.
//
// The TypeInfo body this registers IS the xml codec's payload (an XML
// document), kept byte-identical to the pre-codec wire format. The binary
// codec bypasses it entirely and writes the field table directly
// (tps/codec.h).
inline void register_dynamic_event_type(
    const std::string& type_name, const std::string& parent_name = {},
    serial::TypeRegistry& registry = serial::TypeRegistry::global()) {
  if (registry.find(type_name).has_value()) return;
  serial::TypeInfo info;
  info.name = type_name;
  info.parent = parent_name;
  info.cpp_type = std::type_index(typeid(DynamicEvent));
  info.encode = [](const serial::Event& e) {
    const auto& de = dynamic_cast<const DynamicEvent&>(e);
    util::ByteWriter w;
    w.write_string(xml::write(de.to_xml()));
    return w.take();
  };
  info.decode = [](util::ByteReader& r) -> serial::EventPtr {
    const std::string text = r.read_string();
    // Honor the caller's trust-boundary caps: the reader's max_depth is
    // TpsConfig::decode_max_xml_depth when decoding received events.
    const xml::ParseLimits limits{.max_depth = r.limits().max_depth,
                                  .max_input = r.limits().max_length};
    return std::make_shared<const DynamicEvent>(
        DynamicEvent::from_xml(xml::parse(text, limits)));
  };
  registry.register_dynamic(std::move(info));
}

}  // namespace p2p::tps
