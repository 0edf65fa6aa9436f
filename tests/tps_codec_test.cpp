// The wire codec seam (DESIGN.md "The wire codec"): DynamicEvent's two
// storage modes, the xml/binary codec pair, per-channel negotiation, and
// the interop matrix across mixed-version groups.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>

#include "events/ski_rental.h"
#include "support/test_net.h"
#include "support/timing.h"
#include "tps/advertisements.h"
#include "tps/dynamic.h"
#include "tps/encode_cache.h"
#include "tps/tps.h"

namespace p2p::tps {
namespace {

using events::SkiRental;
using p2p::testing::TestNet;
using p2p::testing::wait_until;
using util::Bytes;
using util::DecodeError;
using util::DecodeLimits;

TpsConfig fast_config() {
  TpsConfig config;
  config.adv_search_timeout = std::chrono::milliseconds(300);
  config.finder_period = std::chrono::milliseconds(150);
  return config;
}

std::shared_ptr<const Bytes> buffer_of(Bytes bytes) {
  return std::make_shared<const Bytes>(std::move(bytes));
}

// --- DynamicEvent: owned mode, view mode, copy-on-write ----------------------

TEST(DynamicEventTest, OwnedModeSetGetHasFields) {
  DynamicEvent e("Quote");
  e.set("sym", "A").set("px", "9");
  EXPECT_EQ(e.type_name(), "Quote");
  EXPECT_EQ(e.get("sym"), "A");
  EXPECT_EQ(e.get("px"), "9");
  EXPECT_TRUE(e.has("sym"));
  EXPECT_FALSE(e.has("vol"));
  EXPECT_EQ(e.get("vol"), "");  // runtime looseness: absent reads as ""
  const auto fields = e.fields();
  ASSERT_EQ(fields.size(), 2u);
  EXPECT_EQ(fields[0].first, "px");  // sorted by key
  EXPECT_EQ(fields[1].first, "sym");
}

TEST(DynamicEventTest, ViewModePinsDecodeBufferForEventLifetime) {
  serial::TypeRegistry registry;
  register_dynamic_event_type("Quote", {}, registry);
  DynamicEvent original("Quote");
  original.set("sym", "ABC").set("px", "123.45");

  auto payload = buffer_of(binary_codec().encode(registry, original));
  CodecResult decoded = binary_codec().decode(registry, payload, {});
  ASSERT_TRUE(decoded.ok());
  // Drop every external reference to the wire buffer: the event's pin must
  // keep the bytes its views point into alive.
  payload.reset();
  const auto* view = dynamic_cast<const DynamicEvent*>(decoded.event.get());
  ASSERT_NE(view, nullptr);
  EXPECT_EQ(view->get("sym"), "ABC");
  EXPECT_EQ(view->get("px"), "123.45");
  EXPECT_EQ(view->field_count(), 2u);
  EXPECT_EQ(*view, original);  // equality is mode-blind
}

TEST(DynamicEventTest, SetOnViewedEventCopiesOnWrite) {
  serial::TypeRegistry registry;
  register_dynamic_event_type("Quote", {}, registry);
  DynamicEvent original("Quote");
  original.set("sym", "A");
  const auto payload = buffer_of(binary_codec().encode(registry, original));
  const CodecResult decoded = binary_codec().decode(registry, payload, {});
  ASSERT_TRUE(decoded.ok());

  DynamicEvent copy =
      *dynamic_cast<const DynamicEvent*>(decoded.event.get());
  copy.set("px", "9");  // materializes: views copied out, then mutated
  EXPECT_EQ(copy.get("sym"), "A");
  EXPECT_EQ(copy.get("px"), "9");
  EXPECT_EQ(copy.field_count(), 2u);
  // The immutable delivered instance is untouched.
  const auto* view = dynamic_cast<const DynamicEvent*>(decoded.event.get());
  EXPECT_EQ(view->field_count(), 1u);
}

TEST(DynamicEventTest, XmlFormRoundTrips) {
  DynamicEvent e("WeatherReport");
  e.set("resort", "Verbier").set("snow_cm", "60");
  const DynamicEvent back = DynamicEvent::from_xml(e.to_xml());
  EXPECT_EQ(back, e);
}

// --- codec registry ----------------------------------------------------------

TEST(CodecRegistryTest, LookupByNameAndStableIndices) {
  EXPECT_EQ(find_codec(kCodecXml), &xml_codec());
  EXPECT_EQ(find_codec(kCodecBinary), &binary_codec());
  EXPECT_EQ(find_codec("zstd"), nullptr);
  EXPECT_EQ(xml_codec().name(), "xml");
  EXPECT_EQ(binary_codec().name(), "binary");
  EXPECT_NE(xml_codec().index(), binary_codec().index());
  EXPECT_LT(xml_codec().index(), kCodecCount);
  EXPECT_LT(binary_codec().index(), kCodecCount);
  EXPECT_EQ(supported_codec_names(), "xml, binary");
}

TEST(CodecRegistryTest, XmlCodecIsByteIdenticalToTaggedEncoding) {
  // The compatibility anchor: a pre-codec peer's "tps:event" bytes ARE the
  // xml codec's bytes, in both directions.
  serial::TypeRegistry registry;
  serial::register_event_with_ancestors<SkiRental>(registry);
  const SkiRental offer("S", 1.0f, "B", 2.0f);
  EXPECT_EQ(xml_codec().encode(registry, offer),
            registry.encode_tagged(offer));
}

// --- binary codec round trips ------------------------------------------------

TEST(BinaryCodecTest, StaticEventRoundTrips) {
  serial::TypeRegistry registry;
  serial::register_event_with_ancestors<SkiRental>(registry);
  const SkiRental offer("shop", 42.5f, "brand", 3.0f);
  const auto payload = buffer_of(binary_codec().encode(registry, offer));
  const CodecResult decoded = binary_codec().decode(registry, payload, {});
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.type_name, "SkiRental");
  const auto* back = dynamic_cast<const SkiRental*>(decoded.event.get());
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(*back, offer);
}

TEST(BinaryCodecTest, DynamicEventRoundTripsManyFields) {
  serial::TypeRegistry registry;
  register_dynamic_event_type("Big", {}, registry);
  DynamicEvent e("Big");
  for (int i = 0; i < 64; ++i) {
    e.set("k" + std::to_string(i), std::string(i, 'v'));
  }
  const auto payload = buffer_of(binary_codec().encode(registry, e));
  const CodecResult decoded = binary_codec().decode(registry, payload, {});
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*dynamic_cast<const DynamicEvent*>(decoded.event.get()), e);
}

// --- binary codec: classified failures ---------------------------------------

TEST(BinaryCodecTest, TruncatedHeaderIsClassified) {
  serial::TypeRegistry registry;
  const CodecResult decoded =
      binary_codec().decode(registry, buffer_of(Bytes{0x01}), {});
  EXPECT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error, DecodeError::kTruncated);
}

TEST(BinaryCodecTest, UnknownVersionIsRejected) {
  serial::TypeRegistry registry;
  register_dynamic_event_type("Quote", {}, registry);
  DynamicEvent e("Quote");
  Bytes frame = binary_codec().encode(registry, e);
  frame[0] = 0x7f;
  const CodecResult decoded =
      binary_codec().decode(registry, buffer_of(std::move(frame)), {});
  EXPECT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error, DecodeError::kBadValue);
  EXPECT_NE(decoded.detail.find("version"), std::string::npos);
}

TEST(BinaryCodecTest, UnknownKindIsRejected) {
  serial::TypeRegistry registry;
  register_dynamic_event_type("Quote", {}, registry);
  Bytes frame = binary_codec().encode(registry, DynamicEvent("Quote"));
  frame[1] = 7;
  const CodecResult decoded =
      binary_codec().decode(registry, buffer_of(std::move(frame)), {});
  EXPECT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error, DecodeError::kBadValue);
}

TEST(BinaryCodecTest, UnregisteredTypeIsRejected) {
  serial::TypeRegistry registry;  // empty: nothing registered
  util::ByteWriter w;
  w.write_u8(kBinaryEventFrameVersion);
  w.write_u8(kBinaryKindFields);
  w.write_string("Nope");
  w.write_varint(0);
  const CodecResult decoded =
      binary_codec().decode(registry, buffer_of(w.take()), {});
  EXPECT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error, DecodeError::kBadValue);
  EXPECT_NE(decoded.detail.find("Nope"), std::string::npos);
}

TEST(BinaryCodecTest, KindMustMatchRegistrationStyle) {
  // A hostile frame must not deliver a field-table event under a
  // statically-typed name (subscribers dynamic_cast on the C++ type), nor
  // an opaque body under a dynamic name.
  serial::TypeRegistry registry;
  serial::register_event_with_ancestors<SkiRental>(registry);
  register_dynamic_event_type("Quote", {}, registry);

  util::ByteWriter fields_as_static;
  fields_as_static.write_u8(kBinaryEventFrameVersion);
  fields_as_static.write_u8(kBinaryKindFields);
  fields_as_static.write_string("SkiRental");
  fields_as_static.write_varint(0);
  const CodecResult a =
      binary_codec().decode(registry, buffer_of(fields_as_static.take()), {});
  EXPECT_FALSE(a.ok());
  EXPECT_EQ(a.error, DecodeError::kBadValue);

  util::ByteWriter opaque_as_dynamic;
  opaque_as_dynamic.write_u8(kBinaryEventFrameVersion);
  opaque_as_dynamic.write_u8(kBinaryKindOpaque);
  opaque_as_dynamic.write_string("Quote");
  opaque_as_dynamic.write_bytes(Bytes{0x00});
  const CodecResult b =
      binary_codec().decode(registry, buffer_of(opaque_as_dynamic.take()), {});
  EXPECT_FALSE(b.ok());
  EXPECT_EQ(b.error, DecodeError::kBadValue);
}

TEST(BinaryCodecTest, InflatedFieldCountIsRejectedBeforeAllocation) {
  serial::TypeRegistry registry;
  register_dynamic_event_type("Quote", {}, registry);
  util::ByteWriter w;
  w.write_u8(kBinaryEventFrameVersion);
  w.write_u8(kBinaryKindFields);
  w.write_string("Quote");
  w.write_varint(10000);  // claims 10000 fields, carries none
  const CodecResult decoded =
      binary_codec().decode(registry, buffer_of(w.take()), {});
  EXPECT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error, DecodeError::kTruncated);
}

TEST(BinaryCodecTest, FieldPastLengthCapIsClassified) {
  serial::TypeRegistry registry;
  register_dynamic_event_type("Quote", {}, registry);
  DynamicEvent e("Quote");
  e.set("key", std::string(256, 'v'));
  const auto payload = buffer_of(binary_codec().encode(registry, e));
  const CodecResult decoded = binary_codec().decode(
      registry, payload, DecodeLimits{.max_length = 64});
  EXPECT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error, DecodeError::kLengthCap);
}

TEST(XmlCodecTest, MalformedPayloadIsClassifiedNotThrown) {
  serial::TypeRegistry registry;
  const CodecResult decoded = xml_codec().decode(
      registry, buffer_of(util::to_bytes("not a tagged event")), {});
  EXPECT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error, DecodeError::kBadValue);
  EXPECT_FALSE(decoded.detail.empty());
}

// --- encode cache keys on (event, codec) -------------------------------------

TEST(EncodeCacheCodecTest, SameEventDistinctCodecsDistinctEntries) {
  serial::TypeRegistry registry;
  serial::register_event_with_ancestors<SkiRental>(registry);
  EncodeCache cache(8, obs::Counter());
  const auto e = std::make_shared<const SkiRental>("a", 1.0f, "x", 1.0f);

  const auto xml_bytes = cache.encode(registry, xml_codec(), e);
  const auto bin_bytes = cache.encode(registry, binary_codec(), e);
  EXPECT_NE(*xml_bytes, *bin_bytes);  // different codecs, different bytes
  EXPECT_EQ(cache.hits(), 0u);        // no cross-codec false hit

  EXPECT_EQ(cache.encode(registry, xml_codec(), e).get(), xml_bytes.get());
  EXPECT_EQ(cache.encode(registry, binary_codec(), e).get(),
            bin_bytes.get());
  EXPECT_EQ(cache.hits(), 2u);
}

// --- TpsConfig::Builder knobs ------------------------------------------------

TEST(CodecConfigTest, BuilderSelectsCodec) {
  EXPECT_EQ(TpsConfig{}.codec, "xml");  // default: interoperate first
  EXPECT_EQ(TpsConfig::Builder().codec("binary").build().codec, "binary");
  EXPECT_EQ(TpsConfig::Builder().prefer_binary().build().codec, "binary");
  EXPECT_TRUE(TpsConfig{}.advertise_codecs);
}

TEST(CodecConfigTest, BuilderRejectsUnknownCodecNamingTheKnob) {
  try {
    (void)TpsConfig::Builder().codec("zstd").build();
    FAIL() << "build() accepted an unknown codec";
  } catch (const PsException& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("codec"), std::string::npos) << what;
    EXPECT_NE(what.find("zstd"), std::string::npos) << what;
    EXPECT_NE(what.find("xml, binary"), std::string::npos) << what;
  }
}

TEST(CodecConfigTest, DecodeLimitsStructSetsEveryCap) {
  const TpsConfig via_struct =
      TpsConfig::Builder()
          .decode_limits(DecodeLimits{
              .max_length = 1024, .max_count = 16, .max_depth = 8})
          .build();
  EXPECT_EQ(via_struct.decode_max_batch_events, 16u);
  EXPECT_EQ(via_struct.decode_max_event_bytes, 1024u);
  EXPECT_EQ(via_struct.decode_max_xml_depth, 8u);
}

// --- advertisement capability + negotiation ----------------------------------

TEST(CodecNegotiationTest, LegacyAdvertisementImpliesXmlOnly) {
  TestNet net;
  AdvertisementsCreator creator(net.add_peer("alice"));
  const auto legacy = creator.create_type_advertisement("SkiRental");
  EXPECT_EQ(advertised_codecs(legacy),
            std::vector<std::string>{std::string(kCodecXml)});
  EXPECT_EQ(&negotiate_codec(legacy, binary_codec()), &xml_codec());
  EXPECT_EQ(&negotiate_codec(legacy, xml_codec()), &xml_codec());
}

TEST(CodecNegotiationTest, CapabilityParamListsAndPreferredWins) {
  TestNet net;
  AdvertisementsCreator creator(net.add_peer("alice"));
  const auto adv =
      creator.create_type_advertisement("SkiRental", {"xml", "binary"});
  EXPECT_EQ(advertised_codecs(adv),
            (std::vector<std::string>{"xml", "binary"}));
  EXPECT_EQ(&negotiate_codec(adv, binary_codec()), &binary_codec());
  EXPECT_EQ(&negotiate_codec(adv, xml_codec()), &xml_codec());
}

TEST(CodecNegotiationTest, MismatchNamesBothCodecLists) {
  TestNet net;
  AdvertisementsCreator creator(net.add_peer("alice"));
  const auto adv = creator.create_type_advertisement("SkiRental", {"zstd"});
  try {
    (void)negotiate_codec(adv, binary_codec());
    FAIL() << "negotiate_codec accepted an unspeakable advertisement";
  } catch (const PsException& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("zstd"), std::string::npos) << what;
    EXPECT_NE(what.find("xml, binary"), std::string::npos) << what;
    EXPECT_NE(what.find("PS_SkiRental"), std::string::npos) << what;
  }
}

// --- interop matrix ----------------------------------------------------------
//
// Each case: subscriber comes up first (creates the type advertisement in
// its capability shape), publisher adopts it, one event flows. Delivery
// semantics must be identical in every cell; only tps.codec_fallbacks and
// the wire bytes differ.

struct InteropResult {
  DynamicEvent received{""};
  TpsStats pub_stats;
  TpsStats sub_stats;
};

InteropResult run_interop(const TpsConfig& sub_config,
                          const TpsConfig& pub_config,
                          const std::string& type_name) {
  TestNet net;
  jxta::Peer& alice = net.add_peer("alice");
  jxta::Peer& bob = net.add_peer("bob");

  DynamicTpsInterface sub(alice, type_name, {}, sub_config);
  std::shared_ptr<std::atomic<int>> count =
      std::make_shared<std::atomic<int>>(0);
  auto received = std::make_shared<DynamicEvent>("");
  auto received_mu = std::make_shared<std::mutex>();
  sub.subscribe(
      [count, received, received_mu](const DynamicEvent& e) {
        {
          const std::lock_guard<std::mutex> lock(*received_mu);
          *received = e;  // copy-on-write detaches from the wire buffer
        }
        ++*count;
      },
      [](std::exception_ptr) {});

  TpsConfig patient = pub_config;
  patient.adv_search_timeout = std::chrono::milliseconds(3000);
  DynamicTpsInterface pub(bob, type_name, {}, patient);

  DynamicEvent event(type_name);
  event.set("resort", "Verbier").set("snow_cm", "60");
  pub.publish(event);
  EXPECT_TRUE(wait_until([&] { return count->load() >= 1; }));

  InteropResult out;
  {
    const std::lock_guard<std::mutex> lock(*received_mu);
    out.received = *received;
  }
  out.pub_stats = pub.stats();
  out.sub_stats = sub.stats();
  return out;
}

TEST(CodecInteropTest, BinaryToBinaryDeliversWithoutFallback) {
  const TpsConfig both = TpsConfig::Builder()
                             .adv_search_timeout(std::chrono::milliseconds(300))
                             .prefer_binary()
                             .build();
  const InteropResult r = run_interop(both, both, "InteropBinBin");
  EXPECT_EQ(r.received.get("resort"), "Verbier");
  EXPECT_EQ(r.received.get("snow_cm"), "60");
  EXPECT_EQ(r.pub_stats.codec_fallbacks, 0u);
  EXPECT_EQ(r.sub_stats.codec_fallbacks, 0u);
  EXPECT_EQ(r.sub_stats.received_unique, 1u);
  EXPECT_EQ(r.sub_stats.decode_failures, 0u);
}

TEST(CodecInteropTest, XmlToXmlDeliversWithoutFallback) {
  const InteropResult r =
      run_interop(fast_config(), fast_config(), "InteropXmlXml");
  EXPECT_EQ(r.received.get("resort"), "Verbier");
  EXPECT_EQ(r.pub_stats.codec_fallbacks, 0u);
  EXPECT_EQ(r.sub_stats.codec_fallbacks, 0u);
  EXPECT_EQ(r.sub_stats.received_unique, 1u);
}

TEST(CodecInteropTest, MixedPreferencesInteroperate) {
  // Publisher prefers binary, subscriber prefers xml — but both ADVERTISE
  // both codecs (capability, not preference), so the publisher's binary
  // frames decode fine on the subscriber. No fallback: the negotiated
  // codec is the publisher's preferred one.
  TpsConfig sub_config = fast_config();  // codec = "xml"
  TpsConfig pub_config = fast_config();
  pub_config.codec = std::string(kCodecBinary);
  const InteropResult r =
      run_interop(sub_config, pub_config, "InteropMixed");
  EXPECT_EQ(r.received.get("resort"), "Verbier");
  EXPECT_EQ(r.received.get("snow_cm"), "60");
  EXPECT_EQ(r.pub_stats.codec_fallbacks, 0u);
  EXPECT_EQ(r.sub_stats.received_unique, 1u);
  EXPECT_EQ(r.sub_stats.decode_failures, 0u);
}

TEST(CodecInteropTest, LegacySubscriberForcesXmlFallback) {
  // The subscriber models a pre-codec peer: its advertisement has no
  // tps:codecs param at all (byte-identical to the seed's shape). A
  // binary-preferring publisher must fall back to xml on that binding —
  // and count it.
  TpsConfig legacy = fast_config();
  legacy.advertise_codecs = false;
  TpsConfig modern = fast_config();
  modern.codec = std::string(kCodecBinary);
  const InteropResult r = run_interop(legacy, modern, "InteropLegacySub");
  EXPECT_EQ(r.received.get("resort"), "Verbier");
  EXPECT_EQ(r.received.get("snow_cm"), "60");
  EXPECT_GE(r.pub_stats.codec_fallbacks, 1u);
  EXPECT_EQ(r.sub_stats.received_unique, 1u);
  EXPECT_EQ(r.sub_stats.decode_failures, 0u);
}

TEST(CodecInteropTest, LegacyPublisherReachesModernSubscriber) {
  // The reverse direction: a pre-codec publisher (xml, no capability param
  // on anything it creates) publishing to a binary-preferring subscriber.
  // The subscriber accepts xml frames unconditionally.
  TpsConfig legacy = fast_config();
  legacy.advertise_codecs = false;
  TpsConfig modern = fast_config();
  modern.codec = std::string(kCodecBinary);
  const InteropResult r = run_interop(modern, legacy, "InteropLegacyPub");
  EXPECT_EQ(r.received.get("resort"), "Verbier");
  EXPECT_EQ(r.sub_stats.received_unique, 1u);
  EXPECT_EQ(r.sub_stats.decode_failures, 0u);
}

TEST(CodecInteropTest, BinaryBatchedPublishDelivers) {
  // The async path: batched events ride "tps:batch-bin" when the binding
  // negotiated binary. Exactly-once semantics are codec-independent.
  TestNet net;
  jxta::Peer& alice = net.add_peer("alice");
  jxta::Peer& bob = net.add_peer("bob");

  TpsConfig sub_config = TpsConfig::Builder()
                             .adv_search_timeout(std::chrono::milliseconds(300))
                             .prefer_binary()
                             .build();
  DynamicTpsInterface sub(alice, "InteropBatch", {}, sub_config);
  std::shared_ptr<std::atomic<int>> count =
      std::make_shared<std::atomic<int>>(0);
  sub.subscribe([count](const DynamicEvent&) { ++*count; },
                [](std::exception_ptr) {});

  TpsConfig pub_config = TpsConfig::Builder()
                             .adv_search_timeout(std::chrono::milliseconds(3000))
                             .prefer_binary()
                             .batching(16, std::chrono::microseconds(200))
                             .build();
  DynamicTpsInterface pub(bob, "InteropBatch", {}, pub_config);

  constexpr int kEvents = 20;
  for (int i = 0; i < kEvents; ++i) {
    DynamicEvent e("InteropBatch");
    e.set("seq", std::to_string(i));
    pub.publish(e);
  }
  EXPECT_TRUE(wait_until([&] { return count->load() >= kEvents; }));
  EXPECT_EQ(count->load(), kEvents);  // exactly once, no duplicates
  EXPECT_EQ(sub.stats().decode_failures, 0u);
}

TEST(CodecInteropTest, StaticEventsFlowThroughBinaryCodec) {
  // Statically-typed events take the kind-0 (opaque EventTraits) path.
  TestNet net;
  jxta::Peer& alice = net.add_peer("alice");
  jxta::Peer& bob = net.add_peer("bob");

  TpsConfig config = TpsConfig::Builder()
                         .adv_search_timeout(std::chrono::milliseconds(300))
                         .prefer_binary()
                         .build();
  TpsEngine<SkiRental> sub_engine(alice, config);
  auto sub = sub_engine.new_interface();
  std::shared_ptr<std::atomic<int>> count =
      std::make_shared<std::atomic<int>>(0);
  auto callback = make_callback<SkiRental>(
      [count](const SkiRental& e) {
        EXPECT_EQ(e.shop(), "shop");
        ++*count;
      });
  sub.subscribe(callback, ignore_exceptions<SkiRental>());

  TpsConfig patient = config;
  patient.adv_search_timeout = std::chrono::milliseconds(3000);
  TpsEngine<SkiRental> pub_engine(bob, patient);
  auto pub = pub_engine.new_interface();
  pub.publish(SkiRental("shop", 1.0f, "brand", 2.0f));
  EXPECT_TRUE(wait_until([&] { return count->load() >= 1; }));
  EXPECT_EQ(pub.stats().codec_fallbacks, 0u);
  EXPECT_EQ(sub.stats().decode_failures, 0u);
}

}  // namespace
}  // namespace p2p::tps
