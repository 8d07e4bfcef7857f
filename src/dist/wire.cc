#include "dist/wire.h"

#include <cstring>

#include "store/crc32.h"
#include "store/varint.h"

namespace spire::dist {

namespace {

constexpr std::uint8_t kMaxFrameType =
    static_cast<std::uint8_t>(FrameType::kStatsReport);
static_assert(kMaxFrameType + 1 == kNumFrameTypes);

void PutU32LE(std::uint32_t value, std::vector<std::uint8_t>* out) {
  out->push_back(static_cast<std::uint8_t>(value));
  out->push_back(static_cast<std::uint8_t>(value >> 8));
  out->push_back(static_cast<std::uint8_t>(value >> 16));
  out->push_back(static_cast<std::uint8_t>(value >> 24));
}

std::uint32_t GetU32LE(const std::uint8_t* in) {
  return static_cast<std::uint32_t>(in[0]) |
         static_cast<std::uint32_t>(in[1]) << 8 |
         static_cast<std::uint32_t>(in[2]) << 16 |
         static_cast<std::uint32_t>(in[3]) << 24;
}

void PutEpoch(Epoch epoch, std::vector<std::uint8_t>* out) {
  PutVarint64(ZigzagEncode(epoch), out);
}

void PutBool(bool value, std::vector<std::uint8_t>* out) {
  out->push_back(value ? 1 : 0);
}

void PutDouble(double value, std::vector<std::uint8_t>* out) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
  }
}

/// Sequential strict decoder over one payload. Every Get* validates range
/// and canonicality; Finish rejects trailing bytes, so a payload has
/// exactly one valid encoding.
class PayloadReader {
 public:
  explicit PayloadReader(const std::vector<std::uint8_t>& buf) : buf_(buf) {}

  Status GetU64(std::uint64_t* value) {
    Result<std::uint64_t> result = GetVarint64(buf_, &offset_);
    if (!result.ok()) return result.status();
    *value = result.value();
    return Status::OK();
  }

  Status GetEpoch(Epoch* value) {
    std::uint64_t raw = 0;
    SPIRE_RETURN_NOT_OK(GetU64(&raw));
    *value = ZigzagDecode(raw);
    return Status::OK();
  }

  Status GetBool(bool* value) {
    if (offset_ >= buf_.size()) {
      return Status::Corruption("truncated bool");
    }
    const std::uint8_t byte = buf_[offset_++];
    if (byte > 1) return Status::Corruption("non-boolean flag byte");
    *value = byte != 0;
    return Status::OK();
  }

  Status GetDouble(double* value) {
    if (buf_.size() - offset_ < 8) {
      return Status::Corruption("truncated double");
    }
    std::uint64_t bits = 0;
    for (int i = 0; i < 8; ++i) {
      bits |= static_cast<std::uint64_t>(buf_[offset_ + i]) << (8 * i);
    }
    offset_ += 8;
    std::memcpy(value, &bits, sizeof(*value));
    return Status::OK();
  }

  /// A u64 bounded to [0, max]; `what` names the field in errors.
  Status GetBounded(std::uint64_t max, const char* what, std::uint64_t* value) {
    SPIRE_RETURN_NOT_OK(GetU64(value));
    if (*value > max) {
      return Status::Corruption(std::string(what) + " out of range");
    }
    return Status::OK();
  }

  /// An element count: bounded by the bytes left (each element encodes to
  /// at least one byte), so a corrupted count can never drive a huge
  /// allocation.
  Status GetCount(const char* what, std::size_t* count) {
    std::uint64_t raw = 0;
    SPIRE_RETURN_NOT_OK(GetU64(&raw));
    if (raw > buf_.size() - offset_) {
      return Status::Corruption(std::string(what) +
                                " count exceeds payload size");
    }
    *count = static_cast<std::size_t>(raw);
    return Status::OK();
  }

  /// A length-prefixed string; the length is bounded by the bytes left.
  Status GetString(const char* what, std::string* value) {
    std::size_t length = 0;
    SPIRE_RETURN_NOT_OK(GetCount(what, &length));
    value->assign(reinterpret_cast<const char*>(buf_.data()) + offset_,
                  length);
    offset_ += length;
    return Status::OK();
  }

  Status Finish() const {
    if (offset_ != buf_.size()) {
      return Status::Corruption("trailing bytes after payload");
    }
    return Status::OK();
  }

 private:
  const std::vector<std::uint8_t>& buf_;
  std::size_t offset_ = 0;
};

void EncodeObjectHandoff(const ObjectHandoff& handoff,
                         std::vector<std::uint8_t>* out) {
  PutVarint64(handoff.object, out);
  PutEpoch(handoff.seen_at, out);
  PutVarint64(handoff.confirmed.parent, out);
  PutEpoch(handoff.confirmed.confirmed_at, out);
  PutVarint64(static_cast<std::uint64_t>(handoff.confirmed.conflicts), out);
  PutVarint64(static_cast<std::uint64_t>(handoff.confirmed.observations), out);
  PutVarint64(handoff.parent_edges.size(), out);
  for (const HandoffEdge& edge : handoff.parent_edges) {
    PutVarint64(edge.parent, out);
    PutVarint64(edge.colocation_window, out);
    PutVarint64(static_cast<std::uint64_t>(edge.colocation_count), out);
    PutEpoch(edge.update_time, out);
    PutEpoch(edge.created_at, out);
  }
  PutBool(handoff.has_estimate, out);
  if (handoff.has_estimate) {
    const ObjectEstimate& est = handoff.estimate;
    PutVarint64(est.object, out);
    PutVarint64(est.location, out);
    PutDouble(est.location_prob, out);
    PutDouble(est.location_runner_up, out);
    PutVarint64(est.container, out);
    PutDouble(est.container_prob, out);
    PutDouble(est.container_runner_up, out);
    PutBool(est.observed, out);
    PutBool(est.withheld, out);
  }
  PutEpoch(handoff.fade_deadline, out);
}

Status DecodeObjectHandoff(PayloadReader& reader, ObjectHandoff* handoff) {
  SPIRE_RETURN_NOT_OK(reader.GetU64(&handoff->object));
  SPIRE_RETURN_NOT_OK(reader.GetEpoch(&handoff->seen_at));
  SPIRE_RETURN_NOT_OK(reader.GetU64(&handoff->confirmed.parent));
  SPIRE_RETURN_NOT_OK(reader.GetEpoch(&handoff->confirmed.confirmed_at));
  std::uint64_t raw = 0;
  SPIRE_RETURN_NOT_OK(reader.GetBounded(INT32_MAX, "conflicts", &raw));
  handoff->confirmed.conflicts = static_cast<int>(raw);
  SPIRE_RETURN_NOT_OK(reader.GetBounded(INT32_MAX, "observations", &raw));
  handoff->confirmed.observations = static_cast<int>(raw);
  std::size_t edges = 0;
  SPIRE_RETURN_NOT_OK(reader.GetCount("parent edge", &edges));
  handoff->parent_edges.resize(edges);
  for (HandoffEdge& edge : handoff->parent_edges) {
    SPIRE_RETURN_NOT_OK(reader.GetU64(&edge.parent));
    SPIRE_RETURN_NOT_OK(reader.GetU64(&edge.colocation_window));
    SPIRE_RETURN_NOT_OK(reader.GetBounded(64, "co-location count", &raw));
    edge.colocation_count = static_cast<int>(raw);
    SPIRE_RETURN_NOT_OK(reader.GetEpoch(&edge.update_time));
    SPIRE_RETURN_NOT_OK(reader.GetEpoch(&edge.created_at));
  }
  SPIRE_RETURN_NOT_OK(reader.GetBool(&handoff->has_estimate));
  if (handoff->has_estimate) {
    ObjectEstimate& est = handoff->estimate;
    SPIRE_RETURN_NOT_OK(reader.GetU64(&est.object));
    SPIRE_RETURN_NOT_OK(reader.GetBounded(kUnknownLocation, "location", &raw));
    est.location = static_cast<LocationId>(raw);
    SPIRE_RETURN_NOT_OK(reader.GetDouble(&est.location_prob));
    SPIRE_RETURN_NOT_OK(reader.GetDouble(&est.location_runner_up));
    SPIRE_RETURN_NOT_OK(reader.GetU64(&est.container));
    SPIRE_RETURN_NOT_OK(reader.GetDouble(&est.container_prob));
    SPIRE_RETURN_NOT_OK(reader.GetDouble(&est.container_runner_up));
    SPIRE_RETURN_NOT_OK(reader.GetBool(&est.observed));
    SPIRE_RETURN_NOT_OK(reader.GetBool(&est.withheld));
  } else {
    handoff->estimate = ObjectEstimate{};
  }
  SPIRE_RETURN_NOT_OK(reader.GetEpoch(&handoff->fade_deadline));
  return Status::OK();
}

}  // namespace

const char* ToString(FrameType type) {
  switch (type) {
    case FrameType::kHello:
      return "hello";
    case FrameType::kEpochWork:
      return "epoch_work";
    case FrameType::kEpochResult:
      return "epoch_result";
    case FrameType::kHandoff:
      return "handoff";
    case FrameType::kStatsReport:
      return "stats_report";
  }
  return "?";
}

std::vector<std::uint8_t> EncodeFrame(
    FrameType type, const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> out;
  out.reserve(kFrameHeaderBytes + payload.size());
  PutU32LE(kDistFrameMarker, &out);
  out.push_back(static_cast<std::uint8_t>(type));
  out.push_back(0);  // flags
  out.push_back(static_cast<std::uint8_t>(kDistProtocolVersion));
  out.push_back(static_cast<std::uint8_t>(kDistProtocolVersion >> 8));
  PutU32LE(static_cast<std::uint32_t>(payload.size()), &out);
  std::uint32_t crc = Crc32(out.data(), out.size());
  crc = Crc32(payload.data(), payload.size(), crc);
  PutU32LE(crc, &out);
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

Result<FrameHeader> ParseFrameHeader(const std::uint8_t* data,
                                     std::size_t size) {
  if (size < kFrameHeaderBytes) {
    return Status::Corruption("truncated frame header");
  }
  if (GetU32LE(data) != kDistFrameMarker) {
    return Status::Corruption("bad frame marker");
  }
  FrameHeader header;
  if (data[4] > kMaxFrameType) {
    return Status::Corruption("unknown frame type");
  }
  header.type = static_cast<FrameType>(data[4]);
  header.flags = data[5];
  header.version = static_cast<std::uint16_t>(
      static_cast<std::uint16_t>(data[6]) |
      static_cast<std::uint16_t>(data[7]) << 8);
  if (header.version != kDistProtocolVersion) {
    return Status::InvalidArgument(
        "protocol version mismatch: peer speaks version " +
        std::to_string(header.version) + ", this build speaks version " +
        std::to_string(kDistProtocolVersion));
  }
  header.payload_bytes = GetU32LE(data + 8);
  if (header.payload_bytes > kMaxFramePayloadBytes) {
    return Status::Corruption("frame payload length out of range");
  }
  header.crc = GetU32LE(data + 12);
  return header;
}

Result<Frame> DecodeFrame(const std::vector<std::uint8_t>& bytes) {
  Result<FrameHeader> header = ParseFrameHeader(bytes.data(), bytes.size());
  if (!header.ok()) return header.status();
  const std::size_t payload_bytes = header.value().payload_bytes;
  if (bytes.size() != kFrameHeaderBytes + payload_bytes) {
    return Status::Corruption("frame length does not match header");
  }
  std::uint32_t crc = Crc32(bytes.data(), 12);
  crc = Crc32(bytes.data() + kFrameHeaderBytes, payload_bytes, crc);
  if (crc != header.value().crc) {
    return Status::Corruption("frame checksum mismatch");
  }
  Frame frame;
  frame.type = header.value().type;
  frame.flags = header.value().flags;
  frame.payload.assign(bytes.begin() + kFrameHeaderBytes, bytes.end());
  return frame;
}

void EncodeHello(const HelloPayload& payload, std::vector<std::uint8_t>* out) {
  PutVarint64(payload.node_id, out);
  PutVarint64(payload.sites.size(), out);
  for (std::uint32_t site : payload.sites) PutVarint64(site, out);
  PutVarint64(payload.steady_now_micros, out);
  PutVarint64(payload.stats_interval_epochs, out);
}

Result<HelloPayload> DecodeHello(const std::vector<std::uint8_t>& payload) {
  PayloadReader reader(payload);
  HelloPayload hello;
  std::uint64_t raw = 0;
  SPIRE_RETURN_NOT_OK(reader.GetBounded(UINT32_MAX, "node id", &raw));
  hello.node_id = static_cast<std::uint32_t>(raw);
  std::size_t count = 0;
  SPIRE_RETURN_NOT_OK(reader.GetCount("site", &count));
  hello.sites.resize(count);
  for (std::uint32_t& site : hello.sites) {
    SPIRE_RETURN_NOT_OK(reader.GetBounded(UINT32_MAX, "site index", &raw));
    site = static_cast<std::uint32_t>(raw);
  }
  SPIRE_RETURN_NOT_OK(reader.GetU64(&hello.steady_now_micros));
  SPIRE_RETURN_NOT_OK(
      reader.GetBounded(UINT32_MAX, "stats interval", &raw));
  hello.stats_interval_epochs = static_cast<std::uint32_t>(raw);
  SPIRE_RETURN_NOT_OK(reader.Finish());
  return hello;
}

void EncodeEpochWork(const EpochWorkPayload& payload,
                     std::vector<std::uint8_t>* out) {
  PutEpoch(payload.epoch, out);
  PutBool(payload.finish, out);
  PutVarint64(payload.site_readings.size(), out);
  for (const auto& [site, readings] : payload.site_readings) {
    PutVarint64(site, out);
    PutVarint64(readings.size(), out);
    for (const RfidReading& reading : readings) {
      PutVarint64(reading.tag, out);
      PutVarint64(reading.reader, out);
      PutVarint64(reading.tick, out);
    }
  }
  PutVarint64(payload.captures.size(), out);
  for (const CaptureOrder& capture : payload.captures) {
    PutVarint64(capture.hop, out);
    PutVarint64(capture.from_site, out);
    PutVarint64(capture.to_site, out);
    PutEpoch(capture.arrive_epoch, out);
    PutVarint64(capture.objects.size(), out);
    for (ObjectId object : capture.objects) PutVarint64(object, out);
  }
}

Result<EpochWorkPayload> DecodeEpochWork(
    const std::vector<std::uint8_t>& payload) {
  PayloadReader reader(payload);
  EpochWorkPayload work;
  SPIRE_RETURN_NOT_OK(reader.GetEpoch(&work.epoch));
  SPIRE_RETURN_NOT_OK(reader.GetBool(&work.finish));
  std::uint64_t raw = 0;
  std::size_t count = 0;
  SPIRE_RETURN_NOT_OK(reader.GetCount("site readings", &count));
  work.site_readings.resize(count);
  for (auto& [site, readings] : work.site_readings) {
    SPIRE_RETURN_NOT_OK(reader.GetBounded(UINT32_MAX, "site index", &raw));
    site = static_cast<std::uint32_t>(raw);
    std::size_t readings_count = 0;
    SPIRE_RETURN_NOT_OK(reader.GetCount("reading", &readings_count));
    readings.resize(readings_count);
    for (RfidReading& reading : readings) {
      SPIRE_RETURN_NOT_OK(reader.GetU64(&reading.tag));
      SPIRE_RETURN_NOT_OK(reader.GetBounded(kNoReader, "reader id", &raw));
      reading.reader = static_cast<ReaderId>(raw);
      SPIRE_RETURN_NOT_OK(reader.GetBounded(UINT16_MAX, "tick", &raw));
      reading.tick = static_cast<std::uint16_t>(raw);
      reading.epoch = work.epoch;
    }
  }
  SPIRE_RETURN_NOT_OK(reader.GetCount("capture order", &count));
  work.captures.resize(count);
  for (CaptureOrder& capture : work.captures) {
    SPIRE_RETURN_NOT_OK(reader.GetU64(&capture.hop));
    SPIRE_RETURN_NOT_OK(reader.GetBounded(UINT32_MAX, "from site", &raw));
    capture.from_site = static_cast<std::uint32_t>(raw);
    SPIRE_RETURN_NOT_OK(reader.GetBounded(UINT32_MAX, "to site", &raw));
    capture.to_site = static_cast<std::uint32_t>(raw);
    SPIRE_RETURN_NOT_OK(reader.GetEpoch(&capture.arrive_epoch));
    std::size_t objects = 0;
    SPIRE_RETURN_NOT_OK(reader.GetCount("capture object", &objects));
    capture.objects.resize(objects);
    for (ObjectId& object : capture.objects) {
      SPIRE_RETURN_NOT_OK(reader.GetU64(&object));
    }
  }
  SPIRE_RETURN_NOT_OK(reader.Finish());
  return work;
}

void EncodeEpochResult(const EpochResultPayload& payload,
                       std::vector<std::uint8_t>* out) {
  PutEpoch(payload.result.epoch, out);
  PutBool(payload.result.finish, out);
  PutVarint64(payload.steady_micros, out);
  PutVarint64(payload.result.site_events.size(), out);
  for (const auto& [site, events] : payload.result.site_events) {
    PutVarint64(site, out);
    PutVarint64(events.size(), out);
    for (const Event& event : events) {
      out->push_back(static_cast<std::uint8_t>(event.type));
      PutVarint64(event.object, out);
      PutVarint64(event.location, out);
      PutVarint64(event.container, out);
      PutEpoch(event.start, out);
      PutEpoch(event.end, out);
    }
  }
}

Result<EpochResultPayload> DecodeEpochResult(
    const std::vector<std::uint8_t>& payload) {
  PayloadReader reader(payload);
  EpochResultPayload decoded;
  serve::EpochResult& result = decoded.result;
  SPIRE_RETURN_NOT_OK(reader.GetEpoch(&result.epoch));
  SPIRE_RETURN_NOT_OK(reader.GetBool(&result.finish));
  SPIRE_RETURN_NOT_OK(reader.GetU64(&decoded.steady_micros));
  std::uint64_t raw = 0;
  std::size_t count = 0;
  SPIRE_RETURN_NOT_OK(reader.GetCount("site events", &count));
  result.site_events.resize(count);
  for (auto& [site, events] : result.site_events) {
    SPIRE_RETURN_NOT_OK(reader.GetBounded(UINT32_MAX, "site index", &raw));
    site = static_cast<std::uint32_t>(raw);
    std::size_t events_count = 0;
    SPIRE_RETURN_NOT_OK(reader.GetCount("event", &events_count));
    events.resize(events_count);
    for (Event& event : events) {
      SPIRE_RETURN_NOT_OK(
          reader.GetBounded(static_cast<std::uint64_t>(EventType::kMissing),
                            "event type", &raw));
      event.type = static_cast<EventType>(raw);
      SPIRE_RETURN_NOT_OK(reader.GetU64(&event.object));
      SPIRE_RETURN_NOT_OK(
          reader.GetBounded(kUnknownLocation, "location", &raw));
      event.location = static_cast<LocationId>(raw);
      SPIRE_RETURN_NOT_OK(reader.GetU64(&event.container));
      SPIRE_RETURN_NOT_OK(reader.GetEpoch(&event.start));
      SPIRE_RETURN_NOT_OK(reader.GetEpoch(&event.end));
    }
  }
  SPIRE_RETURN_NOT_OK(reader.Finish());
  return decoded;
}

void EncodeHandoff(const HandoffPayload& payload,
                   std::vector<std::uint8_t>* out) {
  PutVarint64(payload.hop, out);
  PutVarint64(payload.to_site, out);
  PutEpoch(payload.arrive_epoch, out);
  PutVarint64(payload.capture_micros, out);
  PutVarint64(payload.span_id, out);
  PutVarint64(payload.objects.size(), out);
  for (const ObjectHandoff& object : payload.objects) {
    EncodeObjectHandoff(object, out);
  }
}

Result<HandoffPayload> DecodeHandoff(const std::vector<std::uint8_t>& payload) {
  PayloadReader reader(payload);
  HandoffPayload handoff;
  SPIRE_RETURN_NOT_OK(reader.GetU64(&handoff.hop));
  std::uint64_t raw = 0;
  SPIRE_RETURN_NOT_OK(reader.GetBounded(UINT32_MAX, "to site", &raw));
  handoff.to_site = static_cast<std::uint32_t>(raw);
  SPIRE_RETURN_NOT_OK(reader.GetEpoch(&handoff.arrive_epoch));
  SPIRE_RETURN_NOT_OK(reader.GetU64(&handoff.capture_micros));
  SPIRE_RETURN_NOT_OK(reader.GetU64(&handoff.span_id));
  std::size_t count = 0;
  SPIRE_RETURN_NOT_OK(reader.GetCount("handoff object", &count));
  handoff.objects.resize(count);
  for (ObjectHandoff& object : handoff.objects) {
    SPIRE_RETURN_NOT_OK(DecodeObjectHandoff(reader, &object));
  }
  SPIRE_RETURN_NOT_OK(reader.Finish());
  return handoff;
}

void EncodeStatsReport(const StatsReportPayload& payload,
                       std::vector<std::uint8_t>* out) {
  PutVarint64(payload.node_id, out);
  PutEpoch(payload.epoch, out);
  PutBool(payload.final_report, out);
  PutVarint64(payload.snapshot.modules.size(), out);
  for (const auto& [module_name, module] : payload.snapshot.modules) {
    PutVarint64(module_name.size(), out);
    out->insert(out->end(), module_name.begin(), module_name.end());
    PutVarint64(module.counters.size(), out);
    for (const auto& [name, value] : module.counters) {
      PutVarint64(name.size(), out);
      out->insert(out->end(), name.begin(), name.end());
      PutVarint64(value, out);
    }
    PutVarint64(module.gauges.size(), out);
    for (const auto& [name, value] : module.gauges) {
      PutVarint64(name.size(), out);
      out->insert(out->end(), name.begin(), name.end());
      PutVarint64(ZigzagEncode(value), out);
    }
    PutVarint64(module.histograms.size(), out);
    for (const auto& [name, histogram] : module.histograms) {
      PutVarint64(name.size(), out);
      out->insert(out->end(), name.begin(), name.end());
      for (std::uint64_t bucket : histogram.buckets) PutVarint64(bucket, out);
      PutVarint64(histogram.count, out);
      PutVarint64(histogram.total, out);
      PutVarint64(histogram.max, out);
    }
  }
}

Result<StatsReportPayload> DecodeStatsReport(
    const std::vector<std::uint8_t>& payload) {
  PayloadReader reader(payload);
  StatsReportPayload report;
  std::uint64_t raw = 0;
  SPIRE_RETURN_NOT_OK(reader.GetBounded(UINT32_MAX, "node id", &raw));
  report.node_id = static_cast<std::uint32_t>(raw);
  SPIRE_RETURN_NOT_OK(reader.GetEpoch(&report.epoch));
  SPIRE_RETURN_NOT_OK(reader.GetBool(&report.final_report));
  std::size_t modules = 0;
  SPIRE_RETURN_NOT_OK(reader.GetCount("module", &modules));
  for (std::size_t m = 0; m < modules; ++m) {
    std::string module_name;
    SPIRE_RETURN_NOT_OK(reader.GetString("module name", &module_name));
    obs::RegistrySnapshot::Module& module =
        report.snapshot.modules[module_name];
    std::size_t count = 0;
    SPIRE_RETURN_NOT_OK(reader.GetCount("counter", &count));
    for (std::size_t i = 0; i < count; ++i) {
      std::string name;
      SPIRE_RETURN_NOT_OK(reader.GetString("counter name", &name));
      SPIRE_RETURN_NOT_OK(reader.GetU64(&module.counters[name]));
    }
    SPIRE_RETURN_NOT_OK(reader.GetCount("gauge", &count));
    for (std::size_t i = 0; i < count; ++i) {
      std::string name;
      SPIRE_RETURN_NOT_OK(reader.GetString("gauge name", &name));
      SPIRE_RETURN_NOT_OK(reader.GetU64(&raw));
      module.gauges[name] = ZigzagDecode(raw);
    }
    SPIRE_RETURN_NOT_OK(reader.GetCount("histogram", &count));
    for (std::size_t i = 0; i < count; ++i) {
      std::string name;
      SPIRE_RETURN_NOT_OK(reader.GetString("histogram name", &name));
      obs::HistogramSnapshot& histogram = module.histograms[name];
      for (std::uint64_t& bucket : histogram.buckets) {
        SPIRE_RETURN_NOT_OK(reader.GetU64(&bucket));
      }
      SPIRE_RETURN_NOT_OK(reader.GetU64(&histogram.count));
      SPIRE_RETURN_NOT_OK(reader.GetU64(&histogram.total));
      SPIRE_RETURN_NOT_OK(reader.GetU64(&histogram.max));
    }
  }
  SPIRE_RETURN_NOT_OK(reader.Finish());
  return report;
}

}  // namespace spire::dist
