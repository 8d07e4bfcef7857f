// The distributed serving wire protocol (DESIGN.md §12).
//
// Every message is one length-prefixed frame: a fixed 16-byte header
// followed by a varint-encoded payload. The header carries a marker, the
// frame type, the protocol version, the payload length, and a CRC-32 over
// the first twelve header bytes plus the payload — so a single corrupted
// byte anywhere in the frame (including the type and version fields) fails
// the checksum instead of being re-interpreted as a different valid
// message. Payload integers use the strict LEB128 varints of
// store/varint.h (signed values zigzag-coded); doubles travel as their
// 8-byte little-endian IEEE-754 bit pattern, which round-trips exactly.
//
// Five frame types carry the per-site feed/merge protocol plus the
// cross-site object handoff and fleet observability:
//
//   Hello       both directions; version/identity check at connection open,
//               plus the ClockSync exchange (each side's steady-clock "now"
//               at send) and the coordinator's stats cadence.
//   EpochWork   coordinator -> node; one epoch's raw readings for every
//               site the node owns, plus capture orders for hops departing
//               this epoch. A finish EpochWork closes the stream.
//   EpochResult node -> coordinator; one epoch's output events for every
//               site the node owns (serve::EpochResult over the wire). The
//               last frame a node sends for an epoch, so it is also the
//               flow-control barrier, with a heartbeat stamp for slow-node
//               detection.
//   Handoff     both directions; the captured per-object inference state
//               of one hop (spire/handoff.h), shipped from the departure
//               node through the coordinator to the arrival node. Carries
//               the hop's trace span id end to end.
//   StatsReport node -> coordinator; the node's full obs registry snapshot
//               (counters, gauges, histogram bucket arrays), sent on the
//               coordinator's cadence and once more at shutdown.
#pragma once

#include <chrono>
#include <cstdint>
#include <utility>
#include <vector>

#include "obs/registry.h"

#include "common/status.h"
#include "common/types.h"
#include "common/wire.h"
#include "serve/merger.h"
#include "spire/handoff.h"
#include "stream/reading.h"

namespace spire::dist {

/// Message kind of one frame (header byte 4).
enum class FrameType : std::uint8_t {
  kHello = 0,
  kEpochWork = 1,
  kEpochResult = 2,
  kHandoff = 3,
  kStatsReport = 4,
};

/// Number of frame types (per-type transport counters size to this).
inline constexpr int kNumFrameTypes = 5;

/// Frame type name for errors and for the per-type transport counters
/// (dist/frames_<name>, dist/bytes_<name>).
const char* ToString(FrameType type);

/// Fixed header size: marker u32 | type u8 | flags u8 | version u16 |
/// payload length u32 | crc32 u32, all little-endian.
inline constexpr std::size_t kFrameHeaderBytes = 16;

/// Upper bound on one frame's payload (a sanity bound against corrupted
/// length fields, far above any real epoch batch).
inline constexpr std::uint32_t kMaxFramePayloadBytes = 64u << 20;

/// The validated fixed header of one frame.
struct FrameHeader {
  FrameType type = FrameType::kHello;
  std::uint8_t flags = 0;
  std::uint16_t version = 0;
  std::uint32_t payload_bytes = 0;
  std::uint32_t crc = 0;
};

/// A decoded frame: type plus raw payload bytes (decode with the typed
/// payload codec below).
struct Frame {
  FrameType type = FrameType::kHello;
  std::uint8_t flags = 0;
  std::vector<std::uint8_t> payload;
};

/// Encodes a complete frame (header + payload) at kDistProtocolVersion.
std::vector<std::uint8_t> EncodeFrame(FrameType type,
                                      const std::vector<std::uint8_t>& payload);

/// Parses and validates the 16-byte header: marker, known type, exact
/// version match, and payload length bound. The CRC field is returned but
/// only checkable once the payload is present (DecodeFrame).
Result<FrameHeader> ParseFrameHeader(const std::uint8_t* data,
                                     std::size_t size);

/// Decodes one complete frame, validating header and CRC.
Result<Frame> DecodeFrame(const std::vector<std::uint8_t>& bytes);

// --- Payloads ---------------------------------------------------------

/// The steady clock as microseconds since its (boot-global on Linux)
/// origin: the timestamp every wire-carried clock field uses, so stamps
/// from different processes on one machine are directly comparable.
inline std::uint64_t SteadyNowMicros() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Connection-open identity: which node this is and which global site
/// indexes it owns (ascending). The coordinator echoes the assignment.
///
/// ClockSync: each side stamps `steady_now_micros` at send. The node
/// brackets the exchange (t0 before its Hello, t1 after the coordinator's)
/// and estimates its offset onto the coordinator clock as
/// coord_steady_now - (t0 + t1) / 2 — the NTP half-round-trip estimate.
/// `stats_interval_epochs` is coordinator -> node only: send a StatsReport
/// every N epochs (0 = never; a final report still ships at shutdown when
/// N > 0).
struct HelloPayload {
  std::uint32_t node_id = 0;
  std::vector<std::uint32_t> sites;
  std::uint64_t steady_now_micros = 0;
  std::uint32_t stats_interval_epochs = 0;
};

/// One hop's capture order: which objects to stage for departure at the
/// hop's origin site this epoch. `hop` is the hop's index in the global
/// transfer schedule; it keys the handoff back to its arrival slot.
struct CaptureOrder {
  std::uint64_t hop = 0;
  std::uint32_t from_site = 0;
  std::uint32_t to_site = 0;
  Epoch arrive_epoch = kNeverEpoch;
  /// Leaf-up, as staged (see SpirePipeline::StageDeparture).
  std::vector<ObjectId> objects;
};

/// One epoch of work for one node. `site_readings` holds the raw readings
/// of every site the node owns (ascending site order; sites past their
/// stream end are omitted — an omitted site processes an empty epoch).
/// A finish message carries no readings or captures; the node flushes
/// every pipeline and exits after its finish EpochResult.
struct EpochWorkPayload {
  Epoch epoch = kNeverEpoch;
  bool finish = false;
  std::vector<std::pair<std::uint32_t, EpochReadings>> site_readings;
  std::vector<CaptureOrder> captures;
};

/// serve::EpochResult over the wire: one node's events for one epoch (or
/// its finish flush), one entry per owned site in ascending site order,
/// and the node's epoch completion marker (flow control). Events are
/// self-contained records (not the stateful SPEV archive encoding): the
/// merge path re-encodes nothing. `steady_micros` is the node's
/// steady-clock stamp at send — the heartbeat the coordinator folds into
/// the fleet/heartbeat_gap_us histogram and its per-node epoch-lag gauges
/// (slow-node detection).
struct EpochResultPayload {
  serve::EpochResult result;
  std::uint64_t steady_micros = 0;
};

/// One hop's captured objects, in capture (leaf-up) order.
/// `capture_micros` is the departure node's steady-clock stamp at send
/// time; the arrival side records now - capture_micros into the
/// dist/handoff_latency_us histogram (comparable across processes on one
/// machine — CLOCK_MONOTONIC is boot-global on Linux).
/// `span_id` names the hop's end-to-end trace span: the departure node
/// opens an async 'b' event under it at capture, the arrival node closes
/// it with the matching 'e' at implant, and merge-traces stitches the two
/// into one cross-process span. Nodes use the global hop index, which is
/// unique per run.
struct HandoffPayload {
  std::uint64_t hop = 0;
  std::uint32_t to_site = 0;
  Epoch arrive_epoch = kNeverEpoch;
  std::uint64_t capture_micros = 0;
  std::uint64_t span_id = 0;
  std::vector<ObjectHandoff> objects;
};

/// One node's full obs registry snapshot. `final_report` marks the
/// shutdown report (sent just before the finish EpochResult); periodic
/// reports carry the cumulative state, so the coordinator keeps only the
/// latest per node.
struct StatsReportPayload {
  std::uint32_t node_id = 0;
  Epoch epoch = kNeverEpoch;
  bool final_report = false;
  obs::RegistrySnapshot snapshot;
};

void EncodeHello(const HelloPayload& payload, std::vector<std::uint8_t>* out);
Result<HelloPayload> DecodeHello(const std::vector<std::uint8_t>& payload);

void EncodeEpochWork(const EpochWorkPayload& payload,
                     std::vector<std::uint8_t>* out);
Result<EpochWorkPayload> DecodeEpochWork(
    const std::vector<std::uint8_t>& payload);

void EncodeEpochResult(const EpochResultPayload& payload,
                       std::vector<std::uint8_t>* out);
Result<EpochResultPayload> DecodeEpochResult(
    const std::vector<std::uint8_t>& payload);

void EncodeHandoff(const HandoffPayload& payload,
                   std::vector<std::uint8_t>* out);
Result<HandoffPayload> DecodeHandoff(const std::vector<std::uint8_t>& payload);

void EncodeStatsReport(const StatsReportPayload& payload,
                       std::vector<std::uint8_t>* out);
Result<StatsReportPayload> DecodeStatsReport(
    const std::vector<std::uint8_t>& payload);

}  // namespace spire::dist
