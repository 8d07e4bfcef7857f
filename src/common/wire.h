// Wire-format size accounting and on-disk format identifiers.
//
// The paper reports compression ratio = (bytes of the compressed event
// stream) / (bytes of the raw RFID reading stream). We fix a concrete byte
// layout for both streams so the ratio is well-defined and reproducible.
//
// This header is also the single home of every SPIRE file-format magic
// number and version, so the serde layer, the archive store, and the tools
// share one definition (see DESIGN.md "On-disk formats").
#pragma once

#include <cstddef>
#include <cstdint>

namespace spire {

/// A raw RFID reading on the wire: 12-byte EPC (96-bit tag), 2-byte reader
/// id, 2-byte epoch-relative timestamp.
inline constexpr std::size_t kReadingWireBytes = 16;

/// An output event message on the wire, packed:
/// type(1) + object EPC(12) + target(8: container EPC prefix or padded
/// location id) + timestamp(4) + flags(1) = 26 bytes. Every message
/// (Start*/End*/Missing) is charged one full record.
inline constexpr std::size_t kEventWireBytes = 26;

/// Bytes of every file-format magic below.
inline constexpr std::size_t kMagicBytes = 4;

/// Flat event file (compress/serde): magic + u16 version, then (version 2)
/// a u64 record count, then the kEventWireBytes records.
inline constexpr char kEventFileMagic[kMagicBytes] = {'S', 'P', 'E', 'V'};
/// Current event-file version: header carries the record count so a file
/// truncated at a record boundary is still detected.
inline constexpr std::uint16_t kEventFileVersion = 2;
/// Legacy event-file version without the record count (still readable).
inline constexpr std::uint16_t kEventFileLegacyVersion = 1;

/// Segmented block-compressed event archive (store/archive_writer).
inline constexpr char kArchiveMagic[kMagicBytes] = {'S', 'P', 'A', 'R'};
/// Current segment version: 40-byte block headers carrying a per-block
/// codec id (store/format.h). New segments are written at this version.
inline constexpr std::uint16_t kArchiveVersion = 2;
/// Legacy segment version: 36-byte block headers, implicit zigzag-varint
/// codec. Still readable, and still writable for compatibility tests.
inline constexpr std::uint16_t kArchiveVersionV1 = 1;

/// Archive index sidecar (block directory + per-object postings).
/// Version 2 adds the per-block codec id and a fingerprint of the last
/// covered block header, so a sidecar cannot describe a segment that was
/// truncated and rewritten to the same byte count. Version 3 adds
/// per-location and per-container posting lists (segment-direct serving of
/// ObjectsAt / ContentsAt, src/query/segment_log). Sidecars are rebuildable
/// caches: readers fall back to a segment scan on any other version.
inline constexpr char kArchiveIndexMagic[kMagicBytes] = {'S', 'P', 'I', 'X'};
inline constexpr std::uint16_t kArchiveIndexVersion = 3;

/// Marker leading every archive block header; recovery scans for it.
inline constexpr std::uint32_t kArchiveBlockMarker = 0x53504232;  // "SPB2"

/// Distributed serving frames (dist/wire.h): every frame starts with a
/// 16-byte header = this marker, a type byte, a flags byte, the protocol
/// version, the payload length, and a CRC-32 covering header + payload.
inline constexpr std::uint32_t kDistFrameMarker = 0x53504446;  // "SPDF"
/// Version 1: Hello / EpochWork / SiteBatch / Barrier / Handoff payloads
/// (dist/wire.h). Version 2 adds the StatsReport frame and the fleet
/// observability fields: clock sync + stats cadence in Hello, a heartbeat
/// stamp in Barrier, and a trace span id in Handoff. Version 3 folds a
/// node's per-site SiteBatch frames and its Barrier into one EpochResult
/// frame per node and epoch (types: Hello / EpochWork / EpochResult /
/// Handoff / StatsReport). Peers reject any other version at the frame
/// layer.
inline constexpr std::uint16_t kDistProtocolVersion = 3;

}  // namespace spire
