#include "store/block.h"

#include <algorithm>
#include <limits>

#include "store/bitpack.h"
#include "store/varint.h"

namespace spire {

/// Archive-representability check; mirrors EventEncoder's validation but
/// without the flat format's 32-bit timestamp ceiling.
Status ValidateArchivable(const Event& event) {
  const Epoch primary = PrimaryEpoch(event);
  if (primary < 0) {
    return Status::InvalidArgument("negative event timestamp: " +
                                   event.ToString());
  }
  switch (event.type) {
    case EventType::kStartLocation:
    case EventType::kStartContainment:
      if (event.end != kInfiniteEpoch) {
        return Status::InvalidArgument("Start event with a closed interval: " +
                                       event.ToString());
      }
      break;
    case EventType::kEndLocation:
    case EventType::kEndContainment:
      if (event.start < 0 || event.end < event.start) {
        return Status::InvalidArgument(
            "End event without a reconstructed interval: " + event.ToString());
      }
      break;
    case EventType::kMissing:
      if (event.start != event.end) {
        return Status::InvalidArgument("Missing event is not a point: " +
                                       event.ToString());
      }
      break;
    default:
      return Status::InvalidArgument("unknown event type");
  }
  return Status::OK();
}

namespace {

inline bool IsStartType(EventType type) {
  return type == EventType::kStartLocation ||
         type == EventType::kStartContainment;
}

inline bool IsEndType(EventType type) {
  return type == EventType::kEndLocation || type == EventType::kEndContainment;
}

/// The numeric columns of one block as flat zigzag-delta (and, for
/// durations, plain) u64 arrays — the codec-independent intermediate both
/// payload layouts serialize. Decoding needs no such intermediate:
/// DecodeEvents streams each column straight into the events.
struct Columns {
  std::vector<std::uint64_t> objects;    // zigzag deltas
  std::vector<std::uint64_t> targets;    // zigzag deltas, two chains
  std::vector<std::uint64_t> epochs;     // zigzag deltas
  std::vector<std::uint64_t> durations;  // plain, one per End event
};

/// Wraparound-safe delta: the decoder adds the zigzag delta back modulo
/// 2^64, so id spaces near the top of the range (kNoObject) are fine.
inline std::uint64_t NextDelta(std::uint64_t value, std::uint64_t* prev) {
  const std::uint64_t delta =
      ZigzagEncode(static_cast<std::int64_t>(value - *prev));
  *prev = value;
  return delta;
}

Columns BuildColumns(const EventStream& events, std::size_t first,
                     std::size_t count) {
  Columns columns;
  columns.objects.reserve(count);
  columns.targets.reserve(count);
  columns.epochs.reserve(count);
  std::uint64_t prev_object = 0;
  std::uint64_t prev_container = 0;
  std::uint64_t prev_location = 0;
  std::uint64_t prev_epoch = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const Event& event = events[first + i];
    columns.objects.push_back(NextDelta(event.object, &prev_object));
    if (IsContainmentEvent(event.type)) {
      columns.targets.push_back(NextDelta(event.container, &prev_container));
    } else {
      columns.targets.push_back(NextDelta(event.location, &prev_location));
    }
    columns.epochs.push_back(NextDelta(
        static_cast<std::uint64_t>(PrimaryEpoch(event)), &prev_epoch));
    if (IsEndType(event.type)) {
      // V_e - V_s >= 0 by validation.
      columns.durations.push_back(
          static_cast<std::uint64_t>(event.end - event.start));
    }
  }
  return columns;
}

void PutVarintColumn(const std::vector<std::uint64_t>& values,
                     std::vector<std::uint8_t>* out) {
  for (std::uint64_t value : values) PutVarint64(value, out);
}

/// Decodes the `n` values of the column at `in[*offset]` in order, handing
/// each to `apply(i, value)`, and advances `*offset` past the column.
/// Values go straight to their consumer: varint reads one at a time,
/// bitpack unpacks one miniblock into a stack buffer at a time (miniblocks
/// restart every kMiniblockValues values, so chunked unpacking is the same
/// decode). An `apply` that returns false rejects its value as
/// Corruption(`value_error`).
template <typename Apply>
Status DecodeColumn(BlockCodec codec, const std::uint8_t* in, std::size_t size,
                    std::size_t* offset, std::size_t n,
                    const char* value_error, Apply apply) {
  if (codec == BlockCodec::kVarint) {
    std::size_t pos = *offset;  // A local the loop can keep in a register.
    for (std::size_t i = 0; i < n; ++i) {
      std::uint64_t value = 0;
      const char* error = nullptr;
      if (!ReadVarint64(in, size, &pos, &value, &error)) {
        return Status::Corruption(error);
      }
      if (!apply(i, value)) return Status::Corruption(value_error);
    }
    *offset = pos;
    return Status::OK();
  }
  std::uint64_t chunk[kMiniblockValues];
  for (std::size_t first = 0; first < n; first += kMiniblockValues) {
    const std::size_t m = std::min(kMiniblockValues, n - first);
    SPIRE_RETURN_NOT_OK(UnpackColumn(in, size, offset, m, chunk));
    for (std::size_t i = 0; i < m; ++i) {
      if (!apply(first + i, chunk[i])) return Status::Corruption(value_error);
    }
  }
  return Status::OK();
}

/// Decodes a block straight into `events[0, count)`: the types column,
/// then each numeric column in turn, with no intermediate arrays.
Status DecodeEvents(const std::uint8_t* payload, std::size_t payload_size,
                    std::uint32_t count, BlockCodec codec, Event* events) {
  std::size_t num_ends = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint8_t byte = payload[i];
    if (byte > static_cast<std::uint8_t>(EventType::kMissing)) {
      return Status::Corruption("unknown event type byte in block");
    }
    events[i].type = static_cast<EventType>(byte);
    if (IsEndType(events[i].type)) ++num_ends;
  }
  std::size_t offset = count;  // Past the types column.

  // Objects: one zigzag-delta chain.
  std::uint64_t prev_object = 0;
  SPIRE_RETURN_NOT_OK(DecodeColumn(
      codec, payload, payload_size, &offset, count, /*value_error=*/"",
      [&](std::size_t i, std::uint64_t delta) {
        prev_object += static_cast<std::uint64_t>(ZigzagDecode(delta));
        events[i].object = prev_object;
        return true;
      }));

  // Targets interleave two independent delta chains (container ids for
  // containment events, location ids otherwise), picked per event by type.
  std::uint64_t prev_container = 0;
  std::uint64_t prev_location = 0;
  SPIRE_RETURN_NOT_OK(DecodeColumn(
      codec, payload, payload_size, &offset, count,
      "location id out of range in block",
      [&](std::size_t i, std::uint64_t delta) {
        Event& event = events[i];
        if (IsContainmentEvent(event.type)) {
          prev_container += static_cast<std::uint64_t>(ZigzagDecode(delta));
          event.container = prev_container;
          return true;
        }
        prev_location += static_cast<std::uint64_t>(ZigzagDecode(delta));
        if (prev_location > std::numeric_limits<LocationId>::max()) {
          return false;
        }
        event.location = static_cast<LocationId>(prev_location);
        return true;
      }));

  // Primary epochs. An End's start waits for its duration below.
  std::uint64_t prev_epoch = 0;
  SPIRE_RETURN_NOT_OK(DecodeColumn(
      codec, payload, payload_size, &offset, count,
      "negative event timestamp in block",
      [&](std::size_t i, std::uint64_t delta) {
        prev_epoch += static_cast<std::uint64_t>(ZigzagDecode(delta));
        const Epoch primary = static_cast<Epoch>(prev_epoch);
        if (primary < 0) return false;
        Event& event = events[i];
        event.start = primary;
        event.end = IsStartType(event.type) ? kInfiniteEpoch : primary;
        return true;
      }));

  // Durations: plain, one per End event, in End-event order.
  std::size_t next_end = 0;
  SPIRE_RETURN_NOT_OK(DecodeColumn(
      codec, payload, payload_size, &offset, num_ends,
      "End event duration out of range in block",
      [&](std::size_t, std::uint64_t duration) {
        while (!IsEndType(events[next_end].type)) ++next_end;
        Event& event = events[next_end++];
        event.start = static_cast<Epoch>(
            static_cast<std::uint64_t>(event.end) - duration);
        return event.start >= 0 && event.start <= event.end;
      }));

  if (codec == BlockCodec::kVarint) {
    if (offset != payload_size) {
      return Status::Corruption("trailing bytes after the block columns");
    }
    return Status::OK();
  }
  if (offset + kBitpackPadBytes != payload_size) {
    return Status::Corruption("trailing bytes after the block columns");
  }
  for (std::size_t i = offset; i < payload_size; ++i) {
    if (payload[i] != 0) {
      return Status::Corruption("nonzero bitpack payload pad");
    }
  }
  return Status::OK();
}

}  // namespace

Result<EncodedBlock> EncodeBlock(const EventStream& events, std::size_t first,
                                 std::size_t count, BlockCodec codec) {
  if (first + count > events.size()) {
    return Status::InvalidArgument("block range exceeds the stream");
  }
  if (count == 0 ||
      count > std::numeric_limits<std::uint32_t>::max()) {
    return Status::InvalidArgument("block event count out of range");
  }
  EncodedBlock block;
  block.count = static_cast<std::uint32_t>(count);
  block.codec = codec;

  // Types column (plus validation and the epoch bounds).
  for (std::size_t i = 0; i < count; ++i) {
    const Event& event = events[first + i];
    SPIRE_RETURN_NOT_OK(ValidateArchivable(event));
    const Epoch primary = PrimaryEpoch(event);
    if (block.min_epoch == kNeverEpoch || primary < block.min_epoch) {
      block.min_epoch = primary;
    }
    if (block.max_epoch == kNeverEpoch || primary > block.max_epoch) {
      block.max_epoch = primary;
    }
    block.payload.push_back(static_cast<std::uint8_t>(event.type));
  }

  const Columns columns = BuildColumns(events, first, count);
  switch (codec) {
    case BlockCodec::kVarint:
      PutVarintColumn(columns.objects, &block.payload);
      PutVarintColumn(columns.targets, &block.payload);
      PutVarintColumn(columns.epochs, &block.payload);
      PutVarintColumn(columns.durations, &block.payload);
      break;
    case BlockCodec::kBitpack:
      PackColumn(columns.objects.data(), columns.objects.size(),
                 &block.payload);
      PackColumn(columns.targets.data(), columns.targets.size(),
                 &block.payload);
      PackColumn(columns.epochs.data(), columns.epochs.size(),
                 &block.payload);
      PackColumn(columns.durations.data(), columns.durations.size(),
                 &block.payload);
      block.payload.insert(block.payload.end(), kBitpackPadBytes, 0);
      break;
  }
  return block;
}

Status DecodeBlock(const std::uint8_t* payload, std::size_t payload_size,
                   std::uint32_t count, BlockCodec codec, EventStream* out) {
  if (codec != BlockCodec::kVarint && codec != BlockCodec::kBitpack) {
    return Status::Corruption("unknown block codec");
  }
  if (payload_size < count) {
    return Status::Corruption("block payload shorter than its type column");
  }
  // Events are decoded in place in `out`'s tail; a failure takes them back
  // out, so `out` is unchanged unless the whole block decodes.
  const std::size_t base = out->size();
  out->resize(base + count);
  Status status =
      DecodeEvents(payload, payload_size, count, codec, out->data() + base);
  if (!status.ok()) out->resize(base);
  return status;
}

Status DecodeBlockEpochs(const std::uint8_t* payload,
                         std::size_t payload_size, std::uint32_t count,
                         BlockCodec codec, std::vector<Epoch>* out) {
  if (payload_size < count) {
    return Status::Corruption("block payload shorter than its type column");
  }
  std::size_t offset = count;  // Types carry no epoch data; jump them.
  // Unpack the zigzag deltas straight into the output tail and transform
  // them in place (Epoch and uint64_t share size, and signed/unsigned
  // aliasing of the same width is well-defined), so the hot path pays no
  // per-block scratch allocation or copy pass.
  const std::size_t base = out->size();
  out->resize(base + count);
  auto* deltas = reinterpret_cast<std::uint64_t*>(out->data() + base);
  switch (codec) {
    case BlockCodec::kVarint:
      // Varint columns have no skip structure: reaching the epoch column
      // means walking every object/target byte's continuation bit.
      for (std::uint32_t i = 0; i < 2 * count; ++i) {
        SPIRE_RETURN_NOT_OK(SkipVarint64(payload, payload_size, &offset));
      }
      for (std::uint32_t i = 0; i < count; ++i) {
        const char* error = nullptr;
        if (!ReadVarint64(payload, payload_size, &offset, &deltas[i],
                          &error)) {
          return Status::Corruption(error);
        }
      }
      break;
    case BlockCodec::kBitpack:
      SPIRE_RETURN_NOT_OK(SkipColumn(payload, payload_size, &offset, count));
      SPIRE_RETURN_NOT_OK(SkipColumn(payload, payload_size, &offset, count));
      SPIRE_RETURN_NOT_OK(
          UnpackColumn(payload, payload_size, &offset, count, deltas));
      break;
    default:
      return Status::Corruption("unknown block codec");
  }
  std::uint64_t prev = 0;
  std::uint64_t sign = 0;  // Accumulated sign bits: branch-free range check.
  for (std::uint32_t i = 0; i < count; ++i) {
    prev += static_cast<std::uint64_t>(ZigzagDecode(deltas[i]));
    sign |= prev;
    deltas[i] = prev;
  }
  if ((sign >> 63) != 0) {
    return Status::Corruption("negative event timestamp in block");
  }
  return Status::OK();
}

}  // namespace spire
