// The compressed output event model (Section V-A).
//
// A compressed stream carries location and containment events with validity
// intervals [V_s, V_e]. Five message kinds exist; Start* messages leave V_e
// open (infinity), End* messages close it, and Missing is a singleton whose
// interval collapses to a point. A stream is *well-formed* when, per object,
// every start message has a matching end message and Missing appears only
// outside start-end location pairs (see compress/well_formed.h).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/types.h"
#include "common/wire.h"

namespace spire {

/// Message kind of an output event.
enum class EventType : std::uint8_t {
  kStartLocation = 0,
  kEndLocation = 1,
  kStartContainment = 2,
  kEndContainment = 3,
  kMissing = 4,
};

/// Human-readable event type name.
const char* ToString(EventType type);

/// True for the two containment message kinds.
inline bool IsContainmentEvent(EventType type) {
  return type == EventType::kStartContainment ||
         type == EventType::kEndContainment;
}

/// One output message. Location messages use `location` and leave
/// `container` = kNoObject; containment messages do the opposite. For a
/// Missing message, `location` is the location the object went missing from.
struct Event {
  EventType type = EventType::kStartLocation;
  ObjectId object = kNoObject;
  LocationId location = kUnknownLocation;
  ObjectId container = kNoObject;
  Epoch start = kNeverEpoch;              ///< V_s.
  Epoch end = kInfiniteEpoch;             ///< V_e; infinity while open.

  bool operator==(const Event&) const = default;

  /// Convenience constructors.
  static Event StartLocation(ObjectId object, LocationId location, Epoch start);
  static Event EndLocation(ObjectId object, LocationId location, Epoch start,
                           Epoch end);
  static Event StartContainment(ObjectId object, ObjectId container,
                                Epoch start);
  static Event EndContainment(ObjectId object, ObjectId container, Epoch start,
                              Epoch end);
  static Event Missing(ObjectId object, LocationId missing_from, Epoch at);

  /// Wire size of one serialized message (see common/wire.h).
  static constexpr std::size_t WireBytes() { return kEventWireBytes; }

  /// Debug form, e.g. "StartLocation(case:1.2.3, loc 4, [10, inf))".
  std::string ToString() const;
};

/// An ordered sequence of events (by emission time).
using EventStream = std::vector<Event>;

/// A stay that survived churn cancellation but had its recorded start moved
/// back to `start` (the End/Start pair between was spliced out); the caller
/// must update its own open-stay bookkeeping to match.
struct ChurnSplice {
  ObjectId object = kNoObject;
  LocationId location = kUnknownLocation;
  Epoch start = kNeverEpoch;

  bool operator==(const ChurnSplice&) const = default;
};

/// Removes meaningless same-epoch location churn from the slice
/// [first, events->size()), which must hold one epoch's events:
///  1. a zero-length stay superseded by another StartLocation of the same
///     object at the same epoch — an object has one location per epoch, so
///     such a stay is a bookkeeping transient, not a visit;
///  2. an EndLocation whose next location message for that object is a
///     StartLocation continuing the stay seamlessly at the same location —
///     the stay never ended. If the reopened stay closed again within the
///     slice the surviving End inherits the original start; otherwise the
///     still-open stay is returned as a splice.
/// A Missing message blocks cancellation — a real departure is kept.
/// Shared by the compressor (per emitted epoch) and the decompressor (per
/// reconstructed epoch) so both sides agree on the churn-free form
/// (Section V-C duplicate suppression).
std::vector<ChurnSplice> CancelLocationChurn(EventStream* events,
                                             std::size_t first);

/// Total wire bytes of a stream.
inline std::size_t WireBytes(const EventStream& stream) {
  return stream.size() * kEventWireBytes;
}

}  // namespace spire
