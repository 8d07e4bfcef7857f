#include "compress/event.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/epc.h"

namespace spire {

const char* ToString(EventType type) {
  switch (type) {
    case EventType::kStartLocation:
      return "StartLocation";
    case EventType::kEndLocation:
      return "EndLocation";
    case EventType::kStartContainment:
      return "StartContainment";
    case EventType::kEndContainment:
      return "EndContainment";
    case EventType::kMissing:
      return "Missing";
  }
  return "invalid";
}

Event Event::StartLocation(ObjectId object, LocationId location, Epoch start) {
  Event e;
  e.type = EventType::kStartLocation;
  e.object = object;
  e.location = location;
  e.start = start;
  e.end = kInfiniteEpoch;
  return e;
}

Event Event::EndLocation(ObjectId object, LocationId location, Epoch start,
                         Epoch end) {
  Event e;
  e.type = EventType::kEndLocation;
  e.object = object;
  e.location = location;
  e.start = start;
  e.end = end;
  return e;
}

Event Event::StartContainment(ObjectId object, ObjectId container,
                              Epoch start) {
  Event e;
  e.type = EventType::kStartContainment;
  e.object = object;
  e.container = container;
  e.start = start;
  e.end = kInfiniteEpoch;
  return e;
}

Event Event::EndContainment(ObjectId object, ObjectId container, Epoch start,
                            Epoch end) {
  Event e;
  e.type = EventType::kEndContainment;
  e.object = object;
  e.container = container;
  e.start = start;
  e.end = end;
  return e;
}

Event Event::Missing(ObjectId object, LocationId missing_from, Epoch at) {
  Event e;
  e.type = EventType::kMissing;
  e.object = object;
  e.location = missing_from;
  e.start = at;
  e.end = at;
  return e;
}

namespace {

/// True for the three message kinds that describe an object's location.
bool IsLocationEvent(EventType type) { return !IsContainmentEvent(type); }

}  // namespace

std::vector<ChurnSplice> CancelLocationChurn(EventStream* events,
                                             std::size_t first) {
  const std::size_t n = events->size();
  std::vector<bool> removed(n - first, false);

  // Per-object chains: next[i - first] is the position of the object's next
  // location message after i (n at the chain's end). Every rule below only
  // ever looks at an object's next surviving location message, so walking
  // the chains visits exactly what a forward scan past other objects'
  // messages would, in time linear in the slice (plus one sort).
  std::vector<std::size_t> next(n - first, n);
  {
    std::vector<std::pair<ObjectId, std::size_t>> chain;
    for (std::size_t i = first; i < n; ++i) {
      const Event& event = (*events)[i];
      if (IsLocationEvent(event.type)) chain.emplace_back(event.object, i);
    }
    std::sort(chain.begin(), chain.end());
    for (std::size_t k = 1; k < chain.size(); ++k) {
      if (chain[k].first == chain[k - 1].first) {
        next[chain[k - 1].second - first] = chain[k].second;
      }
    }
  }
  // The object's next location message after i that is still in the slice.
  auto next_live = [&](std::size_t i) {
    std::size_t j = next[i - first];
    while (j < n && removed[j - first]) j = next[j - first];
    return j;
  };

  // Pass 1: zero-length stays superseded by another stay at the same epoch.
  for (std::size_t i = first; i < n; ++i) {
    const Event& start_event = (*events)[i];
    if (removed[i - first] || start_event.type != EventType::kStartLocation) {
      continue;
    }
    // The stay's close must be its very next location message...
    const std::size_t close = next_live(i);
    if (close == n) continue;
    const Event& end_event = (*events)[close];
    if (end_event.type != EventType::kEndLocation ||
        end_event.location != start_event.location ||
        end_event.start != start_event.start ||
        end_event.end != start_event.start) {
      continue;
    }
    // ...and a replacement stay must open at the same epoch afterwards.
    // Without one the zero-length stay is a genuine visit (e.g. an exit
    // sighting) and stays; a Missing in between is a real departure.
    const std::size_t k = next_live(close);
    if (k == n) continue;
    const Event& replacement = (*events)[k];
    if (replacement.type == EventType::kStartLocation &&
        replacement.start == start_event.start) {
      removed[i - first] = true;
      removed[close - first] = true;
    }
  }

  // Pass 2: End immediately re-opened in place — the stay never ended.
  // Only the immediately following location message can cancel the end; a
  // Missing there keeps a real departure.
  std::vector<ChurnSplice> splices;
  for (std::size_t i = first; i < n; ++i) {
    const Event& end_event = (*events)[i];
    if (removed[i - first] || end_event.type != EventType::kEndLocation) {
      continue;
    }
    const std::size_t j = next_live(i);
    if (j == n) continue;
    const Event& later = (*events)[j];
    if (later.type != EventType::kStartLocation ||
        later.location != end_event.location ||
        later.start != end_event.end) {
      continue;
    }
    removed[i - first] = true;
    removed[j - first] = true;
    // The reopened stay may itself have ended later in this same epoch;
    // then the splice runs *through* the pair: the surviving End inherits
    // the original start instead of the stay being left open.
    const std::size_t k = next_live(j);
    if (k < n) {
      Event& after = (*events)[k];
      if (after.type == EventType::kEndLocation &&
          after.location == end_event.location &&
          after.start == later.start) {
        after.start = end_event.start;
        continue;
      }
    }
    splices.push_back(
        ChurnSplice{end_event.object, end_event.location, end_event.start});
  }

  std::size_t write = first;
  for (std::size_t i = first; i < n; ++i) {
    if (!removed[i - first]) {
      if (write != i) (*events)[write] = (*events)[i];
      ++write;
    }
  }
  events->resize(write);
  return splices;
}

std::string Event::ToString() const {
  std::ostringstream out;
  out << spire::ToString(type) << "(" << EpcToString(object);
  if (IsContainmentEvent(type)) {
    out << ", in " << EpcToString(container);
  } else {
    out << ", loc " << location;
  }
  out << ", [" << start << ", ";
  if (end == kInfiniteEpoch) {
    out << "inf";
  } else {
    out << end;
  }
  out << "))";
  return out.str();
}

}  // namespace spire
